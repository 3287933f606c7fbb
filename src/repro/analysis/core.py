"""The analysis framework: findings, rule registry, per-module context.

:mod:`repro.analysis` is a project-specific static analyzer: the concurrency
and reproducibility invariants that PRs 5–7 documented in prose (lock-guarded
telemetry, monotonic deadlines, the typed error taxonomy, seeded randomness)
become machine-checked rules that run over the real tree in CI.  The design
is a code-keyed rule registry:

* a :class:`Rule` subclass registers under a stable ``REP1xx`` code via
  :func:`register_rule` and declares the dotted-module prefixes it applies to
  (``()`` means every analyzed file);
* the runner (:mod:`repro.analysis.runner`) parses each file once and hands
  every applicable rule a :class:`ModuleContext` — the AST, the raw source
  lines (rules that read annotations such as ``# guarded-by:`` need them; the
  AST drops comments) and the derived dotted module name;
* rules yield :class:`Finding`\\ s; the runner then applies inline waivers
  (``# repro: allow[CODE] -- reason``, see :mod:`repro.analysis.waivers`) and
  the CLI exits non-zero when any finding is left unwaived.

Everything here is stdlib-only (``ast`` + ``re``), so the analyzer runs in
any environment the test suite runs in.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator
from typing import ClassVar

__all__ = [
    "ANALYZER_CODE",
    "Finding",
    "ModuleContext",
    "Rule",
    "register_rule",
    "all_rules",
    "rule_codes",
    "dotted_name",
]

#: Findings produced by the analyzer itself (syntax errors, malformed
#: waivers).  Not waivable: a broken waiver must not be able to waive itself.
ANALYZER_CODE = "REP000"


@dataclass(frozen=True)
class Finding:
    """One rule violation (or analyzer problem) at a file position."""

    code: str
    name: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str | None = None

    def format(self) -> str:
        tag = " (waived)" if self.waived else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.name}] {self.message}{tag}")

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one analyzed file.

    ``comments`` maps line number → the *actual* comment token on that line
    (via :mod:`tokenize`), so annotation conventions (waivers, ``guarded-by``)
    never match text that merely looks like a comment inside a docstring or
    string literal.
    """

    path: Path
    module: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    comments: dict[int, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, source: str) -> ModuleContext:
        tree = ast.parse(source, filename=str(path))
        return cls(path=path, module=derive_module(path), tree=tree,
                   source=source, lines=source.splitlines(),
                   comments=extract_comments(source))


def extract_comments(source: str) -> dict[int, str]:
    """Line → comment text for every real ``#`` comment token in ``source``."""
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # a syntactically broken file is reported by the parse step
    return comments


def derive_module(path: Path) -> str:
    """The dotted module name of ``path`` (best effort, for rule scoping).

    A ``src`` directory component anchors the import root (the repo's
    src-layout), so ``src/repro/gateway/app.py`` → ``repro.gateway.app``
    wherever the tree lives on disk.  Without one the parts after the last
    well-known top-level directory (``tests``/``benchmarks``/``scripts``/
    ``examples``, inclusive) are used, so rules scoped to ``repro.`` never
    match test or tooling files by accident.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "src":
            return ".".join(parts[anchor + 1:])
        if parts[anchor] in ("tests", "benchmarks", "scripts", "examples"):
            return ".".join(parts[anchor:])
    return ".".join(parts[-1:])


class Rule:
    """Base class of every analysis rule.

    Subclasses set ``code`` (stable ``REP1xx`` identifier used in waivers and
    CI logs), ``name`` (the kebab-case human name, also accepted in waivers),
    ``description`` (one line, shown by ``--list-rules``) and optionally
    ``modules`` — dotted-prefix scopes; a rule only runs over files whose
    derived module matches one (the empty tuple matches everything).
    """

    code: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]
    modules: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, context: ModuleContext) -> bool:
        if not self.modules:
            return True
        module = context.module
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.modules)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def finding(self, context: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            code=self.code, name=self.name, path=str(context.path),
            line=getattr(node, "lineno", 1), col=getattr(node, "col_offset", 0),
            message=message,
        )


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Register a rule class under its ``code`` (decorator-friendly)."""
    code = getattr(cls, "code", None)
    if not code:
        raise ValueError(f"{cls!r} must define a non-empty code")
    if code in _RULES and _RULES[code] is not cls:
        raise ValueError(f"rule code {code} is already registered")
    _RULES[code] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    return [_RULES[code]() for code in sorted(_RULES)]


def rule_codes() -> dict[str, str]:
    """Mapping of every accepted waiver token (code *and* name) to the code."""
    tokens: dict[str, str] = {}
    for code, cls in _RULES.items():
        tokens[code] = code
        tokens[cls.name] = code
    return tokens


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else.

    ``self._rng.random`` resolves to ``"self._rng.random"`` — callers match
    the *full* dotted string, so instance-level streams never collide with
    module-level names like ``random.random``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
