"""The shipped rules: six machine-checked invariants of this codebase.

Each rule encodes a convention that earlier PRs established in prose and
tests.  The codes are stable (they appear in waivers and CI logs); the
kebab-case names are accepted in waivers interchangeably.

==========  =========================  ==========================================
code        name                       invariant
==========  =========================  ==========================================
``REP101``  lock-discipline            attributes declared ``# guarded-by:
                                       <lock>`` are only touched inside
                                       ``with self.<lock>:``
``REP102``  no-blocking-in-async       ``async def`` bodies in the gateway never
                                       call known-blocking APIs directly
``REP103``  monotonic-deadlines        deadline-bearing layers never read the
                                       wall clock (``time.time`` /
                                       ``datetime.now``)
``REP104``  typed-errors               no ``raise Exception``; broad ``except``
                                       handlers re-raise or carry a waiver
``REP105``  seeded-rng                 every random stream is explicitly seeded
                                       (bitwise reproducibility)
``REP106``  socket-timeout-discipline  every socket connect/accept in the fleet
                                       and gateway carries an explicit timeout
                                       or deadline
==========  =========================  ==========================================
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from typing import ClassVar

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = [
    "LockDisciplineRule",
    "NoBlockingInAsyncRule",
    "MonotonicDeadlinesRule",
    "TypedErrorsRule",
    "SeededRngRule",
    "SocketTimeoutRule",
]

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


@register_rule
class LockDisciplineRule(Rule):
    """``# guarded-by: <lock>`` attributes only move under their lock.

    The convention: the declaring assignment (normally in ``__init__``)
    carries a trailing ``# guarded-by: _some_lock`` comment naming another
    attribute of the same class — a :class:`threading.Lock`, ``RLock`` or
    ``Condition``.  From then on, every ``self.<attr>`` read or write in the
    class must sit lexically inside a ``with self._some_lock:`` block.

    Escape hatches, both deliberate:

    * ``__init__`` is exempt — construction happens-before publication;
    * methods whose name ends in ``_locked`` are exempt — the suffix is this
      codebase's convention for "caller must hold the lock", and the rule
      trusts it (the call sites it can see are still checked).

    The check is lexical: a closure defined under the lock but invoked after
    release will not be caught.  That is the usual static-analysis trade; the
    rule exists to catch the common mistake (a new counter bump or probe
    added outside the ``with``), not to prove the locking protocol.
    """

    code: ClassVar[str] = "REP101"
    name: ClassVar[str] = "lock-discipline"
    description: ClassVar[str] = (
        "attributes declared '# guarded-by: <lock>' may only be accessed "
        "inside the matching 'with self.<lock>:' block"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    # ------------------------------------------------------------------ #
    def _check_class(self, context: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        guarded = self._declarations(context, cls)
        if not guarded:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__" or stmt.name.endswith("_locked"):
                continue
            yield from self._scan(context, stmt, guarded, frozenset())

    def _declarations(self, context: ModuleContext,
                      cls: ast.ClassDef) -> dict[str, str]:
        """``{attr: lock}`` from ``guarded-by`` comments on assignments."""
        guarded: dict[str, str] = {}
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            match = _GUARDED_BY_RE.search(context.comments.get(node.lineno, ""))
            if match is None:
                continue
            lock = match.group(1)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    guarded[target.attr] = lock
                elif isinstance(target, ast.Name):
                    guarded[target.id] = lock
        return guarded

    def _scan(self, context: ModuleContext, node: ast.AST,
              guarded: dict[str, str],
              held: frozenset[str]) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                name = dotted_name(item.context_expr)
                if name is not None and name.startswith("self."):
                    acquired.add(name[len("self."):])
                yield from self._scan(context, item.context_expr, guarded, held)
            inner = held | acquired
            for stmt in node.body:
                yield from self._scan(context, stmt, guarded, inner)
            return
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
                and guarded[node.attr] not in held):
            yield self.finding(
                context, node,
                f"'self.{node.attr}' is guarded by 'self.{guarded[node.attr]}' "
                f"but is accessed outside 'with self.{guarded[node.attr]}:'",
            )
            return
        for child in ast.iter_child_nodes(node):
            yield from self._scan(context, child, guarded, held)


@register_rule
class NoBlockingInAsyncRule(Rule):
    """``async def`` bodies in the gateway never block the event loop.

    One stalled coroutine stalls every connection the gateway is serving, so
    known-blocking calls — ``time.sleep``, socket/subprocess/urllib I/O, and
    the blocking ``annotate`` / ``annotate_batch`` service surface — are
    banned inside ``async def``.  The sanctioned seams are
    ``loop.run_in_executor`` and the :class:`~repro.gateway.batcher.
    MicroBatcher` (both take the function as a *reference*, which this rule
    naturally permits), and ``asyncio.sleep`` instead of ``time.sleep``.

    Nested ``def``/``lambda`` bodies are skipped: they execute wherever they
    are later called (usually a worker thread), not on the loop.
    """

    code: ClassVar[str] = "REP102"
    name: ClassVar[str] = "no-blocking-in-async"
    description: ClassVar[str] = (
        "async def bodies must not call blocking APIs (time.sleep, socket "
        "ops, annotate*) except through run_in_executor/the batcher"
    )
    modules: ClassVar[tuple[str, ...]] = ("repro.gateway",)

    BLOCKING_CALLS = frozenset({"time.sleep"})
    BLOCKING_PREFIXES = ("socket.", "subprocess.", "urllib.request.", "requests.")
    BLOCKING_METHODS = frozenset({"annotate", "annotate_batch"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for stmt in node.body:
                    yield from self._scan(context, stmt)

    def _scan(self, context: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Runs off the loop (executor/batcher) or is checked on its own.
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(context, node)
        for child in ast.iter_child_nodes(node):
            yield from self._scan(context, child)

    def _check_call(self, context: ModuleContext,
                    call: ast.Call) -> Iterator[Finding]:
        dotted = dotted_name(call.func)
        if dotted is not None:
            if dotted in self.BLOCKING_CALLS:
                yield self.finding(
                    context, call,
                    f"'{dotted}' blocks the event loop; use 'await "
                    "asyncio.sleep(...)' instead",
                )
                return
            if dotted.startswith(self.BLOCKING_PREFIXES):
                yield self.finding(
                    context, call,
                    f"'{dotted}' does blocking I/O on the event loop; run it "
                    "via loop.run_in_executor",
                )
                return
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr in self.BLOCKING_METHODS):
            yield self.finding(
                context, call,
                f"'.{call.func.attr}(...)' is the blocking service API; "
                "dispatch through the MicroBatcher or loop.run_in_executor",
            )


@register_rule
class MonotonicDeadlinesRule(Rule):
    """Deadline math in runtime/gateway code stays on the monotonic clock.

    ``Deadline``, ``RuntimePolicy`` timeouts and every backoff computation
    compare *absolute monotonic* readings; one stray ``time.time()`` mixed in
    makes deadlines jump with NTP adjustments and DST.  The wall clock is
    banned in these modules — format timestamps at the edges (logging, HTTP
    headers) in layers where no deadline arithmetic happens, or waive with a
    reason.
    """

    code: ClassVar[str] = "REP103"
    name: ClassVar[str] = "monotonic-deadlines"
    description: ClassVar[str] = (
        "time.time()/datetime.now() are banned where Deadline math requires "
        "time.monotonic()"
    )
    modules: ClassVar[tuple[str, ...]] = (
        "repro.runtime", "repro.gateway", "repro.fleet",
    )

    BANNED = frozenset({
        "time.time", "time.localtime", "time.gmtime", "time.ctime",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today", "date.today",
    })
    _WALL_FROM_TIME = frozenset({"time", "localtime", "gmtime", "ctime"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        calls = self._from_imports(context.tree)
        prefixes = self._module_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if not dotted:
                continue
            head, _, rest = dotted.partition(".")
            canonical = f"{prefixes[head]}.{rest}" if rest and head in prefixes else dotted
            name = canonical if canonical in self.BANNED else calls.get(dotted)
            if name is not None:
                yield self.finding(
                    context, node,
                    f"'{name}()' reads the wall clock; deadline-bearing code "
                    "must use time.monotonic() (or perf_counter for spans)",
                )

    def _from_imports(self, tree: ast.Module) -> dict[str, str]:
        """Aliases bound by ``from time import time`` style imports."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._WALL_FROM_TIME:
                        aliases[alias.asname or alias.name] = f"time.{alias.name}"
        return aliases

    def _module_aliases(self, tree: ast.Module) -> dict[str, str]:
        """Names that shadow the clock modules: ``import time as t`` binds
        ``t`` -> ``time``, ``from datetime import datetime as dt`` binds
        ``dt`` -> ``datetime.datetime`` — so aliased call sites canonicalise
        back onto the BANNED spellings."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        aliases[alias.asname or alias.name] = f"datetime.{alias.name}"
        return aliases


@register_rule
class TypedErrorsRule(Rule):
    """Failures under ``src/repro`` speak the typed taxonomy.

    Two checks:

    * ``raise Exception(...)`` / ``raise BaseException(...)`` is banned —
      callers route on type (:mod:`repro.core.errors`), and a generic raise
      is invisible to every ``except ServingError`` site;
    * an ``except Exception:`` / ``except BaseException:`` handler must
      contain a ``raise`` (re-raise as-is or mapped to a typed error).  A
      handler that genuinely terminates a failure — fanning it out to
      futures, translating it to an HTTP response — carries a waiver whose
      reason says where the error goes instead.

    :mod:`repro.core.errors` itself is exempt: it is where the taxonomy
    lives.
    """

    code: ClassVar[str] = "REP104"
    name: ClassVar[str] = "typed-errors"
    description: ClassVar[str] = (
        "no 'raise Exception'; broad 'except Exception' handlers must "
        "re-raise, map to a typed ServingError, or carry a waiver"
    )
    modules: ClassVar[tuple[str, ...]] = ("repro",)

    GENERIC = frozenset({"Exception", "BaseException"})

    def applies_to(self, context: ModuleContext) -> bool:
        return super().applies_to(context) and context.module != "repro.core.errors"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Raise):
                name = self._raised_generic(node)
                if name is not None:
                    yield self.finding(
                        context, node,
                        f"'raise {name}' is untyped; raise a "
                        "repro.core.errors.ServingError subclass (or a "
                        "specific builtin like ValueError)",
                    )
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(context, node)

    def _raised_generic(self, node: ast.Raise) -> str | None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in self.GENERIC:
            return exc.id
        return None

    def _check_handler(self, context: ModuleContext,
                       handler: ast.ExceptHandler) -> Iterator[Finding]:
        name = self._broad_name(handler.type)
        if name is None:
            return
        if not any(self._reraises(stmt) for stmt in handler.body):
            yield self.finding(
                context, handler,
                f"'except {name}' swallows the failure; re-raise it, map it "
                "to a typed ServingError, or waive with the reason it is "
                "terminated here",
            )

    def _broad_name(self, type_node: ast.AST | None) -> str | None:
        if isinstance(type_node, ast.Name) and type_node.id in self.GENERIC:
            return type_node.id
        if isinstance(type_node, ast.Tuple):
            for element in type_node.elts:
                if isinstance(element, ast.Name) and element.id in self.GENERIC:
                    return element.id
        return None

    def _reraises(self, node: ast.AST) -> bool:
        """Whether a ``raise`` executes as part of the handler itself."""
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False  # a nested def's raise runs later, elsewhere
        return any(self._reraises(child) for child in ast.iter_child_nodes(node))


@register_rule
class SeededRngRule(Rule):
    """Every random stream under ``src/repro`` is explicitly seeded.

    Bitwise reproducibility is this repo's contract (seeded runs are
    compared bit-for-bit across refactors), so randomness must come from an
    explicitly seeded generator — ``np.random.default_rng(seed)``, a spawned
    child stream (``rng.spawn``), or ``random.Random(seed)``.  Banned:

    * ``np.random.default_rng()`` with no arguments (entropy from the OS);
    * the legacy numpy global state (``np.random.rand`` / ``seed`` / ...);
    * the stdlib ``random`` module-level functions and ``random.Random()``
      without a seed.

    Calls on *instances* (``self._rng.random()``) are always fine — the rule
    matches full dotted names, and instances are where seeds live.
    """

    code: ClassVar[str] = "REP105"
    name: ClassVar[str] = "seeded-rng"
    description: ClassVar[str] = (
        "np.random.default_rng()/random.* without an explicit seed or "
        "spawned stream is banned (bitwise reproducibility)"
    )
    modules: ClassVar[tuple[str, ...]] = ("repro",)

    LEGACY_NUMPY = frozenset({
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "normal", "uniform", "seed", "standard_normal",
        "binomial", "poisson", "beta", "gamma", "exponential",
    })
    STDLIB_RANDOM = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "seed", "getrandbits", "triangular",
    })

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            message = self._violation(node, dotted)
            if message is not None:
                yield self.finding(context, node, message)

    def _violation(self, call: ast.Call, dotted: str) -> str | None:
        parts = dotted.split(".")
        unseeded = not call.args and not call.keywords
        if parts[:2] in (["np", "random"], ["numpy", "random"]) and len(parts) == 3:
            if parts[2] == "default_rng":
                if unseeded:
                    return ("'default_rng()' without a seed breaks bitwise "
                            "reproducibility; pass a seed or spawn from a "
                            "seeded stream")
                return None
            if parts[2] in self.LEGACY_NUMPY:
                return (f"'{dotted}' uses numpy's global RNG state; draw from "
                        "an explicitly seeded np.random.default_rng(seed)")
            return None
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if unseeded:
                    return ("'random.Random()' without a seed breaks bitwise "
                            "reproducibility; pass a seed")
                return None
            if parts[1] in self.STDLIB_RANDOM:
                return (f"'{dotted}' uses the stdlib global RNG; use a seeded "
                        "random.Random(seed) instance")
        return None


@register_rule
class SocketTimeoutRule(Rule):
    """Every socket connect/accept in the fleet and gateway is bounded.

    The fleet serves over real loopback sockets, and an unbounded socket
    operation is a hung replica the supervisor cannot distinguish from a
    slow one.  The convention (established by :mod:`repro.fleet.wire`):
    every potentially-blocking rendezvous carries an explicit budget.
    Three spellings are checked:

    * ``socket.create_connection(addr)`` must pass a ``timeout`` — as the
      keyword or the second positional argument — normally computed from
      the caller's absolute monotonic deadline;
    * ``<sock>.connect(...)`` / ``<listener>.accept(...)`` must have a
      lexically visible ``<sock>.settimeout(...)`` on the *same receiver* —
      in the enclosing function for local names, anywhere in the enclosing
      class for ``self.<attr>`` receivers (binding in ``start()``, accepting
      in ``serve_forever()`` is the normal split);
    * ``asyncio.open_connection(...)`` must sit inside the arguments of an
      ``asyncio.wait_for(...)`` — the event-loop equivalent of a connect
      timeout.

    The check is lexical, like REP101: it proves the timeout *spelling* is
    present, not that the value is finite — ``settimeout(None)`` would
    still pass.  It exists to catch the common mistake: a new dial or
    accept loop added without any budget at all.
    """

    code: ClassVar[str] = "REP106"
    name: ClassVar[str] = "socket-timeout-discipline"
    description: ClassVar[str] = (
        "socket connect/accept calls in repro.fleet and repro.gateway must "
        "carry an explicit timeout (settimeout/timeout=/asyncio.wait_for)"
    )
    modules: ClassVar[tuple[str, ...]] = ("repro.fleet", "repro.gateway")

    GUARDED_METHODS = frozenset({"connect", "accept"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        protected = self._wait_for_descendants(context.tree)
        yield from self._scan(context, context.tree, frozenset(), frozenset(),
                              protected)

    # ------------------------------------------------------------------ #
    def _wait_for_descendants(self, tree: ast.Module) -> frozenset[int]:
        """ids of nodes nested inside ``asyncio.wait_for(...)`` arguments."""
        protected: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) not in ("asyncio.wait_for", "wait_for"):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                protected.update(id(child) for child in ast.walk(argument))
        return frozenset(protected)

    def _settimeout_receivers(self, node: ast.AST) -> set[str]:
        """Dotted receivers of every ``<receiver>.settimeout(...)`` under
        ``node`` (``conn`` from ``conn.settimeout(0.2)``, ``self._listener``
        from ``self._listener.settimeout(...)``)."""
        receivers: set[str] = set()
        for child in ast.walk(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "settimeout"):
                receiver = dotted_name(child.func.value)
                if receiver is not None:
                    receivers.add(receiver)
        return receivers

    def _scan(self, context: ModuleContext, node: ast.AST,
              visible: frozenset[str], self_receivers: frozenset[str],
              protected: frozenset[int]) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            in_class = frozenset(
                receiver for receiver in self._settimeout_receivers(node)
                if receiver.startswith("self.")
            )
            for child in ast.iter_child_nodes(node):
                yield from self._scan(context, child, visible, in_class,
                                      protected)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = frozenset(
                receiver for receiver in self._settimeout_receivers(node)
                if not receiver.startswith("self.")
            )
            inner = visible | local
            for child in ast.iter_child_nodes(node):
                yield from self._scan(context, child, inner, self_receivers,
                                      protected)
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(context, node, visible,
                                        self_receivers, protected)
        for child in ast.iter_child_nodes(node):
            yield from self._scan(context, child, visible, self_receivers,
                                  protected)

    def _check_call(self, context: ModuleContext, call: ast.Call,
                    visible: frozenset[str], self_receivers: frozenset[str],
                    protected: frozenset[int]) -> Iterator[Finding]:
        dotted = dotted_name(call.func)
        if dotted in ("socket.create_connection", "create_connection"):
            bounded = (len(call.args) >= 2
                       or any(kw.arg == "timeout" for kw in call.keywords))
            if not bounded:
                yield self.finding(
                    context, call,
                    f"'{dotted}(...)' without a timeout can hang the caller "
                    "forever; pass timeout= computed from the deadline",
                )
            return
        if dotted in ("asyncio.open_connection", "open_connection"):
            if id(call) not in protected:
                yield self.finding(
                    context, call,
                    f"'{dotted}(...)' has no connect budget; wrap it in "
                    "asyncio.wait_for(..., timeout=...)",
                )
            return
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr in self.GUARDED_METHODS):
            receiver = dotted_name(call.func.value)
            if receiver is None:
                return
            bounded = (receiver in visible
                       or (receiver.startswith("self.")
                           and receiver in self_receivers))
            if not bounded:
                yield self.finding(
                    context, call,
                    f"'{receiver}.{call.func.attr}(...)' has no lexically "
                    f"visible '{receiver}.settimeout(...)'; every socket "
                    "connect/accept must carry an explicit timeout",
                )
