"""Spans around calls into each layer's public functions, recorded from here.

The program is not changed: :class:`Tracer` swaps a timing wrapper into the
class (or every module namespace) that holds each function named in
:data:`SPECS`, and swaps the original back on exit.  Spans (name, layer,
start, end, parent, thread, tag) are kept in memory; a span's self time is
its duration minus that of its children on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass


def _ids(args, kwargs, result):
    tables = args[1] if len(args) > 1 else kwargs.get("tables", ())
    return [table.table_id for table in tables]


def _mentions(args, kwargs, result):
    return len(args[1])


def _op(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("op")


def _steps(args, kwargs, result):
    return len(result.step_losses) if result is not None else 0


# (owner "module:Class" or "module:function", attribute, span name, tag)
SPECS = [
    ("repro.serve.service:AnnotationService", "annotate_batch", "serve.annotate_batch", _ids),
    ("repro.fleet.router:FleetRouter", "annotate_batch", "fleet.annotate_batch", _ids),
    ("repro.fleet.wire:ReplicaClient", "request", "fleet.wire.request", _op),
    ("repro.core.annotator:KGLinkAnnotator", "fit", "core.fit", None),
    ("repro.core.annotator:KGLinkAnnotator", "evaluate", "core.evaluate", None),
    ("repro.core.pipeline:KGCandidateExtractor", "process_table", "core.process_table", None),
    ("repro.core.pipeline:KGCandidateExtractor", "link_table", "core.link_table", None),
    ("repro.core.pipeline:KGCandidateExtractor", "apply_overlap_filter", "core.step2", None),
    ("repro.core.pipeline:KGCandidateExtractor", "row_linking_scores", "core.step2", None),
    ("repro.core.pipeline:KGCandidateExtractor", "select_rows", "core.step2", None),
    ("repro.core.trainer:KGLinkTrainer", "prepare_example", "core.prepare_example", None),
    ("repro.core.trainer:KGLinkTrainer", "predict", "core.predict", None),
    ("repro.core.trainer:KGLinkTrainer", "train", "core.train", _steps),
    ("repro.kg.linker:EntityLinker", "link_batch", "kg.link_batch", _mentions),
    ("repro.kg.backends:BM25Index", "search", "kg.search", None),
    ("repro.plm.model:MiniBERT", "forward", "plm.encoder_forward", None),
    ("repro.plm.pretrain:MLMPretrainer", "pretrain", "plm.pretrain", None),
    ("repro.nn.tensor:Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim:AdamW", "step", "nn.optimizer_step", None),
    ("repro.nn.optim:clip_grad_norm", None, "nn.clip_grad", None),
    ("repro.text.tokenizer:WordPieceTokenizer", "encode", "text.tokenize", None),
]
LAYERS = ("gateway", "fleet", "serve", "core", "kg", "plm", "nn", "text")


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    tag: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.spans``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, original, name: str, tag):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, parent, name, start, end, threading.get_ident(),
                    tag(args, kwargs, result) if tag is not None else None))

        return traced

    def __enter__(self) -> Tracer:
        for owner_path, attr, name, tag in SPECS:
            module_name, _, owner_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if attr is None:
                # A module-level function: rebind it wherever it was imported.
                original = getattr(module, owner_name)
                traced = self._wrapper(original, name, tag)
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, owner_name, None) is original):
                        self._restore.append((loaded, owner_name, original))
                        setattr(loaded, owner_name, traced)
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, tag))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end, "thread": span.thread,
                    "tag": span.tag,
                }) + "\n")


class Analysis:
    """Per-name and per-layer sums over a finished set of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {span.span_id: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        self.own = {span.span_id: span.duration for span in spans}
        for span in spans:
            if span.parent in self.by_id:
                self.children.setdefault(span.parent, []).append(span)
                self.own[span.parent] -= span.duration

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent not in self.by_id]

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        """Seconds inside ``name`` spans, nested re-entries counted once."""
        total = 0.0
        for span in self.named(name):
            parent = self.by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                total += span.duration
        return total

    def self_seconds(self, name: str) -> float:
        return sum(self.own[span.span_id] for span in self.named(name))

    def layer_self(self, root: Span | None = None) -> dict[str, float]:
        """Self seconds per layer over all spans, or over one span's subtree."""
        layers = dict.fromkeys(LAYERS, 0.0)
        frontier = list(self.spans) if root is None else [root]
        while frontier:
            span = frontier.pop()
            layers[span.layer] += self.own[span.span_id]
            if root is not None:
                frontier.extend(self.children.get(span.span_id, ()))
        return layers
