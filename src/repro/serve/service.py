"""The request-serving front door: load a bundle once, annotate at volume.

:class:`AnnotationService` wires a :class:`~repro.serve.bundle.ServiceBundle`
into the existing inference machinery:

* Part-1 candidate extraction runs against the bundled
  :class:`~repro.kg.snapshot.KGSnapshot` and the restored BM25 index — no
  :class:`~repro.kg.graph.KnowledgeGraph` object exists in a serving
  process.  Part 1 runs per chunk of tables: the cell mentions of a chunk
  that the linker has not seen are scored in one batched search of that
  single in-process index;
* Part-2 inference micro-batches tables through the length-bucketed
  :meth:`~repro.core.trainer.KGLinkTrainer.predict` path under ``no_grad``;
* the Part-1 prepare stage (candidate extraction + serialisation) runs
  serially in the calling process.  One service is one process's worth of
  work: to use more processes, run replicas behind a
  :class:`~repro.fleet.FleetRouter`;
* prepared tables (Part-1 output serialised into model-ready arrays) are
  memoised in a :class:`~repro.core.cache.SharedResultsCache` keyed by
  table content (:func:`~repro.data.table.table_key`, so a client reusing
  an id for a different table never gets another table's answer).  A warm
  table skips candidate extraction *and* serialisation but still runs the
  PLM; a table repeated within a request, or requested by two threads at
  once, is prepared once.  :meth:`AnnotationService.stats` reports
  per-request telemetry
  (:class:`ServiceStats`: Part-1/encode latency, bucket fill, cache hits),
  and :meth:`AnnotationService.health` reports ``healthy`` or, once
  closed, ``failed``.  Fault handling (deadlines on the wire, failover,
  per-replica circuit breakers, respawns) belongs to the fleet.

``annotate`` / ``annotate_batch`` may be called from several threads: the
Part-1 stage, Part-2 inference (shared model state) and every telemetry
counter are serialized by internal locks.

This is also the inference path of
:class:`~repro.core.annotator.KGLinkAnnotator`: its ``annotate``,
``predict_corpus`` and ``evaluate`` call a service built by
:meth:`~repro.core.annotator.KGLinkAnnotator.into_service`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable

from repro.core.cache import SharedResultsCache
from repro.core.errors import DeadlineExceeded, ServiceClosed
from repro.core.pipeline import KGCandidateExtractor
from repro.core.serialization import TableSerializer
from repro.core.trainer import KGLinkTrainer, PreparedExample
from repro.data.table import Table
from repro.kg.linker import EntityLinker
from repro.serve.bundle import ServiceBundle

__all__ = ["ServiceStats", "ServiceHealth", "AnnotationService"]


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service's cumulative telemetry counters."""

    requests: int
    tables: int
    part1_seconds: float
    encode_seconds: float
    batches: int
    useful_tokens: int
    padded_tokens: int
    cache_hits: int
    cache_misses: int
    cache_size: int

    @property
    def bucket_fill(self) -> float:
        """Useful fraction of the token slots the encoder actually paid for."""
        if self.padded_tokens <= 0:
            return 1.0
        return self.useful_tokens / self.padded_tokens

    @property
    def cache_hit_rate(self) -> float:
        """Prepared-example cache hit rate over the service lifetime.

        ``cache_hits`` counts tables answered from the cache *or* from
        another request's in-flight preparation; ``cache_misses`` counts the
        tables this service prepared.
        """
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Counters plus derived rates as JSON-safe plain types.

        Every value is a built-in ``int`` or ``float``, so the payload can go
        straight through ``json.dumps`` — the gateway's ``/stats`` endpoint
        (and any external scraper) uses this instead of reaching into the
        dataclass.
        """
        return {
            "requests": int(self.requests),
            "tables": int(self.tables),
            "part1_seconds": float(self.part1_seconds),
            "encode_seconds": float(self.encode_seconds),
            "batches": int(self.batches),
            "useful_tokens": int(self.useful_tokens),
            "padded_tokens": int(self.padded_tokens),
            "bucket_fill": float(self.bucket_fill),
            "cache_hits": int(self.cache_hits),
            "cache_misses": int(self.cache_misses),
            "cache_hit_rate": float(self.cache_hit_rate),
            "cache_size": int(self.cache_size),
            # Always 0 (a service has no retry or fallback path); kept
            # because kgbench/layers.py reads both keys.
            "retries": 0,
            "fallbacks": 0,
        }


@dataclass(frozen=True)
class ServiceHealth:
    """One :meth:`AnnotationService.health` snapshot.

    ``status`` is ``"healthy"`` (the service answers) or ``"failed"`` (the
    service was closed and cannot answer); ``reasons`` says why.
    """

    status: str
    reasons: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """A JSON-safe snapshot for the gateway's ``/healthz`` endpoint."""
        return {
            "status": str(self.status),
            "reasons": [str(reason) for reason in self.reasons],
        }


class AnnotationService:
    """Serve column-type annotations from a loaded :class:`ServiceBundle`.

    Parameters
    ----------
    bundle:
        The serving state (usually from :meth:`load` or
        :meth:`~repro.core.annotator.KGLinkAnnotator.into_service`).
    max_batch:
        Micro-batch size for Part-2 inference.
    cache_size:
        Bound of the prepared-example cache (``<= 0`` stores nothing;
        identical tables in flight at once are still prepared once).
    """

    def __init__(self, bundle: ServiceBundle, max_batch: int = 16,
                 cache_size: int = 1024):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.bundle = bundle
        self.max_batch = max_batch
        config = bundle.config
        self.linker = EntityLinker(config=bundle.linker_config, index=bundle.backend)
        self.extractor = KGCandidateExtractor(
            bundle.graph_view, config.part1_config(), linker=self.linker
        )
        self.serializer = TableSerializer(bundle.tokenizer, config.serializer_config())
        self.trainer = KGLinkTrainer(
            bundle.model, self.serializer, bundle.label_vocabulary,
            config.training_config(),
        )
        bundle.model.eval()
        self._cache = SharedResultsCache(maxsize=cache_size)
        # close() drains: annotate calls register here while running, and
        # close() waits for the count to hit zero before returning.
        # (Condition's default lock is an RLock, so _ensure_open may
        # re-acquire it under _track.)
        self._lifecycle = threading.Condition()
        self._closed = False  # guarded-by: _lifecycle
        self._inflight = 0  # guarded-by: _lifecycle
        # Part-1 state (the linker's and the extractor's memos) is not
        # thread-safe; Part-2 shares model state.
        # The two locks serialize the respective stages so annotate()/
        # annotate_batch() are safe from any number of caller threads.
        self._prepare_lock = threading.Lock()
        self._predict_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests = 0  # guarded-by: _stats_lock
        self._tables = 0  # guarded-by: _stats_lock
        self._part1_seconds = 0.0  # guarded-by: _stats_lock
        self._encode_seconds = 0.0  # guarded-by: _stats_lock
        self._batches = 0  # guarded-by: _stats_lock
        self._useful_tokens = 0  # guarded-by: _stats_lock
        self._padded_tokens = 0  # guarded-by: _stats_lock

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, directory: str | Path, max_batch: int = 16,
             cache_size: int = 1024) -> AnnotationService:
        """Start a service from a saved bundle directory.

        No knowledge graph is constructed and no index is rebuilt: the
        BM25 index is restored from its compiled arrays and Part 1
        queries the bundled graph snapshot.
        """
        return cls(ServiceBundle.load(directory), max_batch=max_batch,
                   cache_size=cache_size)

    def save(self, directory: str | Path) -> Path:
        """Persist the underlying bundle (see :meth:`ServiceBundle.save`)."""
        return self.bundle.save(directory)

    def close(self) -> None:
        """Stop admitting requests, then wait for in-flight ones to finish.

        Closing is a two-phase drain rather than a race: the service first
        stops admitting (``annotate*`` calls arriving from here on raise
        :class:`~repro.core.errors.ServiceClosed`), then waits for every
        in-flight ``annotate``/``annotate_batch`` call to finish.
        Idempotent: the second and later calls return immediately (without
        waiting for the first call's drain).
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            while self._inflight:
                self._lifecycle.wait()

    def __enter__(self) -> AnnotationService:
        return self

    def __exit__(self, *exc_info) -> None:
        # Close and nothing else: any in-flight exception propagates.
        self.close()

    def _ensure_open(self) -> None:
        # The lifecycle lock is re-entrant (Condition wraps an RLock), so
        # this is safe both from bare call sites and from under _track().
        with self._lifecycle:
            if self._closed:
                raise ServiceClosed(
                    "this AnnotationService is closed; load the bundle into a "
                    "new service to keep annotating"
                )

    @contextmanager
    def _track(self):
        """Hold one in-flight slot for the duration of an annotate call.

        Entering raises :class:`~repro.core.errors.ServiceClosed` once
        :meth:`close` has begun; leaving wakes a draining ``close()`` when
        the last in-flight call finishes.
        """
        with self._lifecycle:
            self._ensure_open()
            self._inflight += 1
        try:
            yield
        finally:
            with self._lifecycle:
                self._inflight -= 1
                if not self._inflight:
                    self._lifecycle.notify_all()

    @staticmethod
    def _check_deadline(deadline_s: float | None, stage: str) -> None:
        if deadline_s is not None and time.monotonic() > deadline_s:
            raise DeadlineExceeded(f"request budget exhausted {stage}")
    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _prepare(self, tables: list[Table]) -> list[PreparedExample]:
        """Part 1 + serialisation for ``tables``: the cache's lead tables."""
        with self._prepare_lock:
            return [
                self.trainer.prepare_example(processed, with_ground_truth=False)
                for processed in self.extractor.process_tables(tables)
            ]

    def _predict(self, examples: list[PreparedExample]) -> list[list[str]]:
        """Part 2 for prepared examples (micro-batched, length-bucketed)."""
        if not examples:
            return []
        start = time.perf_counter()
        with self._predict_lock:
            predictions = self.trainer.predict(examples, batch_size=self.max_batch)
            stats = self.trainer.last_bucket_stats or {}
        with self._stats_lock:
            self._encode_seconds += time.perf_counter() - start
            self._batches += int(stats.get("n_batches", 0))
            self._useful_tokens += int(stats.get("useful_tokens", 0))
            self._padded_tokens += int(stats.get("padded_tokens", 0))
        return predictions

    # ------------------------------------------------------------------ #
    # the serving API
    # ------------------------------------------------------------------ #
    def annotate(self, table: Table, budget_s: float | None = None) -> list[str]:
        """Predict a semantic type for every column of one table."""
        return self.annotate_batch([table], budget_s=budget_s)[0]

    def annotate_batch(self, tables: Iterable[Table],
                       budget_s: float | None = None) -> list[list[str]]:
        """Annotate many tables in one request; results align with input.

        ``budget_s`` is an optional per-request deadline (seconds of wall
        clock from now).  It is checked at every stage boundary — admission,
        after Part-1 prepare, after PLM inference — and a blown budget
        raises :class:`~repro.core.errors.DeadlineExceeded`; the worst-case
        overshoot between two checks is one stage of this request, never an
        unbounded hang.
        """
        deadline_s = None if budget_s is None else time.monotonic() + budget_s
        with self._track():
            self._check_deadline(deadline_s, "at admission")
            tables = list(tables)
            with self._stats_lock:
                self._requests += 1
                self._tables += len(tables)
            if not tables:
                return []
            start = time.perf_counter()
            prepared = self._cache.resolve(tables, self._prepare,
                                           deadline_s=deadline_s)
            with self._stats_lock:
                self._part1_seconds += time.perf_counter() - start
            self._check_deadline(deadline_s, "after Part-1 prepare")
            predictions = self._predict(prepared)
            self._check_deadline(deadline_s, "after PLM inference")
            return predictions

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Cumulative telemetry since start."""
        cache = self._cache.stats()
        with self._stats_lock:
            return ServiceStats(
                requests=self._requests,
                tables=self._tables,
                part1_seconds=self._part1_seconds,
                encode_seconds=self._encode_seconds,
                batches=self._batches,
                useful_tokens=self._useful_tokens,
                padded_tokens=self._padded_tokens,
                cache_hits=cache["hits"] + cache["coalesced"],
                cache_misses=cache["misses"],
                cache_size=cache["size"],
            )

    def health(self) -> ServiceHealth:
        """One operational snapshot: ``healthy``, or ``failed`` once closed."""
        with self._lifecycle:
            if self._closed:
                return ServiceHealth("failed", ("service closed",))
        return ServiceHealth("healthy")
