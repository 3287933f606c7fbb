"""The request-serving front door: load a bundle once, annotate at volume.

:class:`AnnotationService` wires a :class:`~repro.serve.bundle.ServiceBundle`
into the existing inference machinery:

* Part-1 candidate extraction runs against the bundled
  :class:`~repro.kg.snapshot.KGSnapshot` and the restored retrieval backend —
  no :class:`~repro.kg.graph.KnowledgeGraph` object exists in a serving
  process.  When the bundle's shard plan says so, the backend is wrapped in a
  :class:`~repro.kg.backends.ShardedBackend` and searches fan out across
  index shards;
* Part-2 inference micro-batches tables through the length-bucketed
  :meth:`~repro.core.trainer.KGLinkTrainer.predict` path under ``no_grad``;
* the Part-1 prepare stage (candidate extraction + serialisation) can be
  delegated to a :class:`~repro.runtime.SearchExecutor` — pass
  ``processes=N`` for a process pool whose workers each hold their own copy
  of the Part-1 machinery (built once from a picklable spec shipped through
  the pool initializer), or inject any executor.  ``processes=0`` (the
  default) prepares serially in-process, exactly as before;
* :meth:`AnnotationService.annotate_stream` pipelines the stages: Part-1 of
  micro-batch *i+1* is submitted to the executor while the main thread runs
  PLM inference for micro-batch *i* — with a process executor the two stages
  genuinely overlap (numpy only releases the GIL inside BLAS, so the old
  single-worker-thread overlap was partial at best);
* prepared tables (Part-1 output serialised into model-ready arrays) are
  memoised in a bounded :class:`~repro.core.cache.LRUCache` keyed by table
  content (:func:`~repro.data.table.table_key`, so a client reusing an id
  for a different table never gets another table's answer) — a warm
  request skips candidate extraction *and* serialisation — and
  :meth:`AnnotationService.stats` reports per-request telemetry
  (:class:`ServiceStats`: Part-1/encode latency, bucket fill, cache hits,
  plus fault counters: retries, timeouts, worker crashes, fallbacks);
* partial failures degrade instead of killing the request: the prepare
  executor runs behind a :class:`~repro.runtime.ResilientExecutor`
  (deadlines, bounded retries, a circuit breaker) configured by a
  :class:`~repro.runtime.RuntimePolicy`, a chunk whose dispatch still fails
  is prepared serially in-process (identical code path, so annotations stay
  bitwise-identical), and :meth:`AnnotationService.health` reports
  ``healthy`` / ``degraded`` / ``failed`` with reasons.  The policy travels
  with saved bundles as optional manifest metadata.

``annotate`` / ``annotate_batch`` may be called from several threads: the
Part-1 stage, Part-2 inference (shared model state) and every telemetry
counter are serialized by internal locks.  A single ``annotate_stream``
generator should still be consumed from one thread, but its consumer may
freely interleave ``annotate`` calls.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cache import LRUCache
from repro.core.errors import DeadlineExceeded, ServiceClosed
from repro.core.pipeline import KGCandidateExtractor
from repro.core.serialization import TableSerializer
from repro.core.trainer import KGLinkTrainer, PreparedExample
from repro.data.table import Table, table_key
from repro.kg.backends import ShardedBackend, restore_backend, shard_boundaries
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.kg.snapshot import KGSnapshot
from repro.runtime import ProcessExecutor, SearchExecutor
from repro.runtime.resilience import ResilienceStats, ResilientExecutor, RuntimePolicy
from repro.serve.bundle import ServiceBundle

__all__ = ["ServiceStats", "ServiceHealth", "AnnotationService"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotator -> serve)
    from repro.core.annotator import KGLinkConfig


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
    # Fault counters (since start or the last reset_stats), aggregated across
    # the prepare path and the sharded retrieval path.
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    fallbacks: int = 0
    breaker_trips: int = 0

    @property
    def bucket_fill(self) -> float:
        """Useful fraction of the token slots the encoder actually paid for."""
        if self.padded_tokens <= 0:
            return 1.0
        return self.useful_tokens / self.padded_tokens

    @property
    def cache_hit_rate(self) -> float:
        """Part-1 cache hit rate over the service lifetime."""
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
            "retries": int(self.retries),
            "timeouts": int(self.timeouts),
            "worker_crashes": int(self.worker_crashes),
            "fallbacks": int(self.fallbacks),
            "breaker_trips": int(self.breaker_trips),
        }

    # Backwards-compatible alias (the pre-gateway name).
    as_dict = to_dict


@dataclass(frozen=True)
class ServiceHealth:
    """One :meth:`AnnotationService.health` snapshot.

    ``status`` is ``"healthy"`` (no faults observed), ``"degraded"`` (the
    service is answering, but breakers are open and/or fallbacks, retries or
    timeouts have been counted since the last stats reset — annotations stay
    bitwise-identical, only latency suffers) or ``"failed"`` (the service
    cannot answer: it was closed, or even the serial in-process fallback
    died).  ``reasons`` says why, ``breakers`` maps each breaker target to
    its current state.
    """

    status: str
    reasons: tuple[str, ...] = ()
    breakers: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-safe snapshot (plain strings throughout).

        Breaker targets are hashables, not necessarily strings — they are
        stringified here so the payload survives ``json.dumps`` for the
        gateway's ``/healthz`` endpoint.
        """
        return {
            "status": str(self.status),
            "reasons": [str(reason) for reason in self.reasons],
            "breakers": {str(target): str(state)
                         for target, state in self.breakers.items()},
        }

    # Backwards-compatible alias (the pre-gateway name).
    as_dict = to_dict


# --------------------------------------------------------------------------- #
# the distributable Part-1 prepare stage
# --------------------------------------------------------------------------- #
@dataclass
class _PreparerSpec:
    """Everything a worker needs to rebuild the Part-1 prepare stage.

    Shipped to executor workers exactly once (through the pool initializer),
    so it must be picklable: plain configs, token lists, the compiled
    retrieval arrays and the graph snapshot — never the model, which Part 1
    does not touch.  Each worker (or worker thread) lazily builds one
    :class:`_Part1Preparer` from it and keeps it for the life of the pool.
    """

    config: KGLinkConfig
    label_vocabulary: list[str]
    tokenizer_tokens: list[str]
    linker_config: LinkerConfig
    backend_name: str
    backend_state: dict[str, np.ndarray]
    graph_view: KGSnapshot

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_thread_local", None)
        return state

    def preparer(self) -> _Part1Preparer:
        """The calling thread's preparer (built on first use).

        Per-*thread* rather than per-spec because the Part-1 machinery
        (retrieval score buffer, extractor caches) is not safe to share
        between concurrently running tasks; in a process-pool worker there
        is one task thread, so this is one preparer per process.
        """
        local = self.__dict__.get("_thread_local")
        if local is None:
            local = self.__dict__["_thread_local"] = threading.local()
        preparer = getattr(local, "value", None)
        if preparer is None:
            preparer = local.value = _Part1Preparer.from_spec(self)
        return preparer


class _Part1Preparer:
    """Stateless-by-contract Part-1 stage: tables in, prepared examples out."""

    def __init__(self, extractor: KGCandidateExtractor, trainer: KGLinkTrainer):
        self.extractor = extractor
        self.trainer = trainer

    @classmethod
    def from_spec(cls, spec: _PreparerSpec) -> _Part1Preparer:
        from repro.serve.bundle import tokenizer_from_tokens

        tokenizer = tokenizer_from_tokens(spec.tokenizer_tokens)
        backend = restore_backend(spec.backend_name, spec.backend_state)
        # Workers never nest worker pools: each worker searches its full
        # index copy serially, whatever the parent's shard plan says.
        linker = EntityLinker(
            config=replace(spec.linker_config, num_shards=1), index=backend
        )
        extractor = KGCandidateExtractor(
            spec.graph_view, spec.config.part1_config(), linker=linker
        )
        serializer = TableSerializer(tokenizer, spec.config.serializer_config())
        # Part-1 preparation needs the trainer's serialisation logic but not
        # the model, which stays in the parent process.
        trainer = KGLinkTrainer(
            None, serializer, spec.label_vocabulary, spec.config.training_config()
        )
        return cls(extractor, trainer)

    def prepare(self, tables: list[Table]) -> list[PreparedExample]:
        return [
            self.trainer.prepare_example(
                self.extractor.process_table(table), with_ground_truth=False
            )
            for table in tables
        ]


def _prepare_chunk_task(spec: _PreparerSpec, tables: list[Table]
                        ) -> list[PreparedExample]:
    """Executor task: Part-1 + serialisation for one chunk of tables."""
    return spec.preparer().prepare(tables)


def _prepare_target(task) -> str:
    """Breaker key of a prepare chunk: the whole pool is one target."""
    return "prepare"


class AnnotationService:
    """Serve column-type annotations from a loaded :class:`ServiceBundle`.

    Parameters
    ----------
    bundle:
        The serving state (usually from :meth:`load` or
        :meth:`~repro.core.annotator.KGLinkAnnotator.into_service`).
    max_batch:
        Micro-batch size for Part-2 inference (and the default chunk size of
        :meth:`annotate_stream`).
    cache_size:
        Bound of the processed-table LRU cache (``<= 0`` disables caching).
    processes:
        Size of the Part-1 process pool.  ``0`` (default) prepares serially
        in-process; ``N > 0`` creates a
        :class:`~repro.runtime.ProcessExecutor` with ``N`` workers, each
        holding its own copy of the Part-1 machinery.
    executor:
        Inject a ready :class:`~repro.runtime.SearchExecutor` for the
        prepare stage instead of ``processes`` (the service configures it
        with its prepare spec and owns it from then on).
    policy:
        The :class:`~repro.runtime.RuntimePolicy` governing deadlines,
        retries and circuit breakers on the prepare and shard-search paths.
        Defaults to the policy saved in the bundle's metadata
        (``runtime_policy``), or the stock policy when the bundle carries
        none.
    """

    def __init__(self, bundle: ServiceBundle, max_batch: int = 16,
                 cache_size: int = 1024, processes: int = 0,
                 executor: SearchExecutor | None = None,
                 policy: RuntimePolicy | None = None):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if processes < 0:
            raise ValueError("processes must be non-negative")
        self.bundle = bundle
        self.max_batch = max_batch
        if policy is None:
            saved = bundle.metadata.get("runtime_policy")
            policy = RuntimePolicy.from_dict(saved) if saved else RuntimePolicy()
        self.policy = policy
        config = bundle.config
        # The bundle's shard plan lives in linker_config: num_shards > 1 makes
        # EntityLinker wrap the restored backend in a ShardedBackend.
        self.linker = EntityLinker(config=bundle.linker_config, index=bundle.backend,
                                   runtime_policy=policy)
        self.extractor = KGCandidateExtractor(
            bundle.graph_view, config.part1_config(), linker=self.linker
        )
        self.serializer = TableSerializer(bundle.tokenizer, config.serializer_config())
        self.trainer = KGLinkTrainer(
            bundle.model, self.serializer, bundle.label_vocabulary,
            config.training_config(),
        )
        self._local_preparer = _Part1Preparer(self.extractor, self.trainer)
        bundle.model.eval()
        self._cache: LRUCache[str, PreparedExample] = LRUCache(maxsize=cache_size)
        if executor is None and processes > 0:
            executor = ProcessExecutor(max_workers=processes)
        self._prepare_executor = executor
        self._resilience = ResilienceStats()
        if executor is not None:
            executor.configure(self._preparer_spec())
            # All prepare chunks share one breaker target: the pool either
            # works or it doesn't, unlike shards which fail independently.
            self._prepare_dispatch = ResilientExecutor(
                executor, policy, target_of=_prepare_target,
                stats=self._resilience,
            )
        else:
            self._prepare_dispatch = None
        # close() drains: annotate calls register here while running, and
        # close() waits for the count to hit zero before tearing pools down.
        # (Condition's default lock is an RLock, so _ensure_open may
        # re-acquire it under _track.)
        self._lifecycle = threading.Condition()
        self._closed = False  # guarded-by: _lifecycle
        self._inflight = 0  # guarded-by: _lifecycle
        # Part-1 state (the retrieval backend's shared score buffer, the
        # extractor's caches) is not thread-safe; Part-2 shares model state.
        # The two locks serialize the respective stages so annotate()/
        # annotate_batch() are safe from any number of caller threads.
        self._prepare_lock = threading.Lock()
        self._predict_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._fatal: str | None = None  # guarded-by: _stats_lock
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
             cache_size: int = 1024, processes: int = 0,
             executor: SearchExecutor | None = None,
             policy: RuntimePolicy | None = None) -> AnnotationService:
        """Start a service from a saved bundle directory.

        No knowledge graph is constructed and no index is rebuilt: the
        retrieval backend is restored from its compiled arrays (sharded per
        the bundle's shard plan) and Part 1 queries the bundled graph
        snapshot.
        """
        return cls(ServiceBundle.load(directory), max_batch=max_batch,
                   cache_size=cache_size, processes=processes,
                   executor=executor, policy=policy)

    def save(self, directory: str | Path) -> Path:
        """Persist the underlying bundle (see :meth:`ServiceBundle.save`).

        The service's :class:`~repro.runtime.RuntimePolicy` rides along as
        optional manifest metadata (``runtime_policy``) — the bundle format
        is unchanged, and a reloading service starts under the same policy.
        """
        self.bundle.metadata["runtime_policy"] = self.policy.as_dict()
        return self.bundle.save(directory)

    def close(self) -> None:
        """Drain in-flight requests, then shut down owned worker pools.

        Closing is a two-phase drain rather than a race: the service first
        stops admitting (``annotate*`` calls arriving from here on raise
        :class:`~repro.core.errors.ServiceClosed`), then waits for every
        in-flight ``annotate``/``annotate_batch``/stream chunk to finish
        before tearing down the prepare executor and the shard pool — a
        concurrent request never sees its pool die under it.  Idempotent:
        the second and later calls return immediately (without waiting for
        the first call's drain).  Only pools this service brought into
        existence are touched: a sharded index that arrived pre-wrapped in
        the bundle (e.g. shared with a still-training annotator) keeps its
        executor running.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            while self._inflight:
                self._lifecycle.wait()
        if self._prepare_executor is not None:
            self._prepare_executor.close()
        self.linker.close()

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
    def _preparer_spec(self) -> _PreparerSpec:
        bundle = self.bundle
        return _PreparerSpec(
            config=bundle.config,
            label_vocabulary=list(bundle.label_vocabulary),
            tokenizer_tokens=list(bundle.tokenizer.vocabulary),
            linker_config=bundle.linker_config,
            backend_name=bundle.backend_name,
            backend_state=bundle.backend.export_state(),
            graph_view=KGSnapshot.from_graph(bundle.graph_view),
        )

    def _spawn_missing(self, missing: list[Table],
                       deadline_s: float | None = None):
        """Start Part-1 for uncached tables; returns a join() closure.

        With an executor the tables are split into one chunk per worker and
        submitted through the resilient dispatch (deadline, retries,
        breaker); ``join()`` collects the results in order, and a chunk whose
        dispatch still fails — or whose breaker is open — is prepared
        serially in this process instead, so one sick pool degrades latency
        without failing the request.  Without an executor (``processes=0``)
        the work happens inline and ``join()`` is immediate — same contract,
        zero indirection cost.
        """
        if not missing:
            return lambda: []
        dispatch = self._prepare_dispatch
        if dispatch is None:
            # Serial path: the same prepare stage the workers run, but
            # against this process's own extractor/serializer.
            prepared = self._local_preparer.prepare(missing)
            return lambda: prepared
        n_chunks = max(1, min(dispatch.workers, len(missing)))
        chunks = [
            missing[lo:hi]
            for lo, hi in shard_boundaries(len(missing), n_chunks)
            if hi > lo
        ]
        futures = [
            dispatch.submit(_prepare_chunk_task, chunk, deadline_s=deadline_s)
            for chunk in chunks
        ]

        def join() -> list[PreparedExample]:
            examples: list[PreparedExample] = []
            for chunk, future in zip(chunks, futures, strict=True):
                try:
                    examples.extend(future.result())
                # repro: allow[REP104] -- degraded path: the error is consumed
                # by the serial in-process fallback, which re-raises on double
                # failure (see _prepare_locally)
                except Exception as error:
                    examples.extend(self._prepare_locally(chunk, error))
            return examples

        return join

    def _prepare_locally(self, chunk: list[Table],
                         error: BaseException) -> list[PreparedExample]:
        """Serial in-process fallback for one failed prepare chunk.

        Runs the exact prepare stage the workers run (bitwise-identical
        output) under the prepare lock.  If even this fails the service has
        no way to produce the annotation: the failure is recorded so
        :meth:`health` reports ``failed``, and the error propagates.
        """
        self._resilience.increment("fallbacks")
        try:
            with self._prepare_lock:
                return self._local_preparer.prepare(chunk)
        except Exception as fallback_error:  # noqa: BLE001 - now truly down
            with self._stats_lock:
                self._fatal = (
                    f"in-process prepare fallback failed "
                    f"({type(fallback_error).__name__}: {fallback_error}) after "
                    f"executor failure ({type(error).__name__}: {error})"
                )
            raise

    def _prepare_pending(self, tables: list[Table],
                         deadline_s: float | None = None):
        """Begin preparing ``tables``; returns a closure yielding the results.

        The cache partition and the fan-out happen now (under the prepare
        lock); the returned ``resolve()`` blocks until the missing tables are
        ready, installs them in the cache and returns examples aligned with
        ``tables``.  ``annotate_stream`` calls ``resolve()`` only after
        launching PLM inference for the previous micro-batch, which is what
        overlaps the two stages.
        """
        start = time.perf_counter()
        slots: list[PreparedExample | None] = [None] * len(tables)
        missing_tables: list[Table] = []
        missing_keys: list[object] = []
        positions_by_key: dict[object, list[int]] = {}
        # Tables are deduplicated within a request, and cached, by content.
        # With caching disabled the service promises independent processing
        # per table, so each position becomes its own key.
        dedup = self._cache.maxsize > 0
        with self._prepare_lock:
            for position, table in enumerate(tables):
                key: object = table_key(table) if dedup else position
                if key in positions_by_key:  # duplicate within request
                    positions_by_key[key].append(position)
                    continue
                cached = self._cache.get(key)
                if cached is None:
                    positions_by_key[key] = [position]
                    missing_tables.append(table)
                    missing_keys.append(key)
                else:
                    slots[position] = cached
            join = self._spawn_missing(missing_tables, deadline_s=deadline_s)
        # Only time actually spent in Part 1 counts: the partition/spawn work
        # above plus the blocking part of resolve() below.  Timing the whole
        # spawn-to-resolve span would charge Part 1 for whatever the caller
        # did in between — in annotate_stream, the previous batch's PLM run.
        spawn_seconds = time.perf_counter() - start

        def resolve() -> list[PreparedExample]:
            resolve_start = time.perf_counter()
            fresh = join()
            if fresh:
                with self._prepare_lock:
                    for key, example in zip(missing_keys, fresh, strict=True):
                        self._cache.put(key, example)
                        for position in positions_by_key[key]:
                            slots[position] = example
            with self._stats_lock:
                self._part1_seconds += spawn_seconds + (
                    time.perf_counter() - resolve_start
                )
            return slots

        return resolve

    def _prepare(self, tables: list[Table],
                 deadline_s: float | None = None) -> list[PreparedExample]:
        """Part 1 + serialisation for ``tables``, through the bounded LRU cache.

        The cache holds the fully *prepared* example (model-ready arrays),
        so a warm table costs one dict lookup before inference.
        """
        return self._prepare_pending(tables, deadline_s=deadline_s)()

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
        after Part-1 prepare, after PLM inference — and threaded into the
        prepare dispatch so the resilience layer's per-task waits and retry
        backoff never outlive the request (see
        :meth:`~repro.runtime.ResilientExecutor.submit`).  A blown budget
        raises :class:`~repro.core.errors.DeadlineExceeded`; the worst-case
        overshoot between two checks is one PLM micro-batch or one
        policy-bounded prepare task, never an unbounded hang.
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
            prepared = self._prepare(tables, deadline_s=deadline_s)
            self._check_deadline(deadline_s, "after Part-1 prepare")
            predictions = self._predict(prepared)
            self._check_deadline(deadline_s, "after PLM inference")
            return predictions

    def annotate_stream(self, tables: Iterable[Table],
                        max_batch: int | None = None) -> Iterator[list[str]]:
        """Annotate a (possibly unbounded) stream of tables lazily, in order.

        Tables are consumed in micro-batches of ``max_batch``.  Part-1
        candidate extraction for the *next* micro-batch is handed to the
        prepare executor before the PLM runs the current one, so with
        ``processes > 0`` (or an injected ``thread`` executor) the two
        stages overlap; with the default serial setup the stages simply
        alternate.  Results are yielded per table, in input order,
        regardless of the micro-batch boundaries.
        """
        # Validate eagerly (this is not itself a generator function) so a
        # closed service or bad batch size raises at call time, not on the
        # first next().
        self._ensure_open()
        size = max_batch or self.max_batch
        if size <= 0:
            raise ValueError("max_batch must be positive")
        return self._annotate_stream(iter(tables), size)

    def _annotate_stream(self, iterator: Iterator[Table],
                         size: int) -> Iterator[list[str]]:
        with self._stats_lock:
            self._requests += 1
        chunk = list(islice(iterator, size))
        pending = self._prepare_pending(chunk) if chunk else None
        while pending is not None:
            # Each chunk holds an in-flight slot only while it computes:
            # close() waits for the current chunk, and the next loop
            # iteration raises ServiceClosed instead of racing teardown.
            with self._track():
                prepared = pending()
                # Start Part 1 of the next chunk before predicting this one.
                next_chunk = list(islice(iterator, size))
                pending = self._prepare_pending(next_chunk) if next_chunk else None
                with self._stats_lock:
                    self._tables += len(prepared)
                predictions = self._predict(prepared)
            yield from predictions

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _resilience_snapshot(self) -> tuple[dict[str, int], dict[str, str], int]:
        """Aggregate fault counters, breaker states and trips over both paths.

        The prepare path contributes the service's own
        :class:`~repro.runtime.ResilienceStats` and dispatch breakers; the
        retrieval path contributes the sharded index's (when the linker's
        index is a :class:`~repro.kg.backends.ShardedBackend`).  Breaker keys
        are namespaced (``prepare:…`` / ``shard:…``) so one snapshot reads
        unambiguously.
        """
        counters = self._resilience.snapshot()
        breakers: dict[str, str] = {}
        trips = 0
        if self._prepare_dispatch is not None:
            breakers.update({
                f"prepare:{target}": state
                for target, state in self._prepare_dispatch.breaker_states().items()
            })
            trips += self._prepare_dispatch.breaker_trips()
        index = self.linker.index
        if isinstance(index, ShardedBackend):
            shard = index.resilience_stats()
            for name, value in shard["counters"].items():
                counters[name] = counters.get(name, 0) + value
            breakers.update({
                f"shard:{target}": state
                for target, state in shard["breakers"].items()
            })
            trips += shard["breaker_trips"]
        return counters, breakers, trips

    def stats(self) -> ServiceStats:
        """Cumulative telemetry since start (or the last :meth:`reset_stats`)."""
        info = self._cache.cache_info()
        counters, _, trips = self._resilience_snapshot()
        with self._stats_lock:
            return ServiceStats(
                requests=self._requests,
                tables=self._tables,
                part1_seconds=self._part1_seconds,
                encode_seconds=self._encode_seconds,
                batches=self._batches,
                useful_tokens=self._useful_tokens,
                padded_tokens=self._padded_tokens,
                cache_hits=info.hits,
                cache_misses=info.misses,
                cache_size=info.currsize,
                retries=counters["retries"],
                timeouts=counters["timeouts"],
                worker_crashes=counters["worker_crashes"],
                fallbacks=counters["fallbacks"],
                breaker_trips=trips,
            )

    def health(self) -> ServiceHealth:
        """One operational snapshot: ``healthy`` / ``degraded`` / ``failed``.

        ``failed`` means the service cannot answer (closed, or even the
        serial in-process fallback died).  ``degraded`` means requests are
        being answered — with bitwise-identical annotations — but the fault
        machinery has been doing work since the last :meth:`reset_stats`:
        open/half-open breakers, fallback activations, retries or timeouts.
        """
        counters, breakers, _ = self._resilience_snapshot()
        with self._lifecycle:
            closed = self._closed
        if closed:
            return ServiceHealth("failed", ("service closed",), breakers)
        with self._stats_lock:
            fatal = self._fatal
        if fatal is not None:
            return ServiceHealth("failed", (fatal,), breakers)
        reasons: list[str] = []
        not_closed = {
            target: state for target, state in breakers.items()
            if state != "closed"
        }
        for target, state in sorted(not_closed.items()):
            reasons.append(f"breaker {target} is {state}")
        for name in ("fallbacks", "worker_crashes", "timeouts", "retries"):
            if counters.get(name, 0):
                reasons.append(f"{counters[name]} {name.replace('_', ' ')}")
        status = "degraded" if reasons else "healthy"
        return ServiceHealth(status, tuple(reasons), breakers)

    def reset_stats(self) -> None:
        """Zero all telemetry counters (the cache contents stay warm).

        Also clears the fault counters on both resilience paths, so a
        service whose breakers have closed again reports ``healthy`` once
        the incident is acknowledged.  Breaker *states* and lifetime trip
        totals are live values and persist.
        """
        with self._stats_lock:
            self._requests = 0
            self._tables = 0
            self._part1_seconds = 0.0
            self._encode_seconds = 0.0
            self._batches = 0
            self._useful_tokens = 0
            self._padded_tokens = 0
        self._cache.reset_counters()
        self._resilience.reset()
        index = self.linker.index
        if isinstance(index, ShardedBackend):
            index.reset_resilience_stats()
