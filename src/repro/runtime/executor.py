"""Pluggable execution backends for fan-out work (the ``SearchExecutor`` seam).

The serving layer's fan-out point is sharded retrieval (``ShardedBackend``
sends every query batch to K index shards): "apply a pure function to
independent tasks against some large shared state", where the execution
strategy should be configuration rather than code — one process per core on
a serving box, plain threads where memory is tight, strictly serial in tests
and notebooks.

:class:`SearchExecutor` is that seam:

* ``configure(payload)`` installs the shared state (shard arrays) where task
  functions can reach it — in-process for ``serial`` and ``thread``, via the
  pool initializer for ``process`` (so the payload crosses the process
  boundary **once**, not per task);
* ``map(fn, tasks)`` applies ``fn(payload, task)`` to every task and returns
  results in task order;
* ``submit(fn, task)`` is the async variant: the sharded index submits every
  shard's search before collecting any, so the shards run concurrently;
* ``recover()`` discards dead workers so the next call gets a live pool — a
  no-op for ``serial``, a pool respawn for ``thread``/``process``.  The
  resilience layer (:mod:`repro.runtime.resilience`) calls it when it catches
  a ``BrokenExecutor``.

``fn`` must be a **module-level function** and ``payload``/``tasks``/results
must be picklable, because the ``process`` executor ships them to worker
processes.  The ``serial`` and ``thread`` executors impose no such limits but
sharing one contract keeps every call site executor-agnostic.

Executors register under a name (``serial``, ``thread``, ``process``) so
configuration files and :class:`~repro.kg.linker.LinkerConfig` can select one
the same way retrieval backends are selected via
:func:`~repro.kg.backends.create_backend`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from collections.abc import Callable, Sequence
from typing import Any, ClassVar, Protocol, runtime_checkable

from repro.core.errors import WorkerCrashed

__all__ = [
    "SearchExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "register_executor",
    "create_executor",
    "available_executors",
    "default_worker_count",
]


def default_worker_count(cap: int = 8) -> int:
    """Worker count honouring CPU affinity (containers often restrict it)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1
    return max(1, min(cap, cpus))


@runtime_checkable
class SearchExecutor(Protocol):
    """Run ``fn(payload, task)`` over independent tasks, results in task order."""

    executor_name: ClassVar[str]

    @property
    def workers(self) -> int: ...

    def configure(self, payload: Any) -> None: ...

    def map(self, fn: Callable[[Any, Any], Any], tasks: Sequence[Any]) -> list: ...

    def submit(self, fn: Callable[[Any, Any], Any], task: Any) -> Future: ...

    def recover(self) -> None: ...

    def close(self) -> None: ...


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_EXECUTORS: dict[str, type] = {}


def register_executor(cls):
    """Register an executor class under its ``executor_name`` (decorator-friendly)."""
    name = getattr(cls, "executor_name", None)
    if not name:
        raise ValueError(f"{cls!r} must define a non-empty executor_name")
    _EXECUTORS[name] = cls
    return cls


def create_executor(name: str, **kwargs) -> SearchExecutor:
    """Instantiate a registered executor by name (kwargs go to its constructor)."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered: {sorted(_EXECUTORS)}"
        ) from None
    return cls(**kwargs)


def available_executors() -> list[str]:
    """The registered executor names."""
    return sorted(_EXECUTORS)


# --------------------------------------------------------------------------- #
# implementations
# --------------------------------------------------------------------------- #
@register_executor
class SerialExecutor:
    """Run every task inline on the calling thread (the test/debug default).

    ``submit`` executes eagerly and returns an already-resolved future, so
    fan-out call sites degrade to strict sequence with no extra threads.
    """

    executor_name: ClassVar[str] = "serial"

    def __init__(self, max_workers: int = 1):
        self._payload: Any = None

    @property
    def workers(self) -> int:
        return 1

    def configure(self, payload: Any) -> None:
        self._payload = payload

    def map(self, fn, tasks) -> list:
        return [fn(self._payload, task) for task in tasks]

    def submit(self, fn, task) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(self._payload, task))
        # repro: allow[REP104] -- mirrors pool future semantics: the error is
        # delivered to the caller through future.result(), not swallowed
        except BaseException as error:
            future.set_exception(error)
        return future

    def recover(self) -> None:
        pass  # no workers to lose

    def close(self) -> None:
        self._payload = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@register_executor
class ThreadExecutor:
    """A thread pool: cheap fan-out sharing the caller's address space.

    Python threads only run concurrently where the work releases the GIL
    (BLAS, I/O), so this executor is the middle ground: zero serialization
    cost and shared memory, but partial parallelism for pure-numpy or
    pure-Python tasks — use ``process`` for those.
    """

    executor_name: ClassVar[str] = "thread"

    def __init__(self, max_workers: int | None = None):
        self._workers = default_worker_count() if max_workers is None else int(max_workers)
        if self._workers <= 0:
            raise ValueError("max_workers must be positive")
        self._payload: Any = None
        self._pool: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def configure(self, payload: Any) -> None:
        self._payload = payload

    def map(self, fn, tasks) -> list:
        tasks = list(tasks)
        if len(tasks) <= 1:
            return [fn(self._payload, task) for task in tasks]
        pool = self._ensure_pool()
        return list(pool.map(fn, [self._payload] * len(tasks), tasks))

    def submit(self, fn, task) -> Future:
        return self._ensure_pool().submit(fn, self._payload, task)

    def recover(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None  # payload survives; next call respawns the pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._payload = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


# Worker-process state for ProcessExecutor.  One payload per worker process,
# installed exactly once by the pool initializer; task functions receive it as
# their first argument just like the in-process executors pass their own.
_PROCESS_PAYLOAD: Any = None


def _init_process_worker(payload: Any) -> None:
    global _PROCESS_PAYLOAD
    _PROCESS_PAYLOAD = payload


def _run_process_task(fn: Callable[[Any, Any], Any], task: Any):
    return fn(_PROCESS_PAYLOAD, task)


@register_executor
class ProcessExecutor:
    """A process pool: true parallelism for GIL-bound work.

    The payload installed by :meth:`configure` is shipped to each worker once
    through the pool initializer (free under ``fork``, one pickle per worker
    under ``spawn``); per-task traffic is only ``(fn, task)`` out and the
    result back.  Reconfiguring tears the pool down so workers never serve a
    stale payload.

    Worker supervision: a dead worker poisons a ``ProcessPoolExecutor`` for
    good (every call raises ``BrokenProcessPool``), so ``map`` respawns the
    pool and re-runs the whole task batch up to ``max_respawns`` times before
    surfacing :class:`~repro.core.errors.WorkerCrashed` — tasks here are pure
    functions of ``(payload, task)``, so a re-run is safe.  ``submit`` leaves
    that decision to the caller (the resilience layer retries per task);
    :meth:`recover` is the shared respawn primitive.
    """

    executor_name: ClassVar[str] = "process"

    def __init__(self, max_workers: int | None = None, max_respawns: int = 1):
        self._workers = default_worker_count() if max_workers is None else int(max_workers)
        if self._workers <= 0:
            raise ValueError("max_workers must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        self.max_respawns = max_respawns
        self._payload: Any = None
        self._pool: ProcessPoolExecutor | None = None
        self._pending_lock = threading.Lock()
        self._pending: set[Future] = set()  # guarded-by: _pending_lock

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_init_process_worker,
                initargs=(self._payload,),
            )
        return self._pool

    def _track(self, future: Future) -> Future:
        with self._pending_lock:
            self._pending.add(future)
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, future: Future) -> None:
        with self._pending_lock:
            self._pending.discard(future)

    def _teardown(self, *, wait: bool) -> None:
        """Cancel what has not started, then shut the pool down.

        Cancelling pending futures first means ``shutdown(wait=True)`` only
        waits for tasks already on a worker, so interpreter exit cannot
        deadlock behind a deep queue.
        """
        with self._pending_lock:
            pending = list(self._pending)
        for future in pending:
            future.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def configure(self, payload: Any) -> None:
        self._teardown(wait=True)
        self._payload = payload

    def map(self, fn, tasks) -> list:
        tasks = list(tasks)
        if not tasks:
            return []
        respawns = 0
        while True:
            pool = self._ensure_pool()
            try:
                return list(pool.map(_run_process_task, [fn] * len(tasks), tasks))
            except BrokenExecutor as error:
                if respawns >= self.max_respawns:
                    raise WorkerCrashed(
                        f"worker pool died {respawns + 1} time(s) running a "
                        f"batch of {len(tasks)} task(s); giving up"
                    ) from error
                respawns += 1
                self.recover()

    def submit(self, fn, task) -> Future:
        return self._track(self._ensure_pool().submit(_run_process_task, fn, task))

    def recover(self) -> None:
        """Replace a (presumed broken) pool; the payload is reinstalled lazily."""
        self._teardown(wait=False)

    def close(self) -> None:
        self._teardown(wait=True)
        self._payload = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
