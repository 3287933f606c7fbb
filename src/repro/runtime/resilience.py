"""Resilience primitives for the execution runtime: deadlines, retries, breakers.

The executors in :mod:`repro.runtime.executor` are deliberately thin — they
run tasks and propagate whatever goes wrong.  This module supplies the policy
layer that production serving needs on top of them:

* :class:`RuntimePolicy` — one frozen config for per-task deadlines, bounded
  retries with exponential backoff + deterministic jitter, and circuit-breaker
  thresholds.  Serialisable (:meth:`~RuntimePolicy.as_dict` /
  :meth:`~RuntimePolicy.from_dict`) so a service bundle can carry the policy
  it was deployed with;
* :class:`CircuitBreaker` — a per-target breaker: closed while the target is
  healthy, open after ``threshold`` *consecutive* failures, half-open (one
  probe per ``reset_s``) once the cool-down elapses;
* :class:`ResilientExecutor` — wraps any
  :class:`~repro.runtime.executor.SearchExecutor` and applies all of the
  above to every task it runs, translating raw failures into the typed
  taxonomy of :mod:`repro.core.errors` (``BrokenProcessPool`` →
  :class:`~repro.core.errors.WorkerCrashed` after a pool respawn attempt,
  ``TimeoutError`` → :class:`~repro.core.errors.DeadlineExceeded`, an open
  breaker → :class:`~repro.core.errors.BreakerOpen`).

Everything time-related is injectable (``clock``/``sleep``) and every random
draw is seeded (``RuntimePolicy.jitter_seed``), so the whole failure surface
is exercisable in tests with zero wall-clock sleeps and bit-for-bit
reproducible schedules — see :mod:`repro.runtime.faults` for the matching
fault injector.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import asdict, dataclass
from collections.abc import Callable, Hashable, Sequence
from typing import Any, ClassVar

from repro.core.errors import BreakerOpen, DeadlineExceeded, WorkerCrashed

__all__ = [
    "RuntimePolicy",
    "Backoff",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientExecutor",
]


@dataclass(frozen=True)
class RuntimePolicy:
    """How hard the runtime fights for a task before giving up on it.

    ``timeout_s``
        Per-task deadline; ``None`` disables deadline enforcement.  The
        deadline applies to waiting on a task's future, so with a genuinely
        asynchronous executor (``thread``/``process``) a hung task is
        abandoned — not interrupted — after this long.
    ``max_retries``
        Bounded re-runs after the first failure (0 = fail fast).
    ``backoff_base_s`` / ``backoff_max_s`` / ``jitter_seed``
        Retry *n* sleeps ``min(max, base * 2**(n-1))`` scaled by a
        deterministic jitter factor in ``[0.5, 1.0]`` drawn from a
        ``jitter_seed``-seeded stream, so concurrent retriers de-correlate
        without making test schedules irreproducible.
    ``breaker_threshold`` / ``breaker_reset_s``
        A target's circuit breaker opens after ``breaker_threshold``
        consecutive failures and allows one half-open probe every
        ``breaker_reset_s`` seconds thereafter.
    """

    timeout_s: float | None = 30.0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter_seed: int = 0
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be non-negative")

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """A JSON-safe payload (for bundle manifests and config files)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> RuntimePolicy:
        """Rebuild a policy, ignoring unknown keys (forward compatibility)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in payload.items() if key in known})


class Backoff:
    """The policy's retry spacing as a reusable schedule.

    Attempt *n* (1-based) waits ``min(backoff_max_s, backoff_base_s *
    2**(n-1))`` scaled by a deterministic jitter factor in ``[0.5, 1.0]``
    drawn from a ``jitter_seed``-seeded stream.  One instance is one jitter
    stream: :class:`ResilientExecutor` spaces its retries with one, and the
    fleet's :class:`~repro.fleet.supervisor.ReplicaSupervisor` spaces replica
    respawns with another — same policy knobs, same arithmetic, independent
    streams.  Thread-safe.
    """

    def __init__(self, policy: RuntimePolicy):
        self.policy = policy
        self._rng_lock = threading.Lock()
        self._rng = random.Random(policy.jitter_seed)  # guarded-by: _rng_lock

    def next_s(self, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.policy.backoff_max_s,
                    self.policy.backoff_base_s * (2.0 ** (attempt - 1)))
        with self._rng_lock:
            return delay * (0.5 + 0.5 * self._rng.random())


class CircuitBreaker:
    """A consecutive-failure circuit breaker with a half-open probe.

    States (as reported by :attr:`state`):

    * ``closed`` — calls flow; ``threshold`` consecutive failures trip it;
    * ``open`` — calls are refused (:meth:`allow` returns ``False``) until
      ``reset_s`` seconds have passed on the injected ``clock``;
    * ``half_open`` — the cool-down elapsed: :meth:`allow` grants exactly one
      probe per cool-down window.  A success closes the breaker, a failure
      re-opens it (restarting the cool-down).

    Thread-safe; time comes from the injectable ``clock`` so tests can march
    a breaker through its whole life cycle without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = 3, reset_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0  # guarded-by: _lock
        self._opened_at: float | None = None  # guarded-by: _lock
        # Closed -> open transitions over the breaker's life.
        self.trips = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def _probe_ready_locked(self) -> bool:
        # The _locked suffix is the repo convention (checked by REP101):
        # callers hold self._lock.
        return (self._opened_at is not None
                and self._clock() - self._opened_at >= self.reset_s)

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return self.CLOSED
            return self.HALF_OPEN if self._probe_ready_locked() else self.OPEN

    def allow(self) -> bool:
        """Whether a call may proceed now (consumes the half-open probe)."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probe_ready_locked():
                # Grant one probe and restart the window so concurrent
                # callers don't stampede a barely-recovering target.
                self._opened_at = self._clock()
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._opened_at is not None:
                # A failed half-open probe re-opens immediately.
                self._opened_at = self._clock()
            elif self._consecutive_failures >= self.threshold:
                self._opened_at = self._clock()
                self.trips += 1


class ResilienceStats:
    """Thread-safe fault counters shared by a resilience layer and its host."""

    COUNTERS = ("retries", "timeouts", "worker_crashes", "breaker_skips",
                "fallbacks")

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self.COUNTERS, 0)  # guarded-by: _lock

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


class _ResilientFuture:
    """A lazy future: the retry/breaker machinery runs inside ``result()``.

    The inner future is submitted eagerly (so independent tasks genuinely
    overlap); deadlines, retries and fallback classification happen when the
    caller collects the result, which is also where the repo's fan-out call
    sites already block.
    """

    def __init__(self, executor: ResilientExecutor, fn, task,
                 inner: Future | None):
        self._executor = executor
        self._fn = fn
        self._task = task
        self._inner = inner
        self._resolved = False
        self._result: Any = None
        self._error: BaseException | None = None

    def _resolve(self) -> None:
        if self._resolved:
            return
        try:
            self._result = self._executor._await(self._fn, self._task, self._inner)
        # repro: allow[REP104] -- future semantics: the error is stored and
        # re-raised to the caller inside result()
        except BaseException as error:
            self._error = error
        self._resolved = True
        self._inner = None

    def result(self, timeout: float | None = None):
        self._resolve()
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None):
        self._resolve()
        return self._error

    def done(self) -> bool:
        return self._resolved or self._inner is None or self._inner.done()

    def cancel(self) -> bool:
        return False if self._resolved else (
            self._inner.cancel() if self._inner is not None else False
        )


class ResilientExecutor:
    """Deadlines, bounded retries and per-target breakers around any executor.

    Satisfies the :class:`~repro.runtime.executor.SearchExecutor` protocol, so
    call sites swap it in transparently.  ``target_of`` maps a task to the
    breaker key protecting it (e.g. the shard index of a shard-search task);
    without it every task shares one ``"default"`` breaker.

    Failure handling per task attempt:

    * future wait past ``policy.timeout_s`` (or the task raising any
      ``TimeoutError``) → counted as a timeout, surfaced as
      :class:`~repro.core.errors.DeadlineExceeded` once retries exhaust;
    * a broken pool (``BrokenExecutor``) → the inner executor's
      :meth:`recover` respawns its workers, the attempt is counted as a
      worker crash and surfaced as :class:`~repro.core.errors.WorkerCrashed`;
    * any other exception → retried as-is.

    Each failure feeds the task's breaker; once it opens, further calls fail
    fast with :class:`~repro.core.errors.BreakerOpen` (no submission at all)
    until the cool-down grants a half-open probe.  Callers that own a
    degraded path (e.g. :class:`~repro.kg.backends.ShardedBackend`'s local
    shard search) catch that and step around the executor entirely.
    """

    executor_name: ClassVar[str] = "resilient"

    def __init__(self, inner, policy: RuntimePolicy | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 target_of: Callable[[Any], Hashable] | None = None,
                 stats: ResilienceStats | None = None):
        self._inner = inner
        self.policy = policy or RuntimePolicy()
        self._clock = clock
        self._sleep = sleep
        self._target_of = target_of or (lambda task: "default")
        self.stats = stats or ResilienceStats()
        self._backoff = Backoff(self.policy)
        self._breakers_lock = threading.Lock()
        self._breakers: dict[Hashable, CircuitBreaker] = {}  # guarded-by: _breakers_lock

    # ------------------------------------------------------------------ #
    # SearchExecutor protocol
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return self._inner.workers

    def configure(self, payload: Any) -> None:
        self._inner.configure(payload)

    def map(self, fn, tasks: Sequence[Any]) -> list:
        tasks = list(tasks)
        futures = [self._submit_if_allowed(fn, task) for task in tasks]
        return [self._await(fn, task, future)
                for task, future in zip(tasks, futures, strict=True)]

    def submit(self, fn, task) -> _ResilientFuture:
        return _ResilientFuture(self, fn, task, self._submit_if_allowed(fn, task))

    def recover(self) -> None:
        self._inner.recover()

    def close(self) -> None:
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------ #
    # breakers
    # ------------------------------------------------------------------ #
    def breaker_for(self, target: Hashable) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(target)
            if breaker is None:
                breaker = CircuitBreaker(
                    threshold=self.policy.breaker_threshold,
                    reset_s=self.policy.breaker_reset_s,
                    clock=self._clock,
                )
                self._breakers[target] = breaker
            return breaker

    def breaker_states(self) -> dict[Hashable, str]:
        with self._breakers_lock:
            breakers = dict(self._breakers)
        return {target: breaker.state for target, breaker in breakers.items()}

    def breaker_trips(self) -> int:
        with self._breakers_lock:
            return sum(breaker.trips for breaker in self._breakers.values())

    # ------------------------------------------------------------------ #
    # the retry engine
    # ------------------------------------------------------------------ #
    def backoff_s(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based): capped exponential + jitter."""
        return self._backoff.next_s(attempt)

    def _submit_if_allowed(self, fn, task) -> Future | None:
        """Submit to the inner executor, or ``None`` when the breaker refuses."""
        if not self.breaker_for(self._target_of(task)).allow():
            return None
        return self._inner.submit(fn, task)

    def run(self, fn, task):
        """Run one task with the full deadline/retry/breaker treatment."""
        return self._await(fn, task, self._submit_if_allowed(fn, task))

    def _await(self, fn, task, future: Future | None):
        breaker = self.breaker_for(self._target_of(task))
        attempt = 0
        while True:
            if future is None:
                if not breaker.allow():
                    self.stats.increment("breaker_skips")
                    raise BreakerOpen(
                        f"circuit open for target {self._target_of(task)!r} "
                        f"(>= {breaker.threshold} consecutive failures)"
                    )
                future = self._inner.submit(fn, task)
            try:
                result = future.result(timeout=self.policy.timeout_s)
            except (FuturesTimeout, TimeoutError) as exc:
                future.cancel()  # best effort; a running task is abandoned
                self.stats.increment("timeouts")
                error: BaseException = DeadlineExceeded(
                    f"task exceeded its {self.policy.timeout_s}s deadline"
                )
                error.__cause__ = exc
            except DeadlineExceeded as exc:
                self.stats.increment("timeouts")
                error = exc
            except BrokenExecutor as exc:
                # The pool is dead: respawn it so the retry (or the next
                # caller) gets live workers again.
                self.stats.increment("worker_crashes")
                self._inner.recover()
                error = WorkerCrashed(f"worker pool died running {task!r}")
                error.__cause__ = exc
            # repro: allow[REP104] -- retry engine: the error feeds the
            # breaker and is raised verbatim once retries exhaust (below)
            except BaseException as exc:
                error = exc
            else:
                breaker.record_success()
                return result
            breaker.record_failure()
            if attempt >= self.policy.max_retries:
                raise error
            attempt += 1
            self.stats.increment("retries")
            self._sleep(self.backoff_s(attempt))
            future = None
