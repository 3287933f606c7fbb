"""Resilience primitives for the serving fleet: policy, backoff, breakers.

* :class:`RuntimePolicy` — one frozen config for per-request deadlines,
  exponential backoff + deterministic jitter, and circuit-breaker
  thresholds;
* :class:`Backoff` — the policy's retry spacing (replica respawns) as a
  reusable, seeded jitter stream;
* :class:`CircuitBreaker` — a per-target breaker: closed while the target is
  healthy, open after ``threshold`` *consecutive* failures, half-open (one
  probe per ``reset_s``) once the cool-down elapses.

The fleet's :class:`~repro.fleet.router.FleetRouter` keeps one breaker per
replica and its :class:`~repro.fleet.supervisor.ReplicaSupervisor` spaces
respawns with a :class:`Backoff`.  Everything time-related is injectable
(``clock``) and every random draw is seeded (``RuntimePolicy.jitter_seed``),
so the whole failure surface is exercisable in tests with zero wall-clock
sleeps and bit-for-bit reproducible schedules — see
:mod:`repro.runtime.faults` for the matching fault injector.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable

__all__ = [
    "RuntimePolicy",
    "Backoff",
    "CircuitBreaker",
]


@dataclass(frozen=True)
class RuntimePolicy:
    """How hard the fleet fights for a request before giving up on it.

    ``timeout_s``
        Per-request deadline; ``None`` leaves the caller's default budget
        in charge.  A request still running past it is abandoned, not
        interrupted.
    ``backoff_base_s`` / ``backoff_max_s`` / ``jitter_seed``
        Retry *n* (a replica respawn) sleeps ``min(max, base * 2**(n-1))``
        scaled by a deterministic jitter factor in ``[0.5, 1.0]`` drawn from
        a ``jitter_seed``-seeded stream, so concurrent retriers de-correlate
        without making test schedules irreproducible.
    ``breaker_threshold`` / ``breaker_reset_s``
        A target's circuit breaker opens after ``breaker_threshold``
        consecutive failures and allows one half-open probe every
        ``breaker_reset_s`` seconds thereafter.
    """

    timeout_s: float | None = 30.0
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter_seed: int = 0
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be non-negative")


class Backoff:
    """The policy's retry spacing as a reusable schedule.

    Attempt *n* (1-based) waits ``min(backoff_max_s, backoff_base_s *
    2**(n-1))`` scaled by a deterministic jitter factor in ``[0.5, 1.0]``
    drawn from a ``jitter_seed``-seeded stream.  One instance is one jitter
    stream: the fleet's :class:`~repro.fleet.supervisor.ReplicaSupervisor`
    spaces replica respawns with one.  Thread-safe.
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
