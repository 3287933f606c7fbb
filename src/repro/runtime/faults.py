"""Deterministic fault injection for the serving fleet.

Testing failover against *real* failures — killed replica processes,
wall-clock hangs — is slow and flaky.  This module makes every failure mode
a first-class, reproducible test input instead:

* :class:`FaultPlan` — a seeded script of faults ("fail replica-0's
  ``annotate_batch`` once with ``ConnectionResetError``", "delay 50 ms on
  the third call"), built from chainable rules;
* :class:`FaultyEndpoint` — wraps a replica endpoint (anything with
  ``request(op, payload, deadline_s=...)`` and ``close()``, i.e.
  :class:`~repro.fleet.wire.ReplicaClient`) and consults the plan before
  each request under the task key ``(replica_name, op)``.  A scripted
  ``ConnectionResetError`` or
  :class:`~repro.core.errors.ReplicaUnavailable` is indistinguishable from
  a replica dying mid-batch as the router sees it, so the fleet chaos suite
  exercises worker death and failover without killing a real process.

Faults fire at the boundary, in the calling process, and a ``delay`` rule
sleeps on an injectable clock, so no process dies and no wall clock
elapses.  ``plan.fired`` records every injection (rule index, call index,
task) so tests can assert exactly which faults fired.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

__all__ = ["FaultRule", "FaultPlan", "FaultyEndpoint"]


@dataclass
class FaultRule:
    """One scripted fault: what to inject, on which tasks, how many times.

    ``kind``
        ``"error"`` raises ``error``; ``"delay"`` sleeps ``delay_s`` on the
        injected clock, then lets the task run.
    ``times``
        How many matching calls fire this rule; ``None`` means every one
        (a permanently-broken target).
    ``match``
        Optional task predicate — e.g. ``lambda task: task[0] == "replica-1"``
        targets one replica's requests.  ``None`` matches every task.
    ``on_calls``
        Optional set of 1-based indices *within this rule's matching calls*:
        ``{3}`` fires only on the third matching call.
    """

    kind: str
    error: BaseException | None = None
    delay_s: float = 0.0
    times: int | None = 1
    match: Callable[[Any], bool] | None = None
    on_calls: frozenset[int] | None = None
    matched: int = field(default=0, repr=False)
    fired_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("error", "delay"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "error" and self.error is None:
            raise ValueError("an 'error' rule needs an exception instance")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be positive (or None for always)")

    def consume(self, task: Any) -> bool:
        """Whether this rule fires for ``task`` (advances its counters)."""
        if self.times is not None and self.fired_count >= self.times:
            return False
        if self.match is not None and not self.match(task):
            return False
        self.matched += 1
        if self.on_calls is not None and self.matched not in self.on_calls:
            return False
        self.fired_count += 1
        return True


class FaultPlan:
    """A deterministic, thread-safe script of faults to inject.

    Build it with the chainable :meth:`fail` / :meth:`delay` calls, hand it
    to a :class:`FaultyEndpoint`, and the same plan produces the same
    failures on every run.  ``seed`` is carried for
    symmetry with :class:`~repro.runtime.resilience.RuntimePolicy` — rules
    fire by counting, not by chance, so determinism never rests on it.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: list[FaultRule] = []
        self.fired: list[tuple[int, int, Any]] = []  # (rule idx, call idx, task)
        self._calls = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    def _add(self, rule: FaultRule) -> FaultPlan:
        self.rules.append(rule)
        return self

    def fail(self, error: BaseException, *, times: int | None = 1,
             match: Callable[[Any], bool] | None = None,
             on_calls: Sequence[int] | None = None) -> FaultPlan:
        """Raise ``error`` on matching calls (``times=None`` → always)."""
        return self._add(FaultRule(
            kind="error", error=error, times=times, match=match,
            on_calls=None if on_calls is None else frozenset(on_calls),
        ))

    def delay(self, seconds: float, *, times: int | None = 1,
              match: Callable[[Any], bool] | None = None,
              on_calls: Sequence[int] | None = None) -> FaultPlan:
        """Sleep ``seconds`` (on the endpoint's injectable clock) then proceed."""
        return self._add(FaultRule(
            kind="delay", delay_s=seconds, times=times, match=match,
            on_calls=None if on_calls is None else frozenset(on_calls),
        ))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def apply(self, task: Any, *, sleep: Callable[[float], None]) -> None:
        """Fire the first matching rule for ``task``, if any.

        Raises the scripted exception for ``error`` rules; calls ``sleep``
        for ``delay`` rules and returns so the task proceeds.
        """
        with self._lock:
            self._calls += 1
            call = self._calls
            fired: FaultRule | None = None
            for index, rule in enumerate(self.rules):
                if rule.consume(task):
                    self.fired.append((index, call, task))
                    fired = rule
                    break
        if fired is None:
            return
        if fired.kind == "delay":
            sleep(fired.delay_s)
            return
        raise fired.error

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls


class FaultyEndpoint:
    """Inject a :class:`FaultPlan` at the fleet's wire boundary.

    Duck-types the replica endpoint surface the
    :class:`~repro.fleet.router.FleetRouter` dispatches through.  Before
    each request the plan is consulted with the task ``(name, op)`` — so a
    rule can target one replica's ``annotate_batch`` calls specifically,
    e.g.::

        plan = FaultPlan().fail(ConnectionResetError("replica died"),
                                match=lambda t: t == ("replica-0", "annotate_batch"))

    A firing ``error`` rule raises before any bytes move, which is
    exactly what the router observes when a replica dies mid-batch; a
    ``delay`` rule stalls the request on the injectable ``sleep``.  Requests
    the plan lets through hit the real replica, so predictions stay
    bitwise-identical to an unfaulted run.
    """

    def __init__(self, inner, plan: FaultPlan, *, name: str | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self._inner = inner
        self.plan = plan
        self.name = name if name is not None else getattr(inner, "name", "endpoint")
        self._sleep = sleep

    def request(self, op: str, payload: Any = None, *,
                deadline_s: float | None = None) -> Any:
        self.plan.apply((self.name, op), sleep=self._sleep)
        return self._inner.request(op, payload, deadline_s=deadline_s)

    def close(self) -> None:
        self._inner.close()
