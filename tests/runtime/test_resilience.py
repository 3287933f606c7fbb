"""Tests of the resilience primitives: deterministic chaos, no sleeps.

:class:`~repro.runtime.RuntimePolicy`, the seeded
:class:`~repro.runtime.Backoff`, the :class:`~repro.runtime.CircuitBreaker`
and the :class:`~repro.runtime.FaultPlan` script that the fleet chaos suite
injects through :class:`~repro.runtime.FaultyEndpoint`.  Everything runs on
an injected clock or sleep, so the suite stays fast and bit-for-bit
repeatable.
"""

from __future__ import annotations

import pytest

from repro.runtime import Backoff, CircuitBreaker, FaultPlan, RuntimePolicy


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# RuntimePolicy
# --------------------------------------------------------------------------- #
class TestRuntimePolicy:
    @pytest.mark.parametrize("bad", [
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"backoff_max_s": -0.1},
        {"backoff_base_s": -0.1},
        {"breaker_threshold": 0},
        {"breaker_reset_s": -1.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RuntimePolicy(**bad)

    def test_none_timeout_disables_deadlines(self):
        assert RuntimePolicy(timeout_s=None).timeout_s is None


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_fail_fires_exactly_times(self):
        plan = FaultPlan().fail(RuntimeError("boom"), times=2)
        hits = 0
        for task in range(5):
            try:
                plan.apply(task, sleep=lambda s: None)
            except RuntimeError:
                hits += 1
        assert hits == 2
        assert [call for _, call, _ in plan.fired] == [1, 2]

    def test_times_none_fires_forever(self):
        plan = FaultPlan().fail(RuntimeError("boom"), times=None)
        for task in range(4):
            with pytest.raises(RuntimeError):
                plan.apply(task, sleep=lambda s: None)

    def test_match_targets_specific_tasks(self):
        plan = FaultPlan().fail(
            ValueError("replica-2 down"), times=None,
            match=lambda task: task[0] == "replica-2",
        )
        plan.apply(("replica-0", "q"), sleep=lambda s: None)  # others untouched
        with pytest.raises(ValueError):
            plan.apply(("replica-2", "q"), sleep=lambda s: None)

    def test_on_calls_hits_the_nth_matching_call(self):
        plan = FaultPlan().fail(RuntimeError("third only"), on_calls=[3])
        outcomes = []
        for task in range(5):
            try:
                plan.apply(task, sleep=lambda s: None)
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault", "ok", "ok"]

    def test_delay_uses_injected_sleep(self):
        plan = FaultPlan().delay(0.05, times=2)
        slept: list[float] = []
        for task in range(3):
            plan.apply(task, sleep=slept.append)
        assert slept == [0.05, 0.05]

    def test_same_script_fires_identically(self):
        def build():
            return (FaultPlan(seed=3)
                    .fail(RuntimeError("a"), on_calls=[2])
                    .delay(0.01, times=1))

        def run(plan):
            record = []
            for task in range(6):
                try:
                    plan.apply(task,
                               sleep=lambda s, task=task: record.append(("sleep", task)))
                except RuntimeError:
                    record.append(("error", task))
            return record, plan.fired

        assert run(build()) == run(build())

    def test_rejects_malformed_rules(self):
        with pytest.raises(ValueError):
            FaultPlan().fail(RuntimeError("x"), times=0)
        with pytest.raises(ValueError):
            FaultPlan().fail(None)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_s=10, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, reset_s=10, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_grants_one_probe_per_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=10, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10)
        assert breaker.state == "half_open"
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # window restarted: no second probe

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=5, clock=clock)
        breaker.record_failure()
        clock.advance(5)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

        breaker.record_failure()
        clock.advance(5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()


# --------------------------------------------------------------------------- #
# Backoff
# --------------------------------------------------------------------------- #
class TestBackoff:
    def test_jitter_is_seeded_and_bounded(self):
        policy = RuntimePolicy(backoff_base_s=0.05, backoff_max_s=0.15,
                               jitter_seed=4)

        def schedule():
            backoff = Backoff(policy)
            return [backoff.next_s(attempt) for attempt in (1, 1, 1, 2, 3, 4)]

        first = schedule()
        assert first == schedule()  # same seed, same stream
        # Attempt n waits min(max, base * 2**(n-1)) scaled into [0.5, 1.0].
        for attempt, slept in zip((1, 1, 1, 2, 3, 4), first, strict=True):
            raw = min(0.15, 0.05 * 2 ** (attempt - 1))
            assert 0.5 * raw <= slept <= raw
        assert len(set(first[:3])) > 1  # jittered, not constant
        other = Backoff(RuntimePolicy(backoff_base_s=0.05, backoff_max_s=0.15,
                                      jitter_seed=5))
        assert [other.next_s(1) for _ in range(3)] != first[:3]

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            Backoff(RuntimePolicy()).next_s(0)
