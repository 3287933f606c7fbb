"""Supervisor: spawn accounting, heartbeats, respawn with bounded retries."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import ReplicaUnavailable, WorkerCrashed
from repro.runtime.resilience import RuntimePolicy
from repro.fleet.supervisor import ReplicaSupervisor, ThreadLauncher
from repro.fleet.wire import ping

from tests.fleet.util import FakeService

FAST_POLICY = RuntimePolicy(backoff_base_s=0.001, backoff_max_s=0.01)


def make_supervisor(replicas=2, *, launcher=None, **kwargs):
    launcher = launcher or ThreadLauncher(lambda name: FakeService(name))
    kwargs.setdefault("policy", FAST_POLICY)
    kwargs.setdefault("heartbeat_interval_s", 60.0)  # tests drive check_now()
    return launcher, ReplicaSupervisor(launcher, replicas, **kwargs)


class TestStartStop:
    def test_start_spawns_every_replica(self):
        _launcher, supervisor = make_supervisor(3)
        with supervisor:
            members = supervisor.members()
            assert len(members) == 3
            assert {m.name for m in members} == {
                "replica-0", "replica-1", "replica-2"}
            assert all(m.state == "up" for m in members)
            assert all(m.address is not None for m in members)
            assert supervisor.stats()["spawned"] == 3

    def test_replicas_answer_pings_on_their_addresses(self):
        _launcher, supervisor = make_supervisor(2)
        with supervisor:
            for member in supervisor.members():
                payload = ping(member.address,
                               deadline_s=time.monotonic() + 5.0)
                assert payload["health"]["status"] == "healthy"

    def test_stop_terminates_and_marks_stopped(self):
        launcher, supervisor = make_supervisor(2)
        supervisor.start()
        supervisor.stop()
        assert supervisor.members() == []
        assert all(m.state == "stopped" for m in supervisor.describe())
        assert all(handle.service.closed for handle in launcher.launched)

    def test_stop_is_idempotent(self):
        _launcher, supervisor = make_supervisor(1)
        supervisor.start()
        supervisor.stop()
        supervisor.stop()
        assert supervisor.stats()["up"] == 0


class TestHeartbeat:
    def test_sweep_counts_heartbeats_and_caches_health(self):
        _launcher, supervisor = make_supervisor(2)
        with supervisor:
            supervisor.check_now()
            stats = supervisor.stats()
            assert stats["heartbeats"] == 2
            assert stats["heartbeat_failures"] == 0
            for member in supervisor.members():
                assert member.last_health["status"] == "healthy"

    def test_dead_replica_is_respawned_on_sweep(self):
        launcher, supervisor = make_supervisor(2)
        with supervisor:
            victim = launcher.launched[0]
            old_address = victim.address()
            victim.crash()
            supervisor.check_now()
            members = supervisor.members()
            assert len(members) == 2
            assert all(m.state == "up" for m in members)
            replacement = next(m for m in members if m.name == "replica-0")
            assert replacement.restarts == 1
            assert replacement.generation == 2
            assert replacement.address != old_address
            # The replacement actually serves.
            ping(replacement.address, deadline_s=time.monotonic() + 5.0)

    def test_replica_whose_health_raises_fails_ping_and_is_respawned(self):
        # The replica answers ping with a RuntimeError payload.  The
        # heartbeat catches only ServingError, so ping must raise it as
        # ReplicaUnavailable: the sweep respawns the slot instead of dying.
        class BrokenHealth(FakeService):
            def health(self):
                raise RuntimeError("health probe crashed")

        def factory(name):
            first = not launcher.launched
            return BrokenHealth(name) if first else FakeService(name)

        launcher = ThreadLauncher(factory)
        _launcher, supervisor = make_supervisor(1, launcher=launcher)
        with supervisor:
            broken = supervisor.members()[0]
            with pytest.raises(ReplicaUnavailable, match="RuntimeError"):
                ping(broken.address, deadline_s=time.monotonic() + 5.0)
            supervisor.check_now()
            stats = supervisor.stats()
            assert stats["heartbeat_failures"] == 1
            assert stats["restarts"] == 1
            assert stats["up"] == 1
            supervisor.check_now()  # the replacement answers its heartbeat
            assert supervisor.stats()["heartbeats"] == 1

    def test_spawn_accounting_balances_after_respawns(self):
        launcher, supervisor = make_supervisor(2)
        with supervisor:
            launcher.launched[0].crash()
            supervisor.check_now()
            launcher.launched[-1].crash()  # kill the replacement too
            supervisor.check_now()
            stats = supervisor.stats()
            assert stats["spawned"] == stats["replicas"] + stats["restarts"]
            assert stats["restarts"] == 2
            assert stats["heartbeat_failures"] == 2
            assert stats["up"] == 2

    def test_repeat_sweep_without_crash_does_not_respawn(self):
        launcher, supervisor = make_supervisor(2)
        with supervisor:
            launcher.launched[0].crash()
            supervisor.check_now()
            spawned = supervisor.stats()["spawned"]
            supervisor.check_now()
            supervisor.check_now()
            assert supervisor.stats()["spawned"] == spawned

    def test_background_monitor_respawns_without_explicit_sweep(self):
        launcher, supervisor = make_supervisor(
            1, heartbeat_interval_s=0.05, heartbeat_timeout_s=2.0)
        with supervisor:
            launcher.launched[0].crash()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = supervisor.stats()
                if stats["restarts"] >= 1 and stats["up"] == 1:
                    break
                time.sleep(0.02)
            stats = supervisor.stats()
            assert stats["restarts"] == 1
            assert stats["up"] == 1
            assert stats["spawned"] == stats["replicas"] + stats["restarts"]


class TestGiveUp:
    def test_slot_fails_after_max_restarts(self):
        launcher, supervisor = make_supervisor(1, max_restarts=2)
        with supervisor:
            for _ in range(3):
                launcher.launched[-1].crash()
                supervisor.check_now()
            describe = {m.name: m for m in supervisor.describe()}
            assert describe["replica-0"].state == "failed"
            assert supervisor.members() == []
            stats = supervisor.stats()
            assert stats["failed"] == 1
            assert stats["gave_up"] == 1
            assert stats["restarts"] == 2  # third death exceeded the budget
            reasons = supervisor.failure_reasons()
            assert "replica-0" in reasons
            assert "gave up" in reasons["replica-0"]

    def test_failed_slot_stays_failed_on_later_sweeps(self):
        launcher, supervisor = make_supervisor(1, max_restarts=0)
        with supervisor:
            launcher.launched[0].crash()
            supervisor.check_now()
            supervisor.check_now()
            describe = supervisor.describe()
            assert describe[0].state == "failed"
            assert supervisor.stats()["gave_up"] == 1


class FailingLauncher(ThreadLauncher):
    """Launches normally, then refuses every relaunch."""

    def __init__(self, factory):
        super().__init__(factory)
        self.fail_from = None

    def launch(self, name):
        if self.fail_from is not None and len(self.launched) >= self.fail_from:
            raise WorkerCrashed(f"launch refused for {name}")
        return super().launch(name)


class TestLaunchFailure:
    def test_failed_relaunch_leaves_slot_down_for_retry(self):
        launcher = FailingLauncher(lambda name: FakeService(name))
        _, supervisor = make_supervisor(1, launcher=launcher, max_restarts=5)
        with supervisor:
            launcher.fail_from = 1  # every relaunch now fails
            launcher.launched[0].crash()
            supervisor.check_now()
            describe = supervisor.describe()
            assert describe[0].state == "down"
            assert supervisor.members() == []
            # Relaunch succeeds once the launcher recovers.
            launcher.fail_from = None
            supervisor.check_now()
            members = supervisor.members()
            assert len(members) == 1
            assert members[0].state == "up"


class TestDescribe:
    def test_describe_reports_every_slot(self):
        _launcher, supervisor = make_supervisor(2)
        with supervisor:
            described = supervisor.describe()
            assert [m.name for m in described] == ["replica-0", "replica-1"]
            assert all(m.generation == 1 for m in described)

    def test_member_dataclass_is_a_snapshot(self):
        launcher, supervisor = make_supervisor(1)
        with supervisor:
            before = supervisor.members()[0]
            launcher.launched[0].crash()
            supervisor.check_now()
            assert before.restarts == 0  # frozen snapshot, not a live view
            assert supervisor.members()[0].restarts == 1

    def test_stats_keys_are_stable(self):
        _launcher, supervisor = make_supervisor(1)
        with supervisor:
            assert set(supervisor.stats()) == {
                "replicas", "up", "failed", "spawned", "restarts",
                "heartbeats", "heartbeat_failures", "gave_up",
            }


def test_context_manager_stops_on_exit():
    _launcher, supervisor = make_supervisor(1)
    with supervisor as entered:
        assert entered is supervisor
        assert supervisor.stats()["up"] == 1
    assert supervisor.stats()["up"] == 0


def test_crashed_handle_fails_pytest_cleanly_when_unstarted():
    # start() raising (e.g. port exhaustion) must not leave threads behind;
    # a supervisor that never started stops as a no-op.
    _launcher, supervisor = make_supervisor(1)
    supervisor.stop()
    assert supervisor.stats()["up"] == 0
