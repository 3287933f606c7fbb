"""Fleet chaos: replicas die mid-batch, answers stay bitwise-identical.

The invariant mirrors the gateway chaos suite, one layer out: **every
request the gateway accepts is answered** — and because replicas are
deterministic over the same bundle, every 200 carries predictions
bitwise-identical to a single-process service, no matter which replica
died underneath it.  Worker death comes two ways: scripted wire faults
(:class:`~repro.runtime.FaultPlan` on a
:class:`~repro.runtime.FaultyEndpoint`, deterministic) and genuine
mid-batch socket slams (``crash()`` on a thread replica), which also
exercises the supervisor's respawn accounting.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.fleet import FleetRouter, ReplicaSupervisor, ThreadLauncher
from repro.fleet.wire import ReplicaClient
from repro.runtime import FaultPlan, FaultyEndpoint, RuntimePolicy
from repro.serve import AnnotationService

from tests.gateway.util import post_annotate, running_gateway, table_payload

pytestmark = pytest.mark.chaos

CHAOS_POLICY = RuntimePolicy(timeout_s=30.0, breaker_threshold=3,
                             breaker_reset_s=60.0, backoff_base_s=0.01,
                             backoff_max_s=0.05)


def real_fleet(bundle_dir, replicas=2, *, service_factory=None,
               heartbeat_interval_s=60.0, **router_kwargs):
    """A fleet of real trained services on thread replicas + real sockets."""
    factory = service_factory or (
        lambda name: AnnotationService.load(bundle_dir))
    launcher = ThreadLauncher(factory)
    supervisor = ReplicaSupervisor(
        launcher, replicas, policy=CHAOS_POLICY,
        heartbeat_interval_s=heartbeat_interval_s, heartbeat_timeout_s=5.0,
    )
    supervisor.start()
    router = FleetRouter(supervisor, own_supervisor=True, **router_kwargs)
    return launcher, supervisor, router


def _accounted(stats: dict) -> bool:
    answered = (stats["completed"] + stats["errors"]
                + stats["rejected_draining"] + stats["expired_at_admission"]
                + stats["expired_in_flight"])
    return stats["requests"] == answered


def wait_for_respawn(supervisor, restarts, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats = supervisor.stats()
        if stats["restarts"] >= restarts and stats["up"] == stats["replicas"]:
            return stats
        time.sleep(0.02)
    raise AssertionError(f"fleet did not respawn: {supervisor.stats()}")


class _CrashUnderFirstBatch:
    """Slams the replica's own socket while its first batch is in flight.

    The service still computes the answer, but the send fails — exactly
    what the router sees when a worker dies mid-batch.
    """

    def __init__(self, service):
        self._service = service
        self.handle = None  # armed by the test once the handle exists
        self._fired = False
        self._fire_lock = threading.Lock()

    def annotate_batch(self, tables, budget_s=None):
        fire = False
        with self._fire_lock:
            if not self._fired and self.handle is not None:
                self._fired = True
                fire = True
        if fire:
            self.handle.crash()
        return self._service.annotate_batch(tables, budget_s=budget_s)

    def __getattr__(self, name):
        return getattr(self._service, name)


class TestReplicaDeathMidBatch:
    def test_killed_replica_answers_everything_and_respawns(
            self, fleet_bundle, serve_tables, expected):
        proxies = []

        def factory(name):
            service = AnnotationService.load(fleet_bundle)
            if name == "replica-0" and not proxies:
                proxy = _CrashUnderFirstBatch(service)
                proxies.append(proxy)
                return proxy
            return service

        launcher, supervisor, router = real_fleet(
            fleet_bundle, 2, service_factory=factory,
            heartbeat_interval_s=0.05)
        try:
            proxies[0].handle = launcher.launched[0]  # arm the crash

            async def wave():
                async with running_gateway(router, max_wait_ms=50.0,
                                           max_batch=8) as gateway:
                    responses = await asyncio.wait_for(asyncio.gather(*[
                        post_annotate(gateway, table_payload(table))
                        for table in serve_tables
                    ]), 120.0)
                    return ([r.status for r in responses],
                            [r.json().get("predictions") for r in responses],
                            gateway.stats())

            # Wave 1: replica-0 dies under the very first batch.  The
            # router fails the batch over; the gateway never notices.
            statuses, predictions, stats = asyncio.run(wave())
            assert statuses == [200] * len(serve_tables)  # answered_rate 1.0
            assert predictions == expected  # bitwise, despite the death
            assert _accounted(stats)
            assert stats["completed"] == len(serve_tables)
            assert router.stats().failovers >= 1

            # The supervisor noticed and respawned; accounting balances.
            fleet_stats = wait_for_respawn(supervisor, restarts=1)
            assert (fleet_stats["spawned"]
                    == fleet_stats["replicas"] + fleet_stats["restarts"])
            assert fleet_stats["heartbeat_failures"] >= 1

            # Wave 2 over the healed fleet: same answers again.
            statuses, predictions, stats = asyncio.run(wave())
            assert statuses == [200] * len(serve_tables)
            assert predictions == expected
            assert _accounted(stats)
        finally:
            router.close()
        assert supervisor.stats()["up"] == 0


class TestScriptedWireFaults:
    def test_wire_resets_fail_over_without_changing_answers(
            self, fleet_bundle, serve_tables, expected):
        # Deterministic wire chaos: replica-0's first two annotate calls
        # die with a connection reset before any bytes move.
        plan = FaultPlan().fail(
            ConnectionResetError("injected wire reset"), times=2,
            match=lambda task: task == ("replica-0", "annotate_batch"),
        )

        def endpoint_factory(name, address):
            client = ReplicaClient(address, name=name,
                                   default_timeout_s=30.0)
            return FaultyEndpoint(client, plan, name=name)

        _launcher, _supervisor, router = real_fleet(
            fleet_bundle, 2, endpoint_factory=endpoint_factory)
        with router:
            results = [router.annotate_batch([table])[0]
                       for table in serve_tables[:3]]
            assert results == expected[:3]  # bitwise across the failovers
            stats = router.stats()
            assert stats.failovers == 2
            assert stats.replica_errors == 2
            assert stats.rejected == 0
            assert len(plan.fired) == 2  # the script ran exactly as written
            # Two failures stay under the breaker threshold (3): replica-0
            # was never ejected, and the fleet still reports healthy.
            assert router.health().status == "healthy"


class TestRepeatedDeaths:
    def test_restart_accounting_balances_across_serial_kills(
            self, fleet_bundle, serve_tables, expected):
        launcher, supervisor, router = real_fleet(
            fleet_bundle, 2, heartbeat_interval_s=0.05)
        try:
            for round_number in range(1, 4):
                launcher.launched[-1].crash()  # kill the newest replica
                stats = wait_for_respawn(supervisor, restarts=round_number)
                assert (stats["spawned"]
                        == stats["replicas"] + stats["restarts"])
            assert supervisor.stats()["restarts"] == 3
            assert supervisor.stats()["gave_up"] == 0
            # The churned fleet still serves bitwise-correct answers.
            assert router.annotate_batch(serve_tables[:2]) == expected[:2]
            assert router.health().status == "healthy"
        finally:
            router.close()
