"""Router: routing, failover, breakers, the shared cache, and the gateway seam."""

from __future__ import annotations

import asyncio
import copy
import json
import threading
import time

import pytest

from repro.core.errors import ReplicaUnavailable, ServiceClosed
from repro.fleet import FleetRouter, ReplicaSupervisor, ThreadLauncher
from repro.fleet.supervisor import FleetMember
from repro.gateway import Gateway, GatewayConfig
from repro.runtime.resilience import CircuitBreaker, RuntimePolicy
from repro.serve import AnnotationService

from tests.fleet.util import FakeService, make_tables, start_fleet
from tests.gateway.util import (
    FakeClock,
    get,
    post_annotate,
    running_gateway,
    table_payload,
)

FAST_POLICY = RuntimePolicy(backoff_base_s=0.001, backoff_max_s=0.01)


def manual_fleet(replicas=2, *, max_restarts=3, service_factory=None,
                 **router_kwargs):
    """Like start_fleet but with supervisor knobs exposed."""
    factory = service_factory or (lambda name: FakeService(name))
    launcher = ThreadLauncher(factory)
    supervisor = ReplicaSupervisor(
        launcher, replicas, policy=FAST_POLICY,
        heartbeat_interval_s=60.0, max_restarts=max_restarts,
    )
    supervisor.start()
    router = FleetRouter(supervisor, own_supervisor=True, **router_kwargs)
    return launcher, supervisor, router


class TestRouting:
    def test_round_trip_over_real_sockets(self):
        _launcher, _supervisor, router = start_fleet(2)
        with router:
            results = router.annotate_batch(make_tables(3))
            assert results == [["label:t0"], ["label:t1"], ["label:t2"]]
            stats = router.stats()
            assert stats.requests == 1
            assert stats.tables == 3
            assert stats.dispatches == 1

    def test_load_spreads_across_replicas(self):
        launcher, _supervisor, router = start_fleet(2)
        with router:
            for index in range(6):
                router.annotate_batch(make_tables(1, prefix=f"r{index}-"))
            served = [sum(count for count, _ in handle.service.calls)
                      for handle in launcher.launched]
            assert sum(served) == 6

    def test_least_outstanding_avoids_the_busy_replica(self):
        hold = threading.Event()
        entered = threading.Event()

        def slow(tables, budget_s):
            entered.set()
            hold.wait(10.0)
            return [["slow"] for _ in tables]

        def factory(name):
            if name == "replica-0":
                return FakeService(name, annotate=slow)
            return FakeService(name)

        launcher, _supervisor, router = start_fleet(
            2, service_factory=factory)
        with router:
            background = threading.Thread(
                target=router.annotate_batch,
                args=(make_tables(1, prefix="busy-"),))
            background.start()
            try:
                assert entered.wait(5.0)  # replica-0 is now holding a batch
                # With replica-0 at one outstanding request, the next batch
                # must land on replica-1 — and return while 0 is still stuck.
                results = router.annotate_batch(make_tables(1, prefix="free-"))
                assert results == [["label:free-0"]]
                assert launcher.launched[1].service.calls != []
            finally:
                hold.set()
                background.join(timeout=5.0)

    def test_failover_survives_a_dead_replica(self):
        launcher, _supervisor, router = start_fleet(2)
        with router:
            launcher.launched[0].crash()
            results = router.annotate_batch(make_tables(2))
            assert results == [["label:t0"], ["label:t1"]]
            stats = router.stats()
            assert stats.failovers + stats.replica_errors >= 1
            assert stats.rejected == 0

    def test_all_replicas_dead_is_replica_unavailable(self):
        launcher, _supervisor, router = start_fleet(2)
        with router:
            for handle in launcher.launched:
                handle.crash()
            with pytest.raises(ReplicaUnavailable, match="no healthy replica"):
                router.annotate_batch(make_tables(1))
            assert router.stats().rejected == 1

    def test_respawned_replica_is_redialed_automatically(self):
        launcher, supervisor, router = start_fleet(1)
        with router:
            router.annotate_batch(make_tables(1, prefix="a-"))
            launcher.launched[0].crash()
            supervisor.check_now()  # respawn: same slot name, new port
            results = router.annotate_batch(make_tables(1, prefix="b-"))
            assert results == [["label:b-0"]]
            assert supervisor.stats()["restarts"] == 1

    def test_closed_router_refuses_requests(self):
        _launcher, _supervisor, router = start_fleet(1)
        router.close()
        with pytest.raises(ServiceClosed):
            router.annotate_batch(make_tables(1))

    def test_close_stops_an_owned_supervisor(self):
        _launcher, supervisor, router = start_fleet(2)
        router.close()
        assert supervisor.stats()["up"] == 0

    def test_close_is_idempotent(self):
        _launcher, _supervisor, router = start_fleet(1)
        router.close()
        router.close()


class FakeEndpoint:
    """A scripted replica endpoint — no sockets, failures on demand."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.fail = False
        self.closed = False

    def request(self, op, payload=None, *, deadline_s=None):
        self.calls += 1
        if self.fail:
            raise ReplicaUnavailable(f"{self.name} is down")
        return [[f"{self.name}:ok"] for _ in payload["tables"]]

    def close(self):
        self.closed = True


class FakeSupervisor:
    """Static membership for pure routing-logic tests."""

    def __init__(self, names, policy):
        self.names = list(names)
        self.policy = policy
        self.stopped = False

    def _member(self, name):
        return FleetMember(name=name, state="up",
                           address=("127.0.0.1", 1), restarts=0,
                           generation=1, last_health={"status": "healthy"})

    def members(self):
        return [self._member(name) for name in self.names]

    def describe(self):
        return self.members()

    def stats(self):
        return {"replicas": len(self.names), "up": len(self.names),
                "failed": 0, "spawned": len(self.names), "restarts": 0,
                "heartbeats": 0, "heartbeat_failures": 0, "gave_up": 0}

    def failure_reasons(self):
        return {}

    def stop(self):
        self.stopped = True


class TestBreakers:
    """Driven on a fake clock: no sockets, no sleeps."""

    def make(self, *, threshold=2, reset_s=30.0):
        clock = FakeClock()
        policy = RuntimePolicy(breaker_threshold=threshold,
                               breaker_reset_s=reset_s)
        endpoints = {name: FakeEndpoint(name) for name in ("replica-0",
                                                           "replica-1")}
        router = FleetRouter(
            FakeSupervisor(endpoints, policy), policy=policy,
            endpoint_factory=lambda name, address: endpoints[name],
            clock=clock,
        )
        return clock, endpoints, router

    def test_repeated_failures_open_the_breaker(self):
        _clock, endpoints, router = self.make(threshold=2)
        endpoints["replica-0"].fail = True
        # Two batches: each fails over 0 -> 1, charging replica-0's breaker.
        router.annotate_batch(make_tables(1, prefix="a-"))
        router.annotate_batch(make_tables(1, prefix="b-"))
        assert endpoints["replica-0"].calls == 2
        # Breaker now open: replica-0 is not even tried.
        router.annotate_batch(make_tables(1, prefix="c-"))
        assert endpoints["replica-0"].calls == 2
        assert endpoints["replica-1"].calls == 3
        assert router.health().breakers["replica-0"] == CircuitBreaker.OPEN

    def test_half_open_probe_readmits_a_recovered_replica(self):
        clock, endpoints, router = self.make(threshold=2, reset_s=30.0)
        endpoints["replica-0"].fail = True
        router.annotate_batch(make_tables(1, prefix="a-"))
        router.annotate_batch(make_tables(1, prefix="b-"))
        endpoints["replica-0"].fail = False  # replica recovers...
        router.annotate_batch(make_tables(1, prefix="c-"))
        assert endpoints["replica-0"].calls == 2  # ...but stays ejected
        clock.advance(31.0)  # cool-down elapses -> half-open
        results = router.annotate_batch(make_tables(1, prefix="d-"))
        assert results == [["replica-0:ok"]]  # the probe went to replica-0
        assert endpoints["replica-0"].calls == 3
        assert router.health().breakers["replica-0"] == CircuitBreaker.CLOSED

    def test_failed_probe_reopens_immediately(self):
        clock, endpoints, router = self.make(threshold=2, reset_s=30.0)
        endpoints["replica-0"].fail = True
        router.annotate_batch(make_tables(1, prefix="a-"))
        router.annotate_batch(make_tables(1, prefix="b-"))
        clock.advance(31.0)
        router.annotate_batch(make_tables(1, prefix="c-"))  # probe fails over
        assert endpoints["replica-0"].calls == 3
        assert router.health().breakers["replica-0"] == CircuitBreaker.OPEN
        router.annotate_batch(make_tables(1, prefix="d-"))  # window restarted
        assert endpoints["replica-0"].calls == 3

    def test_failover_counts_in_stats(self):
        _clock, endpoints, router = self.make()
        endpoints["replica-0"].fail = True
        router.annotate_batch(make_tables(1))
        stats = router.stats()
        assert stats.failovers == 1
        assert stats.replica_errors == 1
        assert stats.dispatches == 2  # one failed, one succeeded


class TestSharedCache:
    def test_repeat_batch_is_served_from_memory(self):
        launcher, _supervisor, router = start_fleet(2)
        with router:
            first = router.annotate_batch(make_tables(3))
            dispatches = router.stats().dispatches
            second = router.annotate_batch(make_tables(3))
            assert second == first
            stats = router.stats()
            assert stats.dispatches == dispatches  # no extra wire trip
            assert stats.results_cache["hits"] == 3
            assert stats.results_cache["misses"] == 3

    def test_in_batch_duplicates_dispatch_once(self):
        launcher, _supervisor, router = start_fleet(1)
        with router:
            table = make_tables(1)[0]
            results = router.annotate_batch([table, copy.deepcopy(table), table])
            assert results == [["label:t0"]] * 3
            served = sum(count for count, _ in
                         launcher.launched[0].service.calls)
            assert served == 1  # one wire table for three positions
            assert router.stats().tables == 3

    def test_concurrent_duplicate_joins_the_lead(self):
        hold = threading.Event()
        entered = threading.Event()

        def slow(tables, budget_s):
            entered.set()
            hold.wait(10.0)
            return [[f"label:{t.table_id}"] for t in tables]

        launcher, _supervisor, router = start_fleet(
            2, service_factory=lambda name: FakeService(name, annotate=slow))
        with router:
            table = make_tables(1)[0]
            results: list = []

            def call():
                results.append(router.annotate_batch([table]))

            threads = [threading.Thread(target=call) for _ in range(2)]
            threads[0].start()
            assert entered.wait(5.0)  # the lead is on the wire
            threads[1].start()
            deadline = time.monotonic() + 5.0
            while (router.stats().results_cache["coalesced"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            hold.set()
            for thread in threads:
                thread.join(timeout=5.0)
            assert results == [[["label:t0"]], [["label:t0"]]]
            served = sum(count for handle in launcher.launched
                         for count, _ in handle.service.calls)
            assert served == 1  # the duplicate never travelled the wire
            assert router.stats().results_cache["coalesced"] == 1

    def test_failed_lead_releases_joiners_and_key(self):
        launcher, _supervisor, router = start_fleet(2)
        with router:
            for handle in launcher.launched:
                handle.crash()
            with pytest.raises(ReplicaUnavailable):
                router.annotate_batch(make_tables(1))
        # The key was not wedged by the failure: a fresh fleet serves it.
        _launcher2, _supervisor2, router2 = start_fleet(1, cache=router.cache)
        with router2:
            assert router2.annotate_batch(make_tables(1)) == [["label:t0"]]


class TestStatsAndHealth:
    def test_stats_to_dict_is_flat_and_numeric(self):
        _launcher, supervisor, router = start_fleet(2)
        with router:
            supervisor.check_now()
            router.annotate_batch(make_tables(2))
            payload = router.stats().to_dict()
            assert all(isinstance(value, (int, float))
                       for value in payload.values()), payload
            for key in ("requests", "tables", "dispatches", "failovers",
                        "results_cache_hits", "results_cache_misses",
                        "results_cache_coalesced", "fleet_spawned",
                        "fleet_restarts", "fleet_up"):
                assert key in payload

    def test_healthy_fleet_reports_per_replica_detail(self):
        _launcher, supervisor, router = start_fleet(2)
        with router:
            supervisor.check_now()  # heartbeats cache each replica's health
            health = router.health()
            assert health.status == "healthy"
            assert health.reasons == ()
            payload = health.to_dict()
            json.dumps(payload)  # must be JSON-safe for /healthz
            assert set(payload["replicas"]) == {"replica-0", "replica-1"}
            for info in payload["replicas"].values():
                assert info["state"] == "up"
                assert info["status"] == "healthy"
                assert info["breaker"] == CircuitBreaker.CLOSED

    def test_failed_slot_degrades_the_fleet(self):
        launcher, supervisor, router = manual_fleet(2, max_restarts=0)
        with router:
            launcher.launched[0].crash()
            supervisor.check_now()  # exhausts the (zero) restart budget
            health = router.health()
            assert health.status == "degraded"
            assert any("replica-0" in reason for reason in health.reasons)
            payload = health.to_dict()
            assert payload["replicas"]["replica-0"]["state"] == "failed"
            assert payload["replicas"]["replica-1"]["state"] == "up"

    def test_no_live_replicas_is_failed(self):
        launcher, supervisor, router = manual_fleet(1, max_restarts=0)
        with router:
            launcher.launched[0].crash()
            supervisor.check_now()
            health = router.health()
            assert health.status == "failed"
            assert health.reasons[0] == "no live replicas"

    def test_closed_router_health_is_failed(self):
        _launcher, _supervisor, router = start_fleet(1)
        router.close()
        health = router.health()
        assert health.status == "failed"
        assert health.reasons == ("fleet router closed",)


class TestGatewaySeam:
    """The router in the gateway's service seat — satellite (d)."""

    def test_annotate_flows_through_gateway_to_fleet(self):
        async def main():
            launcher, _supervisor, router = start_fleet(2)
            async with running_gateway(router) as gateway:
                response = await post_annotate(gateway, {
                    "table_id": "t9",
                    "columns": [{"name": "c0", "cells": ["x"]}],
                })
                assert response.status == 200
                assert response.json()["predictions"] == ["label:t9"]
            served = sum(count for handle in launcher.launched
                         for count, _ in handle.service.calls)
            assert served == 1
        asyncio.run(main())

    def test_healthz_aggregates_per_replica_health(self):
        async def main():
            _launcher, supervisor, router = start_fleet(2)
            supervisor.check_now()
            async with running_gateway(router) as gateway:
                response = await get(gateway, "/healthz")
                assert response.status == 200
                payload = response.json()
                assert payload["status"] == "healthy"
                assert payload["gateway"] == "serving"
                assert set(payload["replicas"]) == {"replica-0", "replica-1"}
                assert payload["replicas"]["replica-0"]["status"] == "healthy"
        asyncio.run(main())

    def test_degraded_fleet_is_200_with_reasons(self):
        async def main():
            launcher, supervisor, router = manual_fleet(2, max_restarts=0)
            launcher.launched[1].crash()
            supervisor.check_now()
            async with running_gateway(router) as gateway:
                response = await get(gateway, "/healthz")
                assert response.status == 200  # still answering
                payload = response.json()
                assert payload["status"] == "degraded"
                assert any("replica-1" in reason
                           for reason in payload["reasons"])
        asyncio.run(main())

    def test_dead_fleet_is_503_on_healthz(self):
        async def main():
            launcher, supervisor, router = manual_fleet(1, max_restarts=0)
            launcher.launched[0].crash()
            supervisor.check_now()
            async with running_gateway(router) as gateway:
                response = await get(gateway, "/healthz")
                assert response.status == 503
                assert response.json()["status"] == "failed"
        asyncio.run(main())

    def test_replica_unavailable_maps_to_503_with_retry_after(self):
        async def main():
            launcher, supervisor, router = manual_fleet(1, max_restarts=0)
            launcher.launched[0].crash()
            supervisor.check_now()
            async with running_gateway(router) as gateway:
                response = await post_annotate(gateway, {
                    "table_id": "t0",
                    "columns": [{"name": "c0", "cells": ["x"]}],
                })
                assert response.status == 503
                assert response.json()["error"] == "ReplicaUnavailable"
                assert "retry-after" in response.headers
        asyncio.run(main())

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_one_batch_in_flight_per_replica(self, replicas):
        release = threading.Event()
        entered = threading.Semaphore(0)

        def held(tables, budget_s):
            entered.release()
            assert release.wait(10.0)
            return [["held"] for _ in tables]

        async def main():
            launcher, _supervisor, router = start_fleet(
                replicas, service_factory=lambda name: FakeService(name, annotate=held))
            assert router.replicas == replicas
            async with running_gateway(router) as gateway:
                stats = gateway.stats()
                assert stats["max_wait_ms"] == 0.0
                assert stats["max_concurrent_batches"] == replicas
                requests = []
                try:
                    for index in range(replicas):
                        requests.append(asyncio.create_task(post_annotate(
                            gateway,
                            table_payload(make_tables(1, prefix=f"r{index}-")[0]))))
                        # Dispatched while the earlier requests still hold
                        # their replicas: no window, and a free slot each.
                        assert await asyncio.to_thread(entered.acquire, timeout=5.0)
                finally:
                    release.set()
                responses = await asyncio.gather(*requests)
                assert [response.status for response in responses] == [200] * replicas
            # Least-outstanding routing spread them: one table per replica.
            assert [[count for count, _ in handle.service.calls]
                    for handle in launcher.launched] == [[1]] * replicas
        asyncio.run(main())

    def test_explicit_config_wins_over_the_fleet_policy(self):
        _launcher, _supervisor, router = start_fleet(2)
        with router:
            gateway = Gateway(router, GatewayConfig(
                max_wait_ms=5.0, max_concurrent_batches=1))
            assert gateway.batching_policy() == (router.max_batch, 5.0, 1)

    def test_single_service_seat_keeps_the_window(self, fleet_bundle):
        with AnnotationService.load(fleet_bundle) as service:
            gateway = Gateway(service, GatewayConfig())
            assert gateway.batching_policy() == (service.max_batch, 5.0, 2)

    def test_stats_and_metrics_surface_fleet_counters(self):
        async def main():
            _launcher, _supervisor, router = start_fleet(2)
            async with running_gateway(router) as gateway:
                payload = table_dict = {
                    "table_id": "t0",
                    "columns": [{"name": "c0", "cells": ["x"]}],
                }
                await post_annotate(gateway, payload)
                await post_annotate(gateway, table_dict)  # cache hit
                stats = (await get(gateway, "/stats")).json()
                service = stats["service"]
                assert service["results_cache_hits"] == 1
                assert service["fleet_up"] == 2
                text = (await get(gateway, "/metrics")).body.decode()
                assert "kglink_service_results_cache_hits 1" in text
                assert "kglink_service_fleet_up 2" in text
        asyncio.run(main())
