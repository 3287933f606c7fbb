"""Gateway tests over real sockets with a scripted service.

Covers the endpoint surface, the typed error→status mapping, deadline
edge cases (expired at admission / while queued / mid-batch — each a typed
timeout, never a hang), overload shedding with full accounting, and the
graceful-drain contract.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.errors import (
    BundleCorrupted,
    DeadlineExceeded,
    GatewayOverloaded,
    ReplicaUnavailable,
    ServiceClosed,
    ServingError,
)
from repro.gateway import DEADLINE_HEADER, Gateway, GatewayConfig, status_for
from repro.gateway.http import HttpConnection

from tests.gateway.util import (
    CachingFakeService,
    FakeService,
    get,
    make_table,
    post_annotate,
    running_gateway,
    seed_cache,
    table_payload,
)


def _assert_accounting(stats: dict) -> None:
    """Every request the handler saw is accounted for — no silent drops."""
    answered = (stats["completed"] + stats["errors"]
                + stats["rejected_draining"] + stats["expired_at_admission"]
                + stats["expired_in_flight"])
    assert stats["requests"] == answered


class TestAnnotateEndpoint:
    def test_single_table_round_trip(self):
        async def main():
            service = FakeService()
            async with running_gateway(service) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table("t1", columns=3))
                )
                assert response.status == 200
                payload = response.json()
                assert payload["table_id"] == "t1"
                assert payload["predictions"] == ["label:c0", "label:c1", "label:c2"]
                assert gateway.stats()["completed"] == 1
        asyncio.run(main())

    def test_list_payload_preserves_order(self):
        async def main():
            service = FakeService()
            tables = [make_table(f"t{index}") for index in range(3)]
            async with running_gateway(service) as gateway:
                response = await post_annotate(
                    gateway, [table_payload(table) for table in tables]
                )
                assert response.status == 200
                results = response.json()["results"]
                assert [entry["table_id"] for entry in results] == ["t0", "t1", "t2"]
            assert service.calls == [(3, None)]
        asyncio.run(main())

    def test_concurrent_requests_coalesce_into_one_batch(self):
        async def main():
            service = FakeService()
            async with running_gateway(service, max_wait_ms=100.0,
                                       max_batch=16) as gateway:
                responses = await asyncio.gather(*[
                    post_annotate(gateway, table_payload(make_table(f"t{i}")))
                    for i in range(8)
                ])
                assert [r.status for r in responses] == [200] * 8
                stats = gateway.stats()
                assert stats["batches"] == 1
                assert stats["max_batch_size"] == 8
            assert service.calls == [(8, None)]  # eight requests, one PLM trip
        asyncio.run(main())

    def test_missing_table_id_is_generated(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                response = await post_annotate(
                    gateway, {"columns": [{"name": "c", "cells": ["x"]}]}
                )
                assert response.status == 200
                assert response.json()["table_id"].startswith("req-")
        asyncio.run(main())

    @pytest.mark.parametrize("payload", [
        [], "not a table", 42,
        {"columns": "nope"},
        {"columns": [{"name": "c"}]},          # no cells
        [{"table_id": "t"}],                   # no columns
    ])
    def test_malformed_payloads_are_400(self, payload):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                response = await post_annotate(gateway, payload)
                assert response.status == 400
                assert response.json()["error"] in ("ValueError", "HttpError")
                _assert_accounting(gateway.stats())
        asyncio.run(main())

    def test_invalid_deadline_header_is_400(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table()),
                    headers={DEADLINE_HEADER: "soon"},
                )
                assert response.status == 400
                assert "x-deadline-ms" in response.json()["detail"]
        asyncio.run(main())


class TestRouting:
    def test_unknown_path_is_404(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                assert (await get(gateway, "/nope")).status == 404
        asyncio.run(main())

    def test_wrong_method_is_405(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                assert (await get(gateway, "/annotate")).status == 405
                port = gateway.port
                async with await HttpConnection.open("127.0.0.1", port) as conn:
                    response = await conn.request("POST", "/healthz",
                                                  json_body={})
                assert response.status == 405
        asyncio.run(main())

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                port = gateway.port
                async with await HttpConnection.open("127.0.0.1", port) as conn:
                    for index in range(3):
                        response = await conn.request(
                            "POST", "/annotate",
                            json_body=table_payload(make_table(f"t{index}")),
                        )
                        assert response.status == 200
                assert gateway.stats()["completed"] == 3
        asyncio.run(main())


class TestErrorMapping:
    @pytest.mark.parametrize("error, status", [
        (DeadlineExceeded("too slow"), 504),
        (GatewayOverloaded("shed"), 503),
        (ReplicaUnavailable("every replica is down"), 503),
        (ServiceClosed("closed"), 410),
        (BundleCorrupted("bad digest"), 500),
        (ServingError("other"), 500),
        (ValueError("junk"), 400),
        (RuntimeError("surprise"), 500),
    ])
    def test_status_for_taxonomy(self, error, status):
        assert status_for(error) == status

    @pytest.mark.parametrize("error, status, name", [
        (ReplicaUnavailable("every replica is down"), 503, "ReplicaUnavailable"),
        (ServiceClosed("service is closed"), 410, "ServiceClosed"),
        (BundleCorrupted("digest mismatch"), 500, "BundleCorrupted"),
        (DeadlineExceeded("budget exhausted"), 504, "DeadlineExceeded"),
    ])
    def test_service_failures_map_onto_statuses(self, error, status, name):
        async def main():
            def explode(tables, budget_s):
                raise error

            async with running_gateway(FakeService(annotate=explode)) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table())
                )
                assert response.status == status
                payload = response.json()
                assert payload["error"] == name
                assert str(error) in payload["detail"]
                _assert_accounting(gateway.stats())
        asyncio.run(main())

    def test_503_carries_retry_after(self):
        async def main():
            def explode(tables, budget_s):
                raise ReplicaUnavailable("down")

            async with running_gateway(FakeService(annotate=explode),
                                       retry_after_s=7.0) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table())
                )
                assert response.status == 503
                assert response.headers["retry-after"] == "7"
        asyncio.run(main())


class TestDeadlines:
    def test_expired_at_admission_is_504_before_any_work(self):
        async def main():
            service = FakeService()
            async with running_gateway(service) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table()),
                    headers={DEADLINE_HEADER: "-10"},
                )
                assert response.status == 504
                assert "admission" in response.json()["detail"]
                stats = gateway.stats()
                assert stats["expired_at_admission"] == 1
                _assert_accounting(stats)
            assert service.calls == []  # dead work never reached the service
        asyncio.run(main())

    def test_deadline_shorter_than_one_batch_is_504_not_a_hang(self):
        async def main():
            release = threading.Event()

            def slow(tables, budget_s):
                assert release.wait(10.0)
                return [["late"] for _ in tables]

            service = FakeService(annotate=slow)
            async with running_gateway(service) as gateway:
                response = await asyncio.wait_for(
                    post_annotate(gateway, table_payload(make_table()),
                                  headers={DEADLINE_HEADER: "80"}),
                    5.0,
                )
                assert response.status == 504
                assert "micro-batch" in response.json()["detail"]
                stats = gateway.stats()
                assert stats["expired_in_flight"] == 1
                _assert_accounting(stats)
                release.set()  # let the stray batch finish before drain
        asyncio.run(main())

    def test_deadline_expiring_while_queued_is_504_not_a_hang(self):
        async def main():
            release = threading.Event()

            def gated(tables, budget_s):
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            service = FakeService(annotate=gated)
            async with running_gateway(service, max_batch=1,
                                       max_concurrent_batches=1,
                                       max_wait_ms=0.0) as gateway:
                hog = asyncio.create_task(
                    post_annotate(gateway, table_payload(make_table("hog")))
                )
                await asyncio.sleep(0.1)  # hog is in flight, holding the slot
                doomed = asyncio.create_task(
                    post_annotate(gateway, table_payload(make_table("doomed")),
                                  headers={DEADLINE_HEADER: "60"}),
                )
                response = await asyncio.wait_for(doomed, 5.0)
                assert response.status == 504  # expired queued, answered anyway
                release.set()
                assert (await asyncio.wait_for(hog, 5.0)).status == 200
                stats = gateway.stats()
                assert stats["shed_expired"] + stats["expired_in_flight"] >= 1
                _assert_accounting(stats)
        asyncio.run(main())

    def test_budget_rides_into_the_service(self):
        async def main():
            service = FakeService()
            async with running_gateway(service) as gateway:
                response = await post_annotate(
                    gateway, table_payload(make_table()),
                    headers={DEADLINE_HEADER: "5000"},
                )
                assert response.status == 200
            (count, budget_s), = service.calls
            assert count == 1
            assert budget_s == pytest.approx(5.0, abs=0.5)
        asyncio.run(main())

    def test_default_deadline_comes_from_the_service_policy(self):
        async def main():
            service = FakeService(policy=SimpleNamespace(timeout_s=0.08))

            def slow(tables, budget_s):
                time.sleep(0.5)
                return [["late"] for _ in tables]

            service._annotate = slow
            async with running_gateway(service) as gateway:
                assert gateway.default_deadline_ms() == pytest.approx(80.0)
                response = await asyncio.wait_for(
                    post_annotate(gateway, table_payload(make_table())), 5.0
                )
                assert response.status == 504  # header-less, policy bounded
        asyncio.run(main())

    def test_configured_default_overrides_policy(self):
        async def main():
            service = FakeService(policy=SimpleNamespace(timeout_s=0.01))
            async with running_gateway(service,
                                       default_deadline_ms=9000.0) as gateway:
                assert gateway.default_deadline_ms() == 9000.0
                response = await post_annotate(
                    gateway, table_payload(make_table())
                )
                assert response.status == 200
        asyncio.run(main())

    def test_zero_default_disables_deadlines(self):
        async def main():
            service = FakeService(policy=SimpleNamespace(timeout_s=0.01))
            async with running_gateway(service,
                                       default_deadline_ms=0.0) as gateway:
                assert gateway.default_deadline_ms() is None
                response = await post_annotate(
                    gateway, table_payload(make_table())
                )
                assert response.status == 200
            assert service.calls == [(1, None)]
        asyncio.run(main())


class TestOverload:
    def test_burst_beyond_queue_is_shed_and_fully_accounted(self):
        async def main():
            release = threading.Event()

            def gated(tables, budget_s):
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            service = FakeService(annotate=gated)
            async with running_gateway(service, max_batch=1, max_queue=1,
                                       max_concurrent_batches=1,
                                       max_wait_ms=0.0) as gateway:
                burst = [
                    asyncio.create_task(
                        post_annotate(gateway,
                                      table_payload(make_table(f"t{index}")))
                    )
                    for index in range(8)
                ]
                await asyncio.sleep(0.2)  # the burst lands on a held batcher
                release.set()
                responses = await asyncio.wait_for(asyncio.gather(*burst), 15.0)
                statuses = sorted(response.status for response in responses)
                assert set(statuses) <= {200, 503}
                assert statuses.count(200) >= 1
                assert statuses.count(503) >= 1  # the bound actually shed
                shed = [r for r in responses if r.status == 503]
                assert all(r.headers.get("retry-after") for r in shed)
                assert all(r.json()["error"] == "GatewayOverloaded"
                           for r in shed)
                stats = gateway.stats()
                assert stats["requests"] == 8
                assert stats["shed_queue_full"] >= 1
                _assert_accounting(stats)
        asyncio.run(main())


class TestDrain:
    def test_drain_answers_in_flight_and_refuses_new_work(self):
        async def main():
            started = threading.Event()
            release = threading.Event()

            def gated(tables, budget_s):
                started.set()
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            service = FakeService(annotate=gated)
            gateway = Gateway(service, GatewayConfig(port=0))
            await gateway.start()
            port = gateway.port
            # Pre-open a connection: the listener closes once drain begins.
            straggler = await HttpConnection.open("127.0.0.1", port)
            in_flight = asyncio.create_task(
                post_annotate(gateway, table_payload(make_table("inflight")))
            )
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            drain = asyncio.create_task(gateway.shutdown())
            await asyncio.sleep(0.1)
            assert gateway.state == "draining"
            late = await straggler.request(
                "POST", "/annotate", json_body=table_payload(make_table("late"))
            )
            assert late.status == 503  # draining refuses new work, loudly
            assert "draining" in late.json()["detail"]
            release.set()
            response = await asyncio.wait_for(in_flight, 10.0)
            assert response.status == 200  # admitted before drain → answered
            await asyncio.wait_for(drain, 10.0)
            assert gateway.state == "closed"
            assert not service.closed  # close_service defaults to False
            stats = gateway.stats()
            assert stats["rejected_draining"] == 1
            _assert_accounting(stats)
            await straggler.aclose()
        asyncio.run(main())

    def test_shutdown_can_close_the_service(self):
        async def main():
            service = FakeService()
            gateway = Gateway(service, GatewayConfig(port=0))
            await gateway.start()
            await gateway.shutdown(close_service=True)
            assert service.closed
        asyncio.run(main())

    def test_shutdown_is_idempotent_and_concurrent_safe(self):
        async def main():
            gateway = Gateway(FakeService(), GatewayConfig(port=0))
            await gateway.start()
            await asyncio.gather(gateway.shutdown(), gateway.shutdown())
            await gateway.shutdown()
            assert gateway.state == "closed"
        asyncio.run(main())

    def test_shutdown_before_start_just_closes(self):
        async def main():
            gateway = Gateway(FakeService())
            await gateway.shutdown()
            assert gateway.state == "closed"
        asyncio.run(main())

    def test_request_shutdown_drains_and_closes_the_service(self):
        async def main():
            service = FakeService()
            gateway = Gateway(service, GatewayConfig(port=0))
            await gateway.start()
            gateway.request_shutdown()  # the SIGTERM path, minus the signal
            await asyncio.wait_for(gateway._finished.wait(), 10.0)
            assert gateway.state == "closed"
            assert service.closed
        asyncio.run(main())


class TestCacheDoor:
    """A seat's answer ``cache`` answers all-hit requests before admission."""

    def test_all_hit_requests_skip_the_batcher(self):
        async def main():
            service = CachingFakeService()
            tables = [make_table(f"t{index}") for index in range(3)]
            for table in tables:
                seed_cache(service.cache, table, [f"stored:{table.table_id}"])
            async with running_gateway(service) as gateway:
                single = await post_annotate(gateway, table_payload(tables[0]))
                listed = await post_annotate(
                    gateway, [table_payload(table) for table in tables])
                stats = gateway.stats()
            assert single.status == listed.status == 200
            assert single.json() == {"table_id": "t0",
                                     "predictions": ["stored:t0"]}
            assert [entry["predictions"] for entry in listed.json()["results"]] \
                == [["stored:t0"], ["stored:t1"], ["stored:t2"]]
            assert service.calls == []  # annotate_batch never ran
            assert stats["batches"] == 0
            assert stats["answered_from_cache"] == stats["completed"] == 2
            _assert_accounting(stats)
        asyncio.run(main())

    def test_partial_hit_goes_through_the_batcher_with_the_same_answers(self):
        async def main():
            service = CachingFakeService()
            warm, cold = make_table("warm"), make_table("cold", columns=3)
            payload = [table_payload(warm), table_payload(cold)]
            async with running_gateway(service) as gateway:
                await post_annotate(gateway, table_payload(warm))
                partial = await post_annotate(gateway, payload)
                assert gateway.stats()["answered_from_cache"] == 0
                repeat = await post_annotate(gateway, payload)  # now all hits
                stats = gateway.stats()
            assert partial.status == repeat.status == 200
            assert partial.json() == repeat.json()
            # The partial hit dispatched only its cold table; no third batch.
            assert service.calls == [(1, None), (1, None)]
            assert stats["batches"] == 2
            assert stats["answered_from_cache"] == 1
            assert stats["completed"] == 3
            _assert_accounting(stats)
        asyncio.run(main())

    def test_door_answers_are_typed_as_a_counter(self):
        async def main():
            service = CachingFakeService()
            async with running_gateway(service) as gateway:
                for _ in range(2):
                    await post_annotate(gateway, table_payload(make_table()))
                return (await get(gateway, "/metrics")).body.decode()

        text = asyncio.run(main())
        assert "# TYPE kglink_gateway_answered_from_cache counter" in text
        assert "kglink_gateway_answered_from_cache 1" in text

    def test_draining_gateway_refuses_a_cached_table(self):
        async def main():
            started, release = threading.Event(), threading.Event()
            cached_table = make_table("cached")

            def gated(tables, budget_s):
                started.set()
                assert release.wait(10.0)
                return [["ok"] for _ in tables]

            service = CachingFakeService(annotate=gated)
            seed_cache(service.cache, cached_table, ["stored"])
            gateway = Gateway(service, GatewayConfig(port=0))
            await gateway.start()
            straggler = await HttpConnection.open("127.0.0.1", gateway.port)
            in_flight = asyncio.create_task(
                post_annotate(gateway, table_payload(make_table("inflight"))))
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            drain = asyncio.create_task(gateway.shutdown())
            await asyncio.sleep(0.1)
            assert gateway.state == "draining"
            late = await straggler.request(
                "POST", "/annotate", json_body=table_payload(cached_table))
            release.set()
            assert (await asyncio.wait_for(in_flight, 10.0)).status == 200
            await asyncio.wait_for(drain, 10.0)
            await straggler.aclose()
            assert late.status == 503
            assert "draining" in late.json()["detail"]
            stats = gateway.stats()
            assert stats["rejected_draining"] == 1
            assert stats["answered_from_cache"] == 0
            _assert_accounting(stats)
        asyncio.run(main())


class TestBatchingPolicy:
    def test_single_service_keeps_window_and_two_slots(self):
        async def main():
            async with running_gateway(FakeService(max_batch=8)) as gateway:
                assert gateway.batching_policy() == (8, 5.0, 2)
                stats = (await get(gateway, "/stats")).json()["gateway"]
                assert stats["max_wait_ms"] == 5.0
                assert stats["max_concurrent_batches"] == 2
                text = (await get(gateway, "/metrics")).body.decode()
                assert "kglink_gateway_max_wait_ms 5" in text
                assert "kglink_gateway_max_concurrent_batches 2" in text
        asyncio.run(main())

    def test_explicit_config_wins(self):
        gateway = Gateway(FakeService(), GatewayConfig(
            max_batch=4, max_wait_ms=0.0, max_concurrent_batches=3))
        assert gateway.batching_policy() == (4, 0.0, 3)


class TestLifecycle:
    def test_port_requires_start(self):
        gateway = Gateway(FakeService())
        with pytest.raises(RuntimeError, match="not started"):
            gateway.port

    def test_double_start_rejected(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                with pytest.raises(RuntimeError, match="already serving"):
                    await gateway.start()
        asyncio.run(main())

    def test_async_context_manager_drains(self):
        async def main():
            async with Gateway(FakeService(), GatewayConfig(port=0)) as gateway:
                assert gateway.state == "serving"
            assert gateway.state == "closed"
        asyncio.run(main())


class TestIntrospection:
    def test_healthz_serving_and_healthy_is_200(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                response = await get(gateway, "/healthz")
                assert response.status == 200
                payload = response.json()
                assert payload["status"] == "healthy"
                assert payload["gateway"] == "serving"
        asyncio.run(main())

    def test_healthz_failed_service_is_503(self):
        async def main():
            service = FakeService(health_status="failed")
            async with running_gateway(service) as gateway:
                response = await get(gateway, "/healthz")
                assert response.status == 503
                assert response.json()["status"] == "failed"
        asyncio.run(main())

    def test_stats_endpoint_merges_gateway_and_service(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                await post_annotate(gateway, table_payload(make_table()))
                payload = (await get(gateway, "/stats")).json()
                assert payload["gateway"]["completed"] == 1
                assert payload["gateway"]["state"] == "serving"
                assert payload["gateway"]["batches"] == 1
                assert "requests" in payload["service"]
        asyncio.run(main())

    def test_metrics_exposition_format(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                await post_annotate(gateway, table_payload(make_table()))
                response = await get(gateway, "/metrics")
                assert response.status == 200
                text = response.body.decode()
                assert "# TYPE kglink_gateway_requests counter" in text
                assert "kglink_gateway_completed 1" in text
                assert "kglink_service_requests" in text
        asyncio.run(main())

    def test_metrics_type_totals_as_counters_and_levels_as_gauges(self):
        async def main():
            async with running_gateway(FakeService()) as gateway:
                await post_annotate(gateway, table_payload(make_table()))
                return (await get(gateway, "/metrics")).body.decode()

        types: dict[str, str] = {}
        samples: list[str] = []
        for line in asyncio.run(main()).splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                types[name] = kind
            elif line:
                samples.append(line.split()[0])
        # Every sample is declared once, as one of the two kinds emitted.
        assert sorted(types) == sorted(samples)
        assert set(types.values()) == {"counter", "gauge"}
        assert types["kglink_gateway_requests"] == "counter"
        assert types["kglink_service_cache_hits"] == "counter"
        assert types["kglink_gateway_queue_depth"] == "gauge"
        assert types["kglink_gateway_mean_batch_size"] == "gauge"
