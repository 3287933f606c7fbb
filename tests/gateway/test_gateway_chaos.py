"""Gateway chaos suite: injected faults under real traffic, zero silent drops.

The invariant, end to end: **every request the gateway accepts is answered**
— 200 with bitwise-correct predictions, or a typed 5xx — no matter what
crashes, stalls or floods the seat underneath.  Faults are injected
deterministically with :class:`~repro.runtime.FaultPlan` on the wire of a
:class:`~repro.fleet.FleetRouter` over two thread replicas
(:class:`~repro.runtime.FaultyEndpoint`, as in
``tests/fleet/test_fleet_chaos.py``); the replicas serve a real trained
bundle, so the failover machinery between the gateway and the answers is
the production path, not a stub.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.data.corpus import TableCorpus
from repro.fleet import FleetRouter, ReplicaSupervisor, ThreadLauncher
from repro.fleet.wire import ReplicaClient
from repro.gateway import DEADLINE_HEADER, Gateway, GatewayConfig
from repro.runtime import FaultPlan, FaultyEndpoint, RuntimePolicy
from repro.serve import AnnotationService, ServiceBundle

from tests.gateway.util import get, post_annotate, running_gateway, table_payload

pytestmark = pytest.mark.chaos

TINY_CONFIG = KGLinkConfig(
    epochs=1, batch_size=4, learning_rate=1e-3, pretrain_steps=2,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=5, max_tokens_per_column=12, vocab_size=900,
    max_position_embeddings=140, max_feature_tokens=8,
)

#: One wire failure ejects a replica for the rest of the test, so a single
#: injected fault is enough to show up on ``/healthz``.
CHAOS_POLICY = RuntimePolicy(timeout_s=30.0, breaker_threshold=1, breaker_reset_s=60.0)

#: Every fault targets the first replica's batches; replica-1 stays sound.
FIRST_REPLICA = ("replica-0", "annotate_batch")


@pytest.fixture(scope="module")
def fitted(graph, linker, semtab_splits):
    train = TableCorpus("train", semtab_splits.train.tables[:8],
                        semtab_splits.train.label_vocabulary)
    annotator = KGLinkAnnotator(graph, TINY_CONFIG, linker=linker)
    annotator.fit(train)
    return annotator


@pytest.fixture(scope="module")
def serve_tables(semtab_splits):
    return semtab_splits.test.tables[:6]


@pytest.fixture(scope="module")
def bundle_dir(fitted, tmp_path_factory):
    return ServiceBundle.from_annotator(fitted).save(
        tmp_path_factory.mktemp("bundles") / "svc"
    )


@pytest.fixture(scope="module")
def expected(bundle_dir, serve_tables):
    """The fault-free annotations every degraded run must reproduce exactly."""
    service = AnnotationService.load(bundle_dir)
    try:
        return service.annotate_batch(serve_tables)
    finally:
        service.close()


def _faulty_fleet(bundle_dir, plan, sleeps=None):
    """Two thread replicas behind a router whose wire calls obey ``plan``.

    Replica-0 is first in slot order, so an idle fleet sends it the first
    batch: every scripted fault below is guaranteed to fire.
    """
    record = sleeps if sleeps is not None else []

    def endpoint_factory(name, address):
        client = ReplicaClient(address, name=name, default_timeout_s=30.0)
        return FaultyEndpoint(client, plan, name=name, sleep=record.append)

    supervisor = ReplicaSupervisor(
        ThreadLauncher(lambda name: AnnotationService.load(bundle_dir)), 2,
        policy=CHAOS_POLICY, heartbeat_interval_s=60.0, heartbeat_timeout_s=5.0,
    )
    supervisor.start()
    return FleetRouter(supervisor, own_supervisor=True,
                       endpoint_factory=endpoint_factory)


def _accounted(stats: dict) -> bool:
    answered = (stats["completed"] + stats["errors"]
                + stats["rejected_draining"] + stats["expired_at_admission"]
                + stats["expired_in_flight"])
    return stats["requests"] == answered


async def _fire(gateway, serve_tables, headers=None):
    return await asyncio.gather(*[
        post_annotate(gateway, table_payload(table), headers=headers)
        for table in serve_tables
    ])


class TestFaultsUnderTraffic:
    def test_worker_crash_mid_batch_answers_every_rider(self, bundle_dir,
                                                        serve_tables, expected):
        plan = FaultPlan().fail(ConnectionResetError("replica died mid-batch"),
                                times=1, match=lambda task: task == FIRST_REPLICA)
        with _faulty_fleet(bundle_dir, plan) as router:
            async def main():
                async with running_gateway(router, max_batch=16) as gateway:
                    responses = await asyncio.wait_for(
                        _fire(gateway, serve_tables), 60.0
                    )
                    statuses = [response.status for response in responses]
                    predictions = [response.json().get("predictions")
                                   for response in responses]
                    stats = gateway.stats()
                    return statuses, predictions, stats
            statuses, predictions, stats = asyncio.run(main())
            # The crash was failed over behind the gateway: same answers.
            assert statuses == [200] * len(serve_tables)
            assert predictions == expected
            assert _accounted(stats)
            assert len(plan.fired) == 1
            assert router.stats().failovers == 1

    def test_dead_replica_degrades_but_keeps_answering(self, bundle_dir,
                                                       serve_tables, expected):
        plan = FaultPlan().fail(ConnectionResetError("replica-0 is gone"),
                                times=None,
                                match=lambda task: task == FIRST_REPLICA)
        with _faulty_fleet(bundle_dir, plan) as router:
            async def main():
                async with running_gateway(router) as gateway:
                    responses = await asyncio.wait_for(
                        _fire(gateway, serve_tables), 60.0
                    )
                    followup = (await post_annotate(gateway, table_payload(
                        serve_tables[0]))).status  # still serving afterwards
                    return [r.status for r in responses], \
                        [r.json().get("predictions") for r in responses], \
                        followup, gateway.stats()
            statuses, predictions, followup, stats = asyncio.run(main())
            # The sibling replica keeps every answer identical at 200.
            assert statuses == [200] * len(serve_tables)
            assert predictions == expected
            assert followup == 200
            assert _accounted(stats)
            assert router.stats().replica_errors >= 1
            assert router.health().status == "degraded"

    def test_slow_replica_delays_on_injected_clock_only(self, bundle_dir,
                                                        serve_tables, expected):
        sleeps: list[float] = []
        plan = FaultPlan().delay(0.5, times=2)
        with _faulty_fleet(bundle_dir, plan, sleeps) as router:
            async def main():
                async with running_gateway(router) as gateway:
                    responses = await asyncio.wait_for(
                        _fire(gateway, serve_tables), 60.0
                    )
                    return responses, gateway.stats()
            responses, stats = asyncio.run(main())
            assert [r.status for r in responses] == [200] * len(serve_tables)
            assert [r.json().get("predictions") for r in responses] == expected
            assert _accounted(stats)
        assert sleeps == [0.5] * len(sleeps)
        assert len(sleeps) >= 1  # the slowdown fired, on the injected clock

    def test_healthz_reflects_degradation_not_death(self, bundle_dir,
                                                    serve_tables):
        plan = FaultPlan().fail(ConnectionResetError("replica died mid-batch"),
                                times=1, match=lambda task: task == FIRST_REPLICA)
        with _faulty_fleet(bundle_dir, plan) as router:
            async def main():
                async with running_gateway(router) as gateway:
                    await _fire(gateway, serve_tables[:2])
                    return await get(gateway, "/healthz"), gateway.stats()
            response, stats = asyncio.run(main())
            # Degraded is still serving: 200, with the status spelled out.
            assert response.status == 200
            assert response.json()["status"] == "degraded"
            assert _accounted(stats)


class TestBurstOverload:
    def test_overload_sheds_typed_and_accounts_for_everything(self, bundle_dir,
                                                              serve_tables):
        service = AnnotationService.load(bundle_dir)
        try:
            async def main():
                async with running_gateway(service, max_batch=1, max_queue=2,
                                           max_concurrent_batches=1,
                                           max_wait_ms=0.0) as gateway:
                    burst = [
                        asyncio.create_task(post_annotate(
                            gateway,
                            table_payload(serve_tables[i % len(serve_tables)]),
                            headers={DEADLINE_HEADER: "30000"},
                        ))
                        for i in range(12)
                    ]
                    responses = await asyncio.wait_for(
                        asyncio.gather(*burst), 120.0
                    )
                    return responses, gateway.stats()
            responses, stats = asyncio.run(main())
            statuses = [response.status for response in responses]
            # Nobody hangs, nobody vanishes: 12 in, 12 typed answers out.
            assert len(statuses) == 12
            assert set(statuses) <= {200, 503, 504}
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1  # the bound really shed
            for response in responses:
                if response.status == 503:
                    assert response.headers.get("retry-after")
                    assert response.json()["error"] == "GatewayOverloaded"
            assert stats["requests"] == 12
            assert _accounted(stats)
        finally:
            service.close()


class TestDrainUnderTraffic:
    def test_sigterm_style_drain_answers_admitted_work(self, bundle_dir,
                                                       serve_tables):
        service = AnnotationService.load(bundle_dir)
        started = threading.Event()
        inner_annotate = service.annotate_batch

        def slow_annotate(tables, budget_s=None):
            started.set()
            return inner_annotate(tables, budget_s=budget_s)

        service_proxy = _Proxy(service, slow_annotate)

        async def main():
            gateway = Gateway(service_proxy, GatewayConfig(
                port=0, max_batch=2, max_wait_ms=10.0,
            ))
            await gateway.start()
            in_flight = [
                asyncio.create_task(post_annotate(
                    gateway, table_payload(table)))
                for table in serve_tables[:4]
            ]
            await asyncio.get_running_loop().run_in_executor(None, started.wait)
            await asyncio.wait_for(gateway.shutdown(close_service=True), 60.0)
            responses = await asyncio.wait_for(
                asyncio.gather(*in_flight), 60.0
            )
            return responses, gateway.stats(), gateway.state

        responses, stats, state = asyncio.run(main())
        # Everything admitted before the drain is answered — 200 or a typed
        # draining 503 for the stragglers that missed admission — and the
        # service is torn down only afterwards.
        assert state == "closed"
        assert {r.status for r in responses} <= {200, 503}
        assert any(r.status == 200 for r in responses)
        assert _accounted(stats)
        assert service._closed  # shutdown(close_service=True) reached it


class _Proxy:
    """A service wrapper that lets one test interpose on ``annotate_batch``."""

    def __init__(self, service, annotate):
        self._service = service
        self._annotate = annotate

    def annotate_batch(self, tables, budget_s=None):
        return self._annotate(tables, budget_s=budget_s)

    def __getattr__(self, name):
        return getattr(self._service, name)
