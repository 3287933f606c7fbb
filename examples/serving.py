#!/usr/bin/env python3
"""Serve a trained KGLink system: train → bundle → load → annotate at volume.

The serving-first flow introduced by ``repro.serve``:

1. train once with the research facade (:class:`repro.core.KGLinkAnnotator`);
2. export a serving front door in-process (``annotator.into_service()``)
   and persist a self-contained bundle (``service.save(...)``) — config,
   tokenizer, label vocabulary, model weights, the *compiled* retrieval
   index arrays and a knowledge-graph snapshot;
3. in the serving process, ``AnnotationService.load(bundle_dir)`` — no
   ``KnowledgeGraph`` object, no index rebuild;
4. answer one ``annotate_batch`` request;
5. watch the per-request telemetry (``service.stats()``);
6. put the async HTTP gateway (``repro.gateway``) in front and fire mixed
   ``X-Deadline-Ms`` traffic at it: requests with room coalesce into
   shared micro-batches, hopeless budgets are refused with typed 504s,
   and the accounting proves nothing was silently dropped;
7. replicate the tier (``repro.fleet``): two worker *processes* each load
   the same bundle behind one gateway — a supervisor keeps them alive, a
   router picks the least-loaded replica per batch, and a shared results
   cache answers repeat tables from router memory (the second pass of the
   same traffic never touches a replica, and the gateway answers it on its
   event loop without a micro-batch);
8. operate under failure: script a deterministic replica fault with
   ``FaultPlan`` / ``FaultyEndpoint`` on the same fleet's wire and watch
   the router fail the batch over to the other replica — the answers stay
   bitwise-identical.

Run with::

    python examples/serving.py
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

from repro.core import KGLinkAnnotator, KGLinkConfig
from repro.data import SemTabConfig, SemTabGenerator, stratified_split
from repro.fleet import FleetRouter, ProcessLauncher, ReplicaClient, ReplicaSupervisor
from repro.gateway import DEADLINE_HEADER, Gateway, GatewayConfig, HttpConnection
from repro.kg import KGWorldConfig, build_default_kg
from repro.runtime import FaultPlan, FaultyEndpoint
from repro.serve import AnnotationService


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="kglink-serving-demo-"))

    print("1) training KGLink on a synthetic corpus ...")
    world = build_default_kg(KGWorldConfig().scaled(0.35))
    corpus = SemTabGenerator(world, SemTabConfig(num_tables=120)).generate()
    splits = stratified_split(corpus)
    annotator = KGLinkAnnotator(
        world.graph,
        KGLinkConfig(epochs=4, batch_size=8, learning_rate=1e-3, pretrain_steps=20,
                     top_k_rows=10),
    )
    annotator.fit(splits.train, splits.validation)
    print(f"   fitted in {annotator.fit_seconds:.1f}s")

    print("2) exporting the service and saving a self-contained bundle ...")
    bundle_dir = annotator.into_service().save(workdir / "bundle")
    size_kb = sum(f.stat().st_size for f in bundle_dir.iterdir()) / 1024
    print(f"   {bundle_dir} ({size_kb:.0f} KiB: manifest.json, model.npz, "
          "index.npz, graph.json)")

    print("3) loading the bundle in 'the serving process' (no graph, no rebuild) ...")
    start = time.perf_counter()
    service = AnnotationService.load(bundle_dir, max_batch=16)
    print(f"   ready in {time.perf_counter() - start:.2f}s")

    tables = splits.test.tables
    print(f"4) annotating {len(tables)} tables in one batch request ...")
    start = time.perf_counter()
    predictions = service.annotate_batch(tables)
    elapsed = time.perf_counter() - start
    print(f"   {len(tables) / elapsed:.0f} tables/s; "
          f"first table -> {predictions[0]}")

    stats = service.stats()
    print("5) telemetry:")
    print(f"   requests={stats.requests}  tables={stats.tables}")
    print(f"   part1 {stats.part1_seconds * 1e3:.0f} ms total, "
          f"encode {stats.encode_seconds * 1e3:.0f} ms total")
    print(f"   bucket fill {stats.bucket_fill:.0%}  "
          f"cache hit rate {stats.cache_hit_rate:.0%}")

    print("6) fronting the service with the async gateway "
          "(mixed-deadline traffic) ...")
    asyncio.run(gateway_demo(bundle_dir, tables, predictions))

    print("7) replicating the tier: 2 worker processes behind one gateway ...")
    # Every replica call goes through a FaultyEndpoint: its plan is empty
    # (fault-free) until step 8 scripts a failure on the same fleet.
    plan = FaultPlan(seed=0)

    def endpoint_factory(name, address):
        client = ReplicaClient(address, name=name, default_timeout_s=30.0)
        return FaultyEndpoint(client, plan, name=name)

    launcher = ProcessLauncher(bundle_dir, service_kwargs={"max_batch": 16})
    supervisor = ReplicaSupervisor(launcher, replicas=2)
    supervisor.start()
    router = FleetRouter(supervisor, own_supervisor=True,
                         endpoint_factory=endpoint_factory)
    try:
        asyncio.run(fleet_demo(router, tables, predictions))
        replica_fault_demo(router, plan, service, splits.validation.tables)
    finally:
        # Graceful drain: the router drains its dispatches, then the
        # supervisor SIGTERMs both replicas and waits for them to exit.
        router.close()
    assert supervisor.stats()["up"] == 0
    service.close()
    print("   drained: both replicas terminated, accounting balanced")


def replica_fault_demo(router: FleetRouter, plan: FaultPlan,
                       service: AnnotationService, tables) -> None:
    """Step 9: a scripted replica death mid-batch, absorbed by failover."""
    print("8) operating under failure: the next replica batch dies "
          "mid-request ...")
    # Tables the fleet has not seen, so the shared results cache cannot
    # answer them and the batch must travel the wire.
    expected = service.annotate_batch(tables)
    before = router.stats()
    # Deterministic and injected at the wire boundary: no process is
    # killed, yet the router sees exactly what a replica dying mid-batch
    # looks like (a connection reset).
    plan.fail(ConnectionResetError("injected: replica died mid-batch"),
              times=1, match=lambda task: task[1] == "annotate_batch")
    shaken = router.annotate_batch(tables)
    assert shaken == expected, "failover must keep answers bitwise-identical"
    stats = router.stats()
    victim = plan.fired[0][2][0]
    print(f"   {victim} reset mid-batch; failovers="
          f"{stats.failovers - before.failovers}  replica_errors="
          f"{stats.replica_errors - before.replica_errors} — answers identical "
          "to the single-process service")
    print(f"   fleet health={router.health().status} (one failure stays under "
          "the breaker threshold)")


async def gateway_demo(bundle_dir: Path, tables, predictions) -> None:
    """Step 7: the overload-safe HTTP tier under mixed-deadline traffic."""
    payloads = [
        {"table_id": table.table_id,
         "columns": [{"name": column.name, "cells": list(column.cells)}
                     for column in table.columns]}
        for table in tables
    ]
    service = AnnotationService.load(bundle_dir, max_batch=16)
    # default_deadline_ms=0: only the header counts, so the demo controls
    # every request's budget explicitly.
    async with Gateway(service, GatewayConfig(
        port=0, max_wait_ms=5.0, default_deadline_ms=0.0,
    )) as gateway:
        print(f"   listening on 127.0.0.1:{gateway.port} "
              "(POST /annotate, GET /healthz /stats /metrics)")

        async def fire(index: int) -> tuple[int, float]:
            # Three of four requests get a generous budget; the fourth gets
            # a hopeless one the serving path cannot possibly meet.
            budget_ms = 0.5 if index % 4 == 3 else 30_000.0
            async with await HttpConnection.open(
                "127.0.0.1", gateway.port
            ) as connection:
                start = time.perf_counter()
                response = await connection.request(
                    "POST", "/annotate",
                    json_body=payloads[index % len(payloads)],
                    headers={DEADLINE_HEADER: f"{budget_ms:g}"},
                )
            return response.status, (time.perf_counter() - start) * 1e3

        outcomes = await asyncio.gather(*[fire(index) for index in range(32)])
        statuses = [status for status, _ in outcomes]
        ok_ms = sorted(ms for status, ms in outcomes if status == 200)
        assert all(status in (200, 503, 504) for status in statuses), statuses
        assert 200 in statuses and 504 in statuses
        summary = "  ".join(
            f"{status}×{statuses.count(status)}"
            for status in sorted(set(statuses))
        )
        print(f"   32 concurrent requests -> {summary}")
        print(f"   successful p50 {ok_ms[len(ok_ms) // 2]:.0f} ms "
              f"(max {ok_ms[-1]:.0f} ms); hopeless 0.5 ms budgets were "
              "refused with typed 504s, not left to time out")

        stats = gateway.stats()
        answered = (stats["completed"] + stats["errors"]
                    + stats["rejected_draining"] + stats["expired_at_admission"]
                    + stats["expired_in_flight"])
        assert answered == stats["requests"], stats
        print(f"   accounting: {stats['requests']} requests = "
              f"{stats['completed']} completed + "
              f"{stats['errors'] + stats['expired_at_admission'] + stats['expired_in_flight']} "
              f"typed errors — zero silent drops; mean micro-batch "
              f"{stats['mean_batch_size']:.1f} tables")
    # Gateway.__aexit__ drained in flight and (close_service left False)
    # the service is still ours to close.
    service.close()


async def fleet_demo(router: FleetRouter, tables, predictions) -> None:
    """Step 8: mixed-deadline traffic at a 2-replica fleet, then the same
    traffic again so the shared results cache answers from router memory."""
    payloads = [
        {"table_id": table.table_id,
         "columns": [{"name": column.name, "cells": list(column.cells)}
                     for column in table.columns]}
        for table in tables
    ]
    async with Gateway(router, GatewayConfig(
        port=0, default_deadline_ms=0.0,
    )) as gateway:
        members = router.health().replicas
        print(f"   listening on 127.0.0.1:{gateway.port}; replicas: "
              + ", ".join(sorted(members)))

        async def fire(index: int, budget_ms: float) -> tuple[int, float, int]:
            async with await HttpConnection.open(
                "127.0.0.1", gateway.port
            ) as connection:
                start = time.perf_counter()
                response = await connection.request(
                    "POST", "/annotate",
                    json_body=payloads[index % len(payloads)],
                    headers={DEADLINE_HEADER: f"{budget_ms:g}"},
                )
            if response.status == 200:
                got = response.json()["predictions"]
                want = predictions[index % len(payloads)]
                assert got == want, "fleet answers must be bitwise-identical"
            return response.status, (time.perf_counter() - start) * 1e3, index

        async def wave() -> list[tuple[int, float, int]]:
            # The same mix as step 6: three generous budgets, one hopeless.
            return await asyncio.gather(*[
                fire(index, 0.5 if index % 4 == 3 else 30_000.0)
                for index in range(32)
            ])

        first = await wave()
        second = await wave()
        for label, outcomes in (("cold", first), ("warm", second)):
            statuses = [status for status, _, _ in outcomes]
            ok_ms = sorted(ms for status, ms, _ in outcomes if status == 200)
            assert all(status in (200, 503, 504) for status in statuses)
            summary = "  ".join(
                f"{status}×{statuses.count(status)}"
                for status in sorted(set(statuses))
            )
            print(f"   {label} pass: {summary}; successful p50 "
                  f"{ok_ms[len(ok_ms) // 2]:.1f} ms")

        stats = router.stats()
        cache = stats.results_cache
        print(f"   routing: {stats.dispatches} replica dispatches for "
              f"{stats.requests} requests; shared cache "
              f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses"
              f" / {cache.get('coalesced', 0)} coalesced — the warm pass "
              "was answered from router memory")
        door = gateway.stats()["answered_from_cache"]
        print(f"   gateway door: {door} all-hit requests answered on the "
              "event loop, with no micro-batch or executor thread")
        fleet = stats.supervisor
        print(f"   supervisor: spawned={fleet.get('spawned', 0)} "
              f"up={fleet.get('up', 0)} restarts={fleet.get('restarts', 0)} "
              f"(spawned == replicas + restarts)")
        assert router.health().status == "healthy"


if __name__ == "__main__":
    main()
