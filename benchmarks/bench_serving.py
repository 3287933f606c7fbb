"""Gateway serving benchmark: coalescing, capacity and overload behaviour.

Trains the same tiny KGLink system as ``bench_retrieval.py``'s serving
section, puts a :class:`~repro.gateway.Gateway` in front of it on a loopback
socket, and measures the serving tier end to end — HTTP parse, admission,
micro-batching, PLM inference, response — with real concurrent clients on
one event loop:

* **closed loop** (8 keep-alive connections, each firing its next request as
  the previous answer lands): sustained capacity in tables/second and the
  p50/p99 request latency at full utilisation;
* **coalescing speedup**: the same closed loop against a gateway with
  micro-batching disabled (``max_batch=1``) — the ratio isolates what
  request coalescing buys on the vectorized Part-2 path;
* **open loop** at 0.5×/1×/2× of the measured capacity: requests arrive on a
  fixed schedule whether or not earlier ones finished (the overload shape a
  closed loop can never produce), each carrying an ``X-Deadline-Ms`` budget.
  Per rate the run records throughput, goodput, shed/expired rates and the
  p50/p99 of successful answers — at 2× the gateway must shed with typed
  503/504s while every request still gets an answer (``answered_rate`` is
  gated at 1.0 in CI);
* **fleet tier**: the same closed loop against a 2-replica
  ``repro.fleet`` deployment (worker processes behind the gateway) of the
  same bundle — ``fleet.scaling_2_replicas`` is fleet throughput over the
  single-process capacity, and a second warmed pass measures the shared
  results cache's hit path, which the gateway answers on its event loop
  (``fleet.cache_hit_p50_ms`` and the miss-over-hit
  ``fleet.cache_hit_speedup``).

The single-process service and every replica run with ``cache_size=0``:
the request pool repeats, and a seat's answer cache would otherwise let the
gateway answer the measured loops at its door.  So every number except the
hit path measures Part 1 (over warm linker memos) plus Part 2.

Results go to JSON (``scripts/run_benchmarks.sh`` commits them as
``BENCH_serving.json``); ``scripts/check_bench_regression.py`` gates the
hardware-independent ratios per PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py --output BENCH_serving.json
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import tempfile
import time
from datetime import datetime, timezone

from repro.gateway import DEADLINE_HEADER, Gateway, GatewayConfig, HttpConnection

CLIENT_CONNECTIONS = 8
OVERLOAD_FACTORS = {"overload_x0_5": 0.5, "overload_x1": 1.0, "overload_x2": 2.0}
#: Measured laps over the request pool on the fleet's miss and hit paths.
MISS_LAPS, HIT_LAPS = 12, 96


# --------------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------------- #
def build_service(seed: int, n_tables: int, max_batch: int):
    """The tiny trained serving stack (mirrors bench_retrieval's serving run)."""
    from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
    from repro.data.corpus import TableCorpus
    from repro.data.semtab import SemTabConfig, SemTabGenerator
    from repro.kg.builder import KGWorldConfig, build_default_kg

    world = build_default_kg(KGWorldConfig(seed=seed + 5).scaled(0.25))
    corpus = SemTabGenerator(
        world, SemTabConfig(num_tables=16 + n_tables, seed=seed + 9)
    ).generate()
    train = TableCorpus("train", corpus.tables[:16], corpus.label_vocabulary)
    serve_tables = corpus.tables[16 : 16 + n_tables]

    config = KGLinkConfig(
        epochs=1, batch_size=8, learning_rate=1e-3, pretrain_steps=4,
        hidden_size=32, num_layers=2, num_heads=2, intermediate_size=48,
        top_k_rows=6, max_tokens_per_column=12, vocab_size=1200,
        max_position_embeddings=160, max_feature_tokens=10, seed=seed,
    )
    annotator = KGLinkAnnotator(world.graph, config)
    annotator.fit(train)
    service = annotator.into_service(max_batch=max_batch, cache_size=0)
    service.annotate_batch(serve_tables)  # warm the linker and Part-1 memos
    return service, serve_tables, annotator


def payload_of(table) -> dict:
    return {
        "table_id": table.table_id,
        "columns": [{"name": column.name, "cells": list(column.cells)}
                    for column in table.columns],
    }


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


# --------------------------------------------------------------------------- #
# closed loop: capacity and latency at full utilisation
# --------------------------------------------------------------------------- #
async def closed_loop(port: int, payloads: list[dict], n_requests: int,
                      connections: int = CLIENT_CONNECTIONS):
    """``connections`` clients each firing as fast as answers come back."""
    counter = itertools.count()
    latencies_ms: list[float] = []

    async def client() -> None:
        connection = await HttpConnection.open("127.0.0.1", port)
        try:
            while True:
                index = next(counter)
                if index >= n_requests:
                    return
                start = time.perf_counter()
                response = await connection.request(
                    "POST", "/annotate",
                    json_body=payloads[index % len(payloads)],
                )
                latencies_ms.append((time.perf_counter() - start) * 1e3)
                if response.status != 200:
                    raise RuntimeError(
                        f"closed-loop request failed: {response.status} "
                        f"{response.body[:200]!r}"
                    )
        finally:
            await connection.aclose()

    start = time.perf_counter()
    await asyncio.gather(*[client() for _ in range(connections)])
    elapsed = time.perf_counter() - start
    return {
        "tables_per_second": round(n_requests / elapsed, 1),
        "p50_ms": round(percentile(latencies_ms, 0.50), 2),
        "p99_ms": round(percentile(latencies_ms, 0.99), 2),
        "n_requests": n_requests,
        "connections": connections,
    }


# --------------------------------------------------------------------------- #
# open loop: fixed-rate arrivals with deadlines (the overload shape)
# --------------------------------------------------------------------------- #
async def open_loop(port: int, payloads: list[dict], rate_rps: float,
                    n_requests: int, deadline_ms: float) -> dict:
    """Fire ``n_requests`` at ``rate_rps`` whether or not earlier ones finished.

    Each request takes an idle keep-alive connection, one request at a time
    per connection, and dials a new one only when none is idle.  So the run
    opens about as many connections as requests are ever in flight at once,
    not one per request: thousands of closed sockets left in TIME-WAIT by
    back-to-back runs would exhaust the ephemeral ports and fail requests
    on connect.
    """
    loop = asyncio.get_running_loop()
    outcomes: list[tuple[int, float]] = []
    headers = {DEADLINE_HEADER: f"{deadline_ms:g}"}
    idle: list[HttpConnection] = []

    async def fire(index: int, at: float) -> None:
        delay = at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        start = time.perf_counter()
        connection = idle.pop() if idle else None
        try:
            if connection is None:
                connection = await HttpConnection.open("127.0.0.1", port)
            response = await connection.request(
                "POST", "/annotate",
                json_body=payloads[index % len(payloads)], headers=headers,
            )
            status = response.status
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            status = -1  # a dropped connection would break answered_rate
        outcomes.append((status, (time.perf_counter() - start) * 1e3))
        if connection is None:
            return
        if status == -1 or response.headers.get("connection") == "close":
            await connection.aclose()
        else:
            idle.append(connection)

    first = loop.time() + 0.05
    start = time.perf_counter()
    await asyncio.gather(*[
        fire(index, first + index / rate_rps) for index in range(n_requests)
    ])
    elapsed = time.perf_counter() - start
    for connection in idle:
        await connection.aclose()

    statuses = [status for status, _ in outcomes]
    ok_latencies = [latency for status, latency in outcomes if status == 200]
    n = len(outcomes)
    n_ok = statuses.count(200)
    n_shed = statuses.count(503)
    n_expired = statuses.count(504)
    p99 = percentile(ok_latencies, 0.99)
    return {
        "offered_rps": round(rate_rps, 1),
        "n_requests": n,
        "deadline_ms": deadline_ms,
        "throughput_rps": round(n / elapsed, 1),
        "goodput_rps": round(n_ok / elapsed, 1),
        # Every request must come back with *some* typed status — the
        # zero-silent-drops invariant, gated at 1.0 in CI.
        "answered_rate": round(sum(
            1 for status in statuses if status in (200, 503, 504)
        ) / n, 4),
        "goodput_rate": round(n_ok / n, 4),
        "shed_rate": round(n_shed / n, 4),
        "expired_rate": round(n_expired / n, 4),
        "p50_ms": round(percentile(ok_latencies, 0.50), 2),
        "p99_ms": round(p99, 2),
        # Successful answers must land inside their budget (the response
        # edge enforces it server-side; the slack covers client-side I/O).
        "p99_over_deadline": round(p99 / deadline_ms, 4),
        "statuses": {str(status): statuses.count(status)
                     for status in sorted(set(statuses))},
    }


# --------------------------------------------------------------------------- #
# fleet tier: 2 worker processes behind the gateway, shared results cache
# --------------------------------------------------------------------------- #
def bench_fleet(bundle_dir, payloads: list[dict], *, replicas: int,
                max_batch: int, service_max_batch: int) -> dict:
    """Closed-loop capacity of a process-replica fleet, plus the cache hit path.

    The gateway runs the fleet's derived batching policy, as
    ``python -m repro.fleet`` ships it: one batch slot per replica and no
    coalescing window.

    Two passes over the same bundle: one with the shared results cache
    disabled (``maxsize=0``) so every request travels the wire to a replica
    — the fan-out scaling number — and one with the cache warmed so the
    measured loop is answered from router memory — the hit-path latency.
    A hit is answered at the gateway's door (the router cache's ``lookup``
    on the event loop), with no admission queue, batch or executor thread;
    the clients share that loop, so their own cost is part of the number.
    A hit costs a tenth of a miss, so the hit loop runs ``HIT_LAPS`` laps
    of the pool, eight times ``MISS_LAPS``, for its p50 to resolve.
    Replicas start with ``cache_size=0``, as ``python -m repro.fleet``
    starts them, so a miss runs Part 1 and Part 2 in a replica.
    """
    from repro.fleet import (
        FleetRouter,
        ProcessLauncher,
        ReplicaSupervisor,
        SharedResultsCache,
    )

    def fleet_router(cache_size: int) -> FleetRouter:
        launcher = ProcessLauncher(
            bundle_dir,
            service_kwargs={"max_batch": service_max_batch, "cache_size": 0},
        )
        supervisor = ReplicaSupervisor(launcher, replicas,
                                       heartbeat_interval_s=60.0)
        supervisor.start()
        return FleetRouter(supervisor,
                           cache=SharedResultsCache(maxsize=cache_size),
                           max_batch=max_batch, own_supervisor=True)

    config = GatewayConfig(port=0, max_batch=max_batch, default_deadline_ms=0.0)

    async def measure(router, laps: int) -> dict:
        async with Gateway(router, config) as gateway:
            await closed_loop(gateway.port, payloads, len(payloads))  # warm-up
            return await closed_loop(gateway.port, payloads,
                                     laps * len(payloads))

    # Miss path: every request is annotated by a replica.
    router = fleet_router(0)
    try:
        nocache = asyncio.run(measure(router, MISS_LAPS))
    finally:
        router.close()

    # Hit path: the warm-up pass fills the shared cache; the gateway answers
    # the measured loop from router memory without touching a replica.
    router = fleet_router(4096)
    try:
        cached = asyncio.run(measure(router, HIT_LAPS))
        cache_stats = router.stats().results_cache
    finally:
        router.close()

    return {
        "replicas": replicas,
        "tables_per_second": nocache["tables_per_second"],
        "p50_ms": nocache["p50_ms"],
        "p99_ms": nocache["p99_ms"],
        "cache_hit_tables_per_second": cached["tables_per_second"],
        "cache_hit_p50_ms": cached["p50_ms"],
        "cache_hit_p99_ms": cached["p99_ms"],
        "cache_hits": cache_stats["hits"],
        # Miss-path p50 over hit-path p50: what the shared cache buys.
        "cache_hit_speedup": round(
            nocache["p50_ms"] / max(cached["p50_ms"], 1e-6), 2
        ),
    }


# --------------------------------------------------------------------------- #
async def run_benchmark(service, serve_tables, *, max_batch: int,
                        max_wait_ms: float, seconds_per_rate: float) -> dict:
    payloads = [payload_of(table) for table in serve_tables]

    def config(**overrides) -> GatewayConfig:
        base = dict(port=0, max_batch=max_batch, max_wait_ms=max_wait_ms,
                    max_concurrent_batches=2, default_deadline_ms=0.0)
        base.update(overrides)
        return GatewayConfig(**base)

    # Closed loop, coalescing on: sustained capacity.
    async with Gateway(service, config()) as gateway:
        await closed_loop(gateway.port, payloads, len(payloads))  # warm-up
        capacity = await closed_loop(gateway.port, payloads, 12 * len(payloads))
        coalesced_stats = gateway.stats()

    # Closed loop, coalescing off: what micro-batching is worth.
    async with Gateway(service, config(max_batch=1)) as gateway:
        await closed_loop(gateway.port, payloads, len(payloads))  # warm-up
        uncoalesced = await closed_loop(gateway.port, payloads,
                                        12 * len(payloads))

    capacity_rps = capacity["tables_per_second"]
    deadline_ms = float(min(2000.0, max(250.0, 20.0 * capacity["p50_ms"])))
    # Bound the queue at a quarter-deadline of work: sustained overload must
    # turn into typed shedding, not an ever-deeper queue that quietly eats
    # the deadline.  (The closed loop under-estimates true capacity — open
    # arrivals coalesce better — so the bound has to bind well below 2×.)
    max_queue = max(8, int(capacity_rps * deadline_ms / 1e3 / 4))

    overload: dict[str, dict] = {}
    for name, factor in OVERLOAD_FACTORS.items():
        rate = capacity_rps * factor
        n_requests = max(40, min(2500, int(rate * seconds_per_rate)))
        async with Gateway(service, config(max_queue=max_queue)) as gateway:
            overload[name] = await open_loop(
                gateway.port, payloads, rate, n_requests, deadline_ms
            )

    return {
        "capacity_tables_per_second": capacity_rps,
        "closed_loop_p50_ms": capacity["p50_ms"],
        "closed_loop_p99_ms": capacity["p99_ms"],
        "uncoalesced_tables_per_second": uncoalesced["tables_per_second"],
        "batch_coalescing_speedup": round(
            capacity_rps / uncoalesced["tables_per_second"], 2
        ),
        "coalesced_mean_batch_size": coalesced_stats["mean_batch_size"],
        "client_connections": CLIENT_CONNECTIONS,
        "deadline_ms": deadline_ms,
        "max_queue": max_queue,
        **overload,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-tables", type=int, default=48,
                        help="distinct tables in the request pool")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=4.0)
    parser.add_argument("--seconds-per-rate", type=float, default=6.0,
                        help="target duration of each open-loop overload run")
    parser.add_argument("--replicas", type=int, default=2,
                        help="fleet-tier worker processes (0 skips the fleet run)")
    parser.add_argument("--output", type=str, default=None,
                        help="write results JSON here (default: stdout only)")
    args = parser.parse_args()

    print(f"training the tiny serving stack (seed={args.seed}, "
          f"{args.n_tables} serve tables)...", flush=True)
    service, serve_tables, annotator = build_service(args.seed, args.n_tables,
                                                     args.max_batch)
    try:
        gateway_metrics = asyncio.run(run_benchmark(
            service, serve_tables, max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            seconds_per_rate=args.seconds_per_rate,
        ))
    finally:
        service.close()

    fleet_metrics = None
    if args.replicas > 0:
        from repro.serve import ServiceBundle

        print(f"fleet tier: {args.replicas} worker processes...", flush=True)
        with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
            bundle_dir = ServiceBundle.from_annotator(annotator).save(
                f"{tmp}/svc"
            )
            fleet_metrics = bench_fleet(
                bundle_dir, [payload_of(table) for table in serve_tables],
                replicas=args.replicas, max_batch=args.max_batch,
                service_max_batch=args.max_batch,
            )
        # Fleet throughput over the single-process gateway's capacity on
        # the same bundle.  On a single-core runner the replicas share one
        # core and this sits near (or below) 1.0 — the CI gate is wide for
        # exactly that reason; see scripts/check_bench_regression.py.
        fleet_metrics[f"scaling_{args.replicas}_replicas"] = round(
            fleet_metrics["tables_per_second"]
            / gateway_metrics["capacity_tables_per_second"], 2
        )

    results = {
        "generated_utc": datetime.now(timezone.utc).isoformat(),
        "config": {
            "seed": args.seed,
            "n_tables": args.n_tables,
            "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms,
            "seconds_per_rate": args.seconds_per_rate,
            "replicas": args.replicas,
        },
        "gateway": gateway_metrics,
    }
    if fleet_metrics is not None:
        results["fleet"] = fleet_metrics
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
