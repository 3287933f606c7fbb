"""Stand up a replicated serving tier from a saved service bundle.

Usage::

    python -m repro.fleet --bundle bundle/ --replicas 2 --port 8080

One command, the whole topology: a :class:`~repro.fleet.supervisor.\
ReplicaSupervisor` spawns ``--replicas`` worker processes (each loading the
same bundle and serving the fleet wire protocol on a loopback socket), a
:class:`~repro.fleet.router.FleetRouter` fronts them with least-outstanding
routing, per-replica breakers and the shared results cache, and the HTTP
:class:`~repro.gateway.app.Gateway` serves on ``--port`` with the router in
its service seat.  The gateway keeps one batch in flight per replica and
dispatches each batch as soon as it takes it, with no coalescing window.

SIGTERM/SIGINT drains the whole tier gracefully, top down: the gateway
stops admitting and answers what it accepted, the router finishes in-flight
batches and closes its replica connections, then the supervisor SIGTERMs
every replica and joins them (killing stragglers after the drain timeout).
"""

from __future__ import annotations

import argparse
import asyncio

from repro.core.cache import SharedResultsCache
from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import ProcessLauncher, ReplicaSupervisor
from repro.gateway.app import Gateway, GatewayConfig
from repro.runtime.resilience import RuntimePolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--bundle", required=True,
                        help="saved ServiceBundle directory (shared by every replica)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="worker processes to supervise")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="gateway listen port (0 picks a free one)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="requests coalesced per gateway micro-batch")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission bound; beyond it requests are shed "
                             "oldest-deadline-first")
    parser.add_argument("--default-deadline-ms", type=float, default=None,
                        help="deadline for requests without an X-Deadline-Ms header")
    parser.add_argument("--timeout-s", type=float, default=30.0,
                        help="per-batch budget when the request carries none")
    parser.add_argument("--heartbeat-interval-s", type=float, default=1.0,
                        help="how often the supervisor pings each replica")
    parser.add_argument("--heartbeat-timeout-s", type=float, default=5.0,
                        help="ping budget; a miss marks the replica down")
    parser.add_argument("--max-restarts", type=int, default=3,
                        help="respawns per replica slot before giving up")
    parser.add_argument("--results-cache-size", type=int, default=4096,
                        help="shared results cache bound (0 keeps only "
                             "single-flight de-dup)")
    parser.add_argument("--service-max-batch", type=int, default=16,
                        help="PLM micro-batch size inside each replica")
    return parser


async def _serve(router: FleetRouter, config: GatewayConfig,
                 replicas: int) -> None:
    gateway = Gateway(router, config)
    await gateway.start()
    print(f"fleet gateway serving http://{config.host}:{gateway.port} "
          f"({replicas} replicas, queue={config.max_queue}) — "
          "SIGTERM drains gateway, router and every replica", flush=True)
    # close_service=True: the gateway's drain closes the router, which —
    # because it owns the supervisor — SIGTERMs and joins every replica.
    await gateway.serve_forever(install_signals=True, close_service=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    policy = RuntimePolicy(timeout_s=args.timeout_s)
    launcher = ProcessLauncher(
        args.bundle,
        # The router's cache is the fleet's only answer cache: a replica
        # sees only the router's misses, so its own cache would never hit.
        service_kwargs={"max_batch": args.service_max_batch, "cache_size": 0},
    )
    supervisor = ReplicaSupervisor(
        launcher, args.replicas, policy=policy,
        heartbeat_interval_s=args.heartbeat_interval_s,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
        max_restarts=args.max_restarts,
    )
    supervisor.start()
    router = FleetRouter(
        supervisor, policy=policy,
        cache=SharedResultsCache(maxsize=args.results_cache_size),
        max_batch=args.max_batch or args.service_max_batch,
        own_supervisor=True,
    )
    config = GatewayConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_queue=args.max_queue, default_deadline_ms=args.default_deadline_ms,
    )
    try:
        asyncio.run(_serve(router, config, args.replicas))
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        pass
    finally:
        router.close()  # idempotent; also stops the supervisor it owns
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
