"""Run a gateway process from a saved service bundle.

Usage::

    python -m repro.gateway --bundle bundle/ --port 8080

The process serves until ``SIGTERM``/``SIGINT``, then drains gracefully:
intake stops, admitted requests are answered, in-flight batches finish, and
the service is closed.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.gateway.app import Gateway, GatewayConfig
from repro.serve import AnnotationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--bundle", required=True,
                        help="saved ServiceBundle directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="requests coalesced per micro-batch "
                             "(default: the service's max_batch)")
    parser.add_argument("--max-wait-ms", type=float, default=None,
                        help="micro-batch coalescing window (default: 5)")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission bound; beyond it requests are shed "
                             "oldest-deadline-first")
    parser.add_argument("--max-concurrent-batches", type=int, default=None,
                        help="batches in flight at once (default: 2)")
    parser.add_argument("--default-deadline-ms", type=float, default=None,
                        help="deadline for requests without an X-Deadline-Ms "
                             "header (default: none)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="answer cache bound (0 stores nothing)")
    parser.add_argument("--service-max-batch", type=int, default=16,
                        help="PLM micro-batch size inside the service")
    return parser


async def _serve(service: AnnotationService, config: GatewayConfig) -> None:
    gateway = Gateway(service, config)
    await gateway.start()
    _, max_wait_ms, _ = gateway.batching_policy()
    print(f"gateway serving http://{config.host}:{gateway.port} "
          f"(queue={config.max_queue}, max_wait={max_wait_ms:g}ms) — "
          "SIGTERM drains gracefully", flush=True)
    await gateway.serve_forever(install_signals=True, close_service=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    service = AnnotationService.load(
        args.bundle, max_batch=args.service_max_batch, cache_size=args.cache_size,
    )
    config = GatewayConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, max_queue=args.max_queue,
        max_concurrent_batches=args.max_concurrent_batches,
        default_deadline_ms=args.default_deadline_ms,
    )
    try:
        asyncio.run(_serve(service, config))
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        pass
    finally:
        service.close()  # idempotent; covers startup failures before drain
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
