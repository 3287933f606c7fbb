"""The overload-safe serving gateway: HTTP in front of an AnnotationService.

:class:`Gateway` is the front door the ROADMAP asked for — the tier that
makes *overload* a policy decision the way :class:`~repro.runtime.RuntimePolicy`
made *failure* one.  The pieces, front to back:

* connection handlers (one coroutine per keep-alive connection) parse
  requests with the stdlib-only :mod:`repro.gateway.http` layer;
* ``POST /annotate`` requests get a :class:`~repro.gateway.admission.Deadline`
  (``X-Deadline-Ms`` header, else the configured default, else the seat's
  policy ``timeout_s`` when it has one); a seat with ``cached`` (the fleet
  router) answers a request whose every table is in its results cache right
  there on the event loop; the rest enter the bounded
  :class:`~repro.gateway.admission.AdmissionQueue` — or are shed
  oldest-deadline-first with a typed 503 + ``Retry-After``;
* the :class:`~repro.gateway.batcher.MicroBatcher` coalesces queued requests
  into ``annotate_batch`` calls (the remaining budget rides into the service,
  or through the fleet router onto the wire);
* every failure maps to a status through the typed taxonomy of
  :mod:`repro.core.errors` — ``DeadlineExceeded`` → 504, shed /
  ``ReplicaUnavailable`` → 503 with ``Retry-After``, ``ServiceClosed`` → 410,
  ``BundleCorrupted`` → 500 — so clients route on status the way in-process
  callers route on type;
* ``GET /healthz`` surfaces the service's ``health()`` — a single
  :meth:`~repro.serve.service.AnnotationService.health` snapshot, or (with a
  :class:`~repro.fleet.router.FleetRouter` in the service seat) the fleet's
  aggregated per-replica view; ``GET /stats`` the gateway + service
  counters, ``GET /metrics`` the same numbers in Prometheus text exposition
  format;
* :meth:`Gateway.shutdown` (wired to ``SIGTERM``/``SIGINT`` by
  :meth:`Gateway.serve_forever`) drains gracefully: stop intake, answer
  everything already admitted, then — optionally — close the service.

The invariant the chaos suite pins: **every accepted request is answered** —
with predictions or with a typed error — no matter what crashes, hangs or
floods underneath.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.core.errors import (
    BundleCorrupted,
    DeadlineExceeded,
    GatewayOverloaded,
    ReplicaUnavailable,
    ServiceClosed,
    ServingError,
)
from repro.data.table import Column, Table

from repro.gateway.admission import (
    DEADLINE_HEADER,
    AdmissionQueue,
    Deadline,
    PendingRequest,
)
from repro.gateway.batcher import MicroBatcher
from repro.gateway.http import (
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
    write_response,
)

__all__ = ["GatewayConfig", "Gateway", "status_for"]

#: ``/metrics`` names (without their ``kglink_<tier>_`` prefix) exposed as
#: Prometheus counters: monotonic totals since start.  Every other numeric
#: value — levels, ratios and the effective batching policy — is a gauge.
_COUNTER_METRICS = frozenset({
    # gateway and micro-batcher
    "requests", "completed", "errors", "rejected_draining",
    "expired_at_admission", "expired_in_flight", "admitted",
    "shed_queue_full", "shed_expired", "batches", "batched_tables",
    "batch_errors", "answered_from_cache",
    # AnnotationService
    "tables", "part1_seconds", "encode_seconds", "useful_tokens",
    "padded_tokens", "cache_hits", "cache_misses", "retries", "fallbacks",
    # FleetRouter
    "dispatches", "failovers", "timeouts", "replica_errors", "rejected",
    "results_cache_hits", "results_cache_misses", "results_cache_coalesced",
    "results_cache_evictions", "fleet_spawned", "fleet_restarts",
    "fleet_heartbeats", "fleet_heartbeat_failures", "fleet_gave_up",
})


@dataclass(frozen=True)
class GatewayConfig:
    """Deployment knobs of one gateway process (all overload policy).

    ``max_batch`` / ``max_wait_ms`` / ``max_concurrent_batches``
        Micro-batching: coalesce up to ``max_batch`` requests, holding the
        first at most ``max_wait_ms``, with at most ``max_concurrent_batches``
        ``annotate_batch`` calls in flight.  ``None`` derives each from the
        service seat (:meth:`Gateway.batching_policy`).  ``max_batch`` is the
        seat's own ``max_batch``.  A seat with ``replicas`` (a
        :class:`~repro.fleet.router.FleetRouter`) gets one batch slot per
        replica and no window: holding a batch open would leave replicas
        idle.  Any other seat (one GIL-bound ``AnnotationService``) gets 2
        slots and a 5 ms window, which is what keeps it inside its
        deadlines under overload.  An explicit value always wins.
    ``max_queue``
        Admission bound — requests beyond it are shed oldest-deadline-first.
    ``default_deadline_ms``
        Deadline for requests without an ``X-Deadline-Ms`` header; ``None``
        falls back to the seat's ``policy.timeout_s`` (a
        :class:`~repro.fleet.router.FleetRouter`'s
        :class:`~repro.runtime.RuntimePolicy`, so an unadorned request
        inherits the fleet's per-request patience; a single
        ``AnnotationService`` has no policy, so there such requests carry
        no deadline), and ``0`` disables default deadlines entirely.
    ``retry_after_s``
        The ``Retry-After`` hint on 503 responses.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int | None = None
    max_wait_ms: float | None = None
    max_queue: int = 256
    max_concurrent_batches: int | None = None
    default_deadline_ms: float | None = None
    max_body_bytes: int = 8 * 1024 * 1024
    retry_after_s: float = 1.0


def status_for(error: BaseException) -> int:
    """Map the typed serving taxonomy onto HTTP statuses."""
    if isinstance(error, DeadlineExceeded):
        return 504
    if isinstance(error, (GatewayOverloaded, ReplicaUnavailable)):
        return 503  # transient; 503 + Retry-After tells clients to back off
    if isinstance(error, ServiceClosed):
        return 410
    if isinstance(error, BundleCorrupted):
        return 500
    if isinstance(error, HttpError):
        return error.status
    if isinstance(error, ServingError):
        return 500
    if isinstance(error, (ValueError, KeyError, TypeError)):
        return 400
    return 500


@dataclass
class _GatewayCounters:
    """Handler-side request accounting (queue/batcher keep their own)."""

    requests: int = 0
    completed: int = 0
    errors: int = 0
    rejected_draining: int = 0
    expired_at_admission: int = 0
    expired_in_flight: int = 0
    answered_from_cache: int = 0  # of completed: all hits, no batch
    started_at: float = field(default_factory=time.monotonic)


class Gateway:
    """One asyncio HTTP gateway process in front of an ``AnnotationService``.

    The service object only needs the serving surface the gateway touches:
    ``annotate_batch(tables, budget_s=...)``, ``stats()``, ``health()`` and
    ``close()`` — which is exactly
    :class:`~repro.serve.service.AnnotationService`, but also lets tests
    stand in a scripted fake.  An optional non-blocking ``cached(tables)``
    (:meth:`~repro.fleet.router.FleetRouter.cached`) returns the predictions
    when every table is already cached, else ``None``; the gateway calls it
    on the event loop before admission, so an all-hit request skips the
    queue, the batcher and the executor thread.
    """

    def __init__(self, service, config: GatewayConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.service = service
        self.config = config or GatewayConfig()
        self._clock = clock
        self._state = "idle"  # idle -> serving -> draining -> closed
        self._server: asyncio.base_events.Server | None = None
        self._queue: AdmissionQueue | None = None
        self._batcher: MicroBatcher | None = None
        self._batcher_task: asyncio.Task | None = None
        self._finished = asyncio.Event()
        self._counters = _GatewayCounters()
        self._request_seq = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        return self._state

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests/benchmarks)."""
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    def default_deadline_ms(self) -> float | None:
        """The deadline applied to header-less requests, if any."""
        configured = self.config.default_deadline_ms
        if configured is not None:
            return configured if configured > 0 else None
        policy = getattr(self.service, "policy", None)
        timeout_s = getattr(policy, "timeout_s", None)
        return None if timeout_s is None else timeout_s * 1e3

    def batching_policy(self) -> tuple[int, float, int]:
        """The effective ``(max_batch, max_wait_ms, max_concurrent_batches)``.

        Unset config fields derive from the seat (see :class:`GatewayConfig`).
        """
        config = self.config
        replicas = getattr(self.service, "replicas", None)
        max_batch = config.max_batch or getattr(self.service, "max_batch", 16)
        max_wait_ms = config.max_wait_ms
        if max_wait_ms is None:
            max_wait_ms = 5.0 if replicas is None else 0.0
        slots = config.max_concurrent_batches
        if slots is None:
            slots = 2 if replicas is None else replicas
        return max_batch, max_wait_ms, slots

    async def start(self) -> None:
        """Bind the listener and start the batcher; returns once serving."""
        if self._state != "idle":
            raise RuntimeError(f"gateway already {self._state}")
        max_batch, max_wait_ms, slots = self.batching_policy()
        self._queue = AdmissionQueue(self.config.max_queue, clock=self._clock)
        self._batcher = MicroBatcher(
            self._annotate_blocking, self._queue,
            max_batch=max_batch,
            max_wait_s=max_wait_ms / 1e3,
            max_concurrent_batches=slots,
            clock=self._clock,
        )
        self._batcher_task = asyncio.create_task(self._batcher.run())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        self._state = "serving"

    async def shutdown(self, close_service: bool = False) -> None:
        """Graceful drain: stop intake, answer the admitted, then tear down.

        1. new connections are refused (the listener closes) and new
           ``/annotate`` requests on live connections get 503 + Retry-After;
        2. the admission queue closes — everything already admitted is
           micro-batched and answered;
        3. once the batcher reports every in-flight batch resolved, the
           service is (optionally) closed — which itself drains in-flight
           ``annotate_batch`` calls first.

        Idempotent; concurrent callers all wait for the same drain.
        """
        if self._state in ("draining", "closed"):
            await self._finished.wait()
            return
        if self._state == "idle":
            self._state = "closed"
            self._finished.set()
            return
        self._state = "draining"
        assert self._server is not None and self._queue is not None
        self._server.close()
        await self._server.wait_closed()
        self._queue.close()
        if self._batcher_task is not None:
            await self._batcher_task
        if close_service:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.close
            )
        self._state = "closed"
        self._finished.set()

    async def serve_forever(self, *, install_signals: bool = True,
                            close_service: bool = True) -> None:
        """Start, serve until SIGTERM/SIGINT (or :meth:`shutdown`), drain."""
        if self._state == "idle":
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # platforms without loop signal support
        await self._finished.wait()
        if close_service and self._state != "closed":  # pragma: no cover
            await self.shutdown(close_service=close_service)

    def request_shutdown(self) -> None:
        """Signal-handler-safe trigger for a graceful drain."""
        if self._state == "serving":
            asyncio.ensure_future(self.shutdown(close_service=True))

    async def __aenter__(self) -> Gateway:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except HttpError as error:
                    await write_response(
                        writer, self._error_response(error), keep_alive=False
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = (
                    request.headers.get("connection", "").lower() != "close"
                )
                await write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route = (request.method, request.path)
        if route == ("POST", "/annotate"):
            return await self._annotate_endpoint(request)
        if route == ("GET", "/healthz"):
            return self._healthz_endpoint()
        if route == ("GET", "/stats"):
            return self._stats_endpoint()
        if route == ("GET", "/metrics"):
            return self._metrics_endpoint()
        if request.path in ("/annotate", "/healthz", "/stats", "/metrics"):
            return HttpResponse.from_json(
                {"error": "MethodNotAllowed",
                 "detail": f"{request.method} is not supported on {request.path}"},
                status=405,
            )
        return HttpResponse.from_json(
            {"error": "NotFound", "detail": f"no route for {request.path}"},
            status=404,
        )

    # ------------------------------------------------------------------ #
    # POST /annotate
    # ------------------------------------------------------------------ #
    async def _annotate_endpoint(self, request: HttpRequest) -> HttpResponse:
        self._counters.requests += 1
        try:
            payload = request.json()
            single = isinstance(payload, dict)
            tables = self._tables_from_payload(payload)
            deadline = Deadline.from_header(
                request.headers.get(DEADLINE_HEADER),
                default_ms=self.default_deadline_ms(),
                clock=self._clock,
            )
        except (HttpError, ValueError) as error:
            self._counters.errors += 1
            return self._error_response(error)
        if deadline.expired():
            # Already dead on arrival: cheaper to refuse at the door than to
            # queue work whose answer nobody is waiting for.
            self._counters.expired_at_admission += 1
            return self._error_response(DeadlineExceeded(
                "request deadline had already expired at admission"
            ))
        if self._state != "serving" or self._queue is None:
            self._counters.rejected_draining += 1
            return self._error_response(GatewayOverloaded(
                f"gateway is {self._state}; retry another replica"
            ))
        cached = getattr(self.service, "cached", None)
        predictions = cached(tables) if cached is not None else None
        if predictions is not None:
            self._counters.answered_from_cache += 1
            self._counters.completed += 1
            return self._annotate_response(single, tables, predictions)
        pending = PendingRequest(
            tables=tables, deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=self._clock(),
        )
        try:
            self._queue.offer(pending)
        except GatewayOverloaded as error:
            self._counters.errors += 1
            return self._error_response(error)
        remaining = deadline.remaining_s()
        try:
            predictions = await asyncio.wait_for(
                asyncio.shield(pending.future),
                None if remaining == float("inf") else remaining,
            )
        except asyncio.TimeoutError:
            # The batch may still be running for its other riders; this
            # request's answer is due *now*, so 504 and let the stray result
            # (or error) die silently when the future resolves.
            self._counters.expired_in_flight += 1
            self._silence(pending.future)
            return self._error_response(DeadlineExceeded(
                "deadline expired before the micro-batch completed"
            ))
        # repro: allow[REP104] -- mapped to a typed HTTP error response via
        # _error_response; the taxonomy decides the status code
        except BaseException as error:
            self._counters.errors += 1
            return self._error_response(error)
        self._counters.completed += 1
        return self._annotate_response(single, tables, predictions)

    @staticmethod
    def _annotate_response(single: bool, tables: list[Table],
                           predictions: list) -> HttpResponse:
        if single:
            return HttpResponse.from_json({
                "table_id": tables[0].table_id,
                "predictions": predictions[0],
            })
        return HttpResponse.from_json({
            "results": [
                {"table_id": table.table_id, "predictions": columns}
                for table, columns in zip(tables, predictions, strict=True)
            ],
        })

    def _tables_from_payload(self, payload: Any) -> list[Table]:
        if isinstance(payload, dict):
            items = [payload]
        elif isinstance(payload, list) and payload:
            items = payload
        else:
            raise ValueError(
                "expected a table object or a non-empty list of table objects"
            )
        tables = []
        for item in items:
            self._request_seq += 1
            tables.append(self._table_from_json(item, self._request_seq))
        return tables

    @staticmethod
    def _table_from_json(obj: Any, seq: int) -> Table:
        try:
            columns = [
                Column(name=str(column.get("name", "")),
                       cells=[str(cell) for cell in column["cells"]])
                for column in obj["columns"]
            ]
            return Table(table_id=str(obj.get("table_id", f"req-{seq}")),
                         columns=columns)
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(
                "malformed table payload: expected "
                '{"table_id": ..., "columns": [{"name": ..., "cells": [...]}]}'
            ) from error

    def _annotate_blocking(self, tables: list[Table],
                           budget_s: float | None) -> list[list[str]]:
        """The batcher's thread-side hook (split out for fakes/tests)."""
        if budget_s is None:
            return self.service.annotate_batch(tables)
        return self.service.annotate_batch(tables, budget_s=budget_s)

    @staticmethod
    def _silence(future: asyncio.Future) -> None:
        """Consume an abandoned future's eventual exception, if any."""
        def _consume(resolved: asyncio.Future) -> None:
            if not resolved.cancelled():
                resolved.exception()
        future.add_done_callback(_consume)

    def _error_response(self, error: BaseException) -> HttpResponse:
        status = status_for(error)
        headers = {}
        if status == 503:
            headers["retry-after"] = f"{self.config.retry_after_s:g}"
        return HttpResponse.from_json(
            {"error": type(error).__name__, "detail": str(error)},
            status=status, headers=headers,
        )

    # ------------------------------------------------------------------ #
    # GET /healthz, /stats, /metrics
    # ------------------------------------------------------------------ #
    def _healthz_endpoint(self) -> HttpResponse:
        health = self.service.health()
        payload = health.to_dict()
        payload["gateway"] = self._state
        serving = self._state == "serving" and payload["status"] != "failed"
        return HttpResponse.from_json(payload, status=200 if serving else 503)

    def stats(self) -> dict:
        """The gateway-side counters as one JSON-safe dict."""
        counters = self._counters
        queue = self._queue
        batcher = self._batcher
        payload = {
            "state": self._state,
            "uptime_seconds": round(time.monotonic() - counters.started_at, 3),
            "requests": counters.requests,
            "completed": counters.completed,
            "errors": counters.errors,
            "rejected_draining": counters.rejected_draining,
            "expired_at_admission": counters.expired_at_admission,
            "expired_in_flight": counters.expired_in_flight,
            "answered_from_cache": counters.answered_from_cache,
            "queue_depth": queue.depth if queue is not None else 0,
            "admitted": queue.admitted if queue is not None else 0,
            "shed_queue_full": queue.shed_queue_full if queue is not None else 0,
            "shed_expired": queue.shed_expired if queue is not None else 0,
        }
        if batcher is not None:
            payload.update(batcher.stats())
        return payload

    def _stats_endpoint(self) -> HttpResponse:
        return HttpResponse.from_json({
            "gateway": self.stats(),
            "service": self.service.stats().to_dict(),
        })

    def _metrics_endpoint(self) -> HttpResponse:
        """The same counters in Prometheus text exposition format."""
        lines: list[str] = []

        def emit(prefix: str, payload: dict) -> None:
            for name, value in sorted(payload.items()):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                kind = "counter" if name in _COUNTER_METRICS else "gauge"
                lines.append(f"# TYPE {prefix}_{name} {kind}")
                lines.append(f"{prefix}_{name} {value:g}")

        emit("kglink_gateway", self.stats())
        emit("kglink_service", self.service.stats().to_dict())
        return HttpResponse.from_text(
            "\n".join(lines) + "\n",
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
