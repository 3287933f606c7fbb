"""The fleet replica entry point: one process, one service, one socket.

A replica is the unit the :class:`~repro.fleet.supervisor.ReplicaSupervisor`
spawns N of: it loads a :class:`~repro.serve.bundle.ServiceBundle` into an
:class:`~repro.serve.service.AnnotationService` and serves the fleet wire
protocol (:mod:`repro.fleet.wire`) on a loopback socket.

* :class:`ReplicaServer` — a threaded socket server over any service-shaped
  object.  The accept loop and every connection handler poll with explicit
  timeouts (REP106), so a stop flag is noticed within one poll interval and
  no read can hang forever.  One handler thread per connection; the
  underlying ``annotate_batch`` is thread-safe, so concurrent micro-batches
  from the router genuinely overlap.
* :func:`run_replica` — the ``multiprocessing`` target: load the bundle,
  bind, report ``("ready", port)`` back through a pipe, serve until SIGTERM,
  then drain and close the service.  This is what a
  :class:`~repro.fleet.supervisor.ProcessLauncher` runs in each worker
  process; SIGTERM is the graceful-drain signal the supervisor's ``stop()``
  propagates.

Ops served: ``annotate_batch`` (tables + remaining budget), ``ping``
(liveness + a health snapshot for the supervisor to cache), ``stats``
(the service's own telemetry), ``shutdown`` (acknowledge, then stop
accepting).  Handler failures cross the wire as typed error payloads
(:func:`repro.fleet.wire.encode_error`) — never a dropped connection.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.fleet.wire import (
    WireClosed,
    encode_error,
    recv_message,
    send_message,
    wait_readable,
)

__all__ = ["ReplicaServer", "run_replica"]

#: How long an idle connection waits between poll peeks for the next
#: request (also bounds how long stop() waits on an idle handler).
POLL_INTERVAL_S = 0.2

#: Per-frame I/O budget once a request has started arriving.  Generous —
#: frames are local and small — but finite, so a stalled peer cannot pin a
#: handler thread forever.
IO_TIMEOUT_S = 30.0


class ReplicaServer:
    """Serve the fleet wire protocol over one ``service`` on a local socket.

    ``service`` needs the gateway-facing serving surface:
    ``annotate_batch(tables, budget_s=...)``, ``stats()`` / ``health()``
    (objects with ``to_dict()``) — i.e.
    :class:`~repro.serve.service.AnnotationService`, or a scripted fake in
    tests.  The server does **not** own the service: closing it is the
    caller's job (see :func:`run_replica` for the process lifecycle).
    """

    def __init__(self, service, *, host: str = "127.0.0.1", port: int = 0,
                 name: str = "replica",
                 poll_interval_s: float = POLL_INTERVAL_S,
                 io_timeout_s: float = IO_TIMEOUT_S,
                 clock: Callable[[], float] = time.monotonic):
        self.service = service
        self.name = name
        self._host = host
        self._requested_port = port
        self._poll_interval_s = poll_interval_s
        self._io_timeout_s = io_timeout_s
        self._clock = clock
        self._listener: socket.socket | None = None
        self._port: int | None = None  # cached at bind; survives close
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()  # guarded-by: _lock
        self._handlers: list[threading.Thread] = []  # guarded-by: _lock
        self._requests = 0  # guarded-by: _lock
        self._serve_thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("replica server is not started")
        return self._port

    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    def start(self) -> None:
        """Bind the loopback listener (does not accept yet)."""
        if self._listener is not None:
            raise RuntimeError("replica server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen()
        self._listener = listener
        self._port = listener.getsockname()[1]
        # The accept loop wakes every poll interval to check the stop flag;
        # accept() itself therefore never blocks unboundedly (REP106).
        self._listener.settimeout(self._poll_interval_s)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (or :meth:`abort`)."""
        if self._listener is None:
            self.start()
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listener closed under us (stop/abort)
            conn.settimeout(self._poll_interval_s)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"{self.name}-handler", daemon=True,
            )
            with self._lock:
                self._connections.add(conn)
                self._handlers.append(handler)
            handler.start()
        self._close_listener()

    def serve_in_thread(self) -> None:
        """Run :meth:`serve_forever` on a daemon thread (in-process fleets)."""
        if self._listener is None:
            self.start()
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"{self.name}-accept", daemon=True)
        self._serve_thread = thread
        thread.start()

    def stop(self, *, drain_timeout_s: float = 10.0) -> None:
        """Graceful stop: no new connections, in-flight requests finish.

        Idle handlers notice the flag within one poll interval; a handler
        mid-request finishes and answers it first.  After ``drain_timeout_s``
        any straggler connections are closed abruptly.
        """
        self._stopping.set()
        self._close_listener()
        deadline_s = self._clock() + drain_timeout_s
        while True:
            with self._lock:
                handlers = [h for h in self._handlers if h.is_alive()]
            if not handlers:
                break
            remaining = deadline_s - self._clock()
            if remaining <= 0:
                self._close_connections()
                break
            handlers[0].join(timeout=min(self._poll_interval_s, remaining))
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=drain_timeout_s)

    def request_stop(self) -> None:
        """Signal-handler-safe graceful-stop trigger.

        Sets the stop flag and closes the listener so :meth:`serve_forever`
        returns; in-flight handlers drain on their own (the caller then runs
        :meth:`stop` to wait for them).
        """
        self._stopping.set()
        self._close_listener()

    def abort(self) -> None:
        """Crash simulation: slam the listener and every live connection shut.

        In-flight peers see a reset mid-exchange and heartbeats start
        failing — exactly what a SIGKILLed replica process looks like from
        outside, without killing a process.  Test-only by intent.
        """
        self._stopping.set()
        self._close_listener()
        self._close_connections()

    def _close_listener(self) -> None:
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    def _close_connections(self) -> None:
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                if not wait_readable(conn, self._poll_interval_s):
                    continue  # idle: re-check the stop flag
                try:
                    request = recv_message(
                        conn, deadline_s=self._clock() + self._io_timeout_s,
                        clock=self._clock,
                    )
                except (WireClosed, ConnectionError, OSError, EOFError):
                    return  # peer hung up (or stop/abort closed us)
                with self._lock:
                    self._requests += 1
                response = self._handle(request)
                try:
                    send_message(
                        conn, response,
                        deadline_s=self._clock() + self._io_timeout_s,
                        clock=self._clock,
                    )
                except (ConnectionError, OSError):
                    return  # peer went away; nothing left to answer
                if request.get("op") == "shutdown":
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    def _handle(self, request: Any) -> dict[str, Any]:
        try:
            if not isinstance(request, dict) or "op" not in request:
                raise ValueError("malformed request frame (no op)")
            op = request["op"]
            if op == "annotate_batch":
                budget_s = request.get("budget_s")
                if budget_s is None:
                    value: Any = self.service.annotate_batch(request["tables"])
                else:
                    value = self.service.annotate_batch(
                        request["tables"], budget_s=budget_s
                    )
            elif op == "ping":
                value = {
                    "name": self.name,
                    "pid": os.getpid(),
                    "requests": self.requests,
                    "health": self.service.health().to_dict(),
                }
            elif op == "stats":
                value = self.service.stats().to_dict()
            elif op == "shutdown":
                self._stopping.set()
                self._close_listener()
                value = {"stopping": True}
            else:
                raise ValueError(f"unknown op {op!r}")
        # repro: allow[REP104] -- wire boundary: the failure is encoded by
        # name and re-raised as its typed self on the router side
        except Exception as error:
            return {"ok": False, "error": encode_error(error)}
        return {"ok": True, "value": value}


def run_replica(bundle_dir: str, ready, *, name: str = "replica",
                host: str = "127.0.0.1", port: int = 0,
                service_kwargs: dict[str, Any] | None = None) -> None:
    """Process target: load the bundle, serve the wire protocol, drain.

    ``ready`` is a :func:`multiprocessing.Pipe` connection: once the listener
    is bound this sends ``("ready", port)``, or ``("error", message)`` when
    the bundle fails to load — the launcher side turns the latter (or
    silence) into a typed launch failure.  SIGTERM triggers a graceful
    stop: the accept loop ends, in-flight requests are answered, and the
    service closes (waiting for its in-flight calls).
    """
    from repro.serve.service import AnnotationService

    try:
        service = AnnotationService.load(bundle_dir, **(service_kwargs or {}))
        server = ReplicaServer(service, host=host, port=port, name=name)
        server.start()
    # repro: allow[REP104] -- process boundary: the failure is reported by
    # name through the ready pipe; the launcher re-raises it as WorkerCrashed
    except Exception as error:
        try:
            ready.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            ready.close()
        raise SystemExit(1) from error

    signal.signal(signal.SIGTERM, lambda signum, frame: server.request_stop())
    ready.send(("ready", server.port))
    ready.close()
    try:
        server.serve_forever()
        server.stop()
    finally:
        service.close()
