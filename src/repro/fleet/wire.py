"""The fleet's wire protocol: length-prefixed frames over a local socket.

One replica process serves ``annotate_batch`` (plus ``ping`` / ``stats`` /
``shutdown``) to the router over a loopback TCP connection.
The protocol is deliberately minimal and stdlib-only:

* a **frame** is a 4-byte big-endian length followed by that many bytes of
  pickled payload (:func:`send_message` / :func:`recv_message`).  Pickle is
  acceptable here because both ends are the same trusted codebase on the
  same machine — the listener binds loopback only and the payloads are
  :class:`~repro.data.table.Table` objects and prediction lists that JSON
  would force into a hand-rolled codec;
* a **request** is ``{"op": ..., **fields}`` and a **response** is
  ``{"ok": True, "value": ...}`` or ``{"ok": False, "error": {...}}``.
  Errors cross the wire by *name* and are rebuilt into the typed taxonomy of
  :mod:`repro.core.errors` on the router side (:func:`encode_error` /
  :func:`decode_error`), so ``except DeadlineExceeded`` works identically
  whether the service is in-process or behind a socket;
* **every socket operation carries a deadline** — connects use an explicit
  timeout, reads and writes compute their timeout from an absolute monotonic
  ``deadline_s`` before each syscall.  This is the REP106
  socket-timeout-discipline invariant: a dead replica costs the router a
  bounded wait, never a hang.

:class:`ReplicaClient` is the router-facing endpoint: a small pool of
keep-alive connections to one replica, safe to call from multiple batcher
threads.  Any transport failure closes the affected connection (its stream
state is unknowable) and surfaces as
:class:`~repro.core.errors.ReplicaUnavailable`, the router's failover
signal.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.core import errors as error_taxonomy
from repro.core.errors import DeadlineExceeded, ReplicaUnavailable, ServingError

__all__ = [
    "MAX_FRAME_BYTES",
    "WireClosed",
    "send_message",
    "recv_message",
    "wait_readable",
    "encode_error",
    "decode_error",
    "ReplicaClient",
    "ping",
]

#: Header layout: one unsigned 32-bit big-endian payload length.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload.  Generous (a micro-batch of tables is
#: kilobytes), but finite: a corrupt header must not trigger a gigabyte read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default connect timeout for replica dials (loopback: either the listener
#: is there or it is not).
CONNECT_TIMEOUT_S = 5.0


class WireClosed(ConnectionError):
    """The peer closed the connection cleanly at a frame boundary."""


def _remaining(deadline_s: float, clock: Callable[[], float]) -> float:
    remaining = deadline_s - clock()
    if remaining <= 0:
        raise DeadlineExceeded("wire deadline expired")
    return remaining


def send_message(sock: socket.socket, message: Any, *, deadline_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
    """Pickle ``message`` and send it as one frame before ``deadline_s``.

    ``deadline_s`` is an absolute monotonic reading; the socket timeout is
    recomputed from it immediately before the send.  ``socket.timeout``
    surfaces as :class:`~repro.core.errors.DeadlineExceeded`.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    sock.settimeout(_remaining(deadline_s, clock))
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except TimeoutError as error:
        raise DeadlineExceeded("wire deadline expired mid-send") from error


def _recv_exactly(sock: socket.socket, n_bytes: int, deadline_s: float,
                  clock: Callable[[], float]) -> bytes:
    chunks: list[bytes] = []
    received = 0
    while received < n_bytes:
        sock.settimeout(_remaining(deadline_s, clock))
        try:
            chunk = sock.recv(n_bytes - received)
        except TimeoutError as error:
            raise DeadlineExceeded("wire deadline expired mid-frame") from error
        if not chunk:
            if received:
                raise ConnectionError("peer closed the connection mid-frame")
            raise WireClosed("peer closed the connection at a frame boundary")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, *, deadline_s: float,
                 clock: Callable[[], float] = time.monotonic) -> Any:
    """Receive one frame and unpickle it; must complete before ``deadline_s``.

    Raises :class:`WireClosed` on a clean EOF *between* frames (the normal
    way a peer hangs up), ``ConnectionError`` on a mid-frame EOF, and
    :class:`~repro.core.errors.DeadlineExceeded` when the deadline passes.
    """
    header = _recv_exactly(sock, _HEADER.size, deadline_s, clock)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES}); "
            "stream is corrupt"
        )
    payload = _recv_exactly(sock, length, deadline_s, clock)
    return pickle.loads(payload)


def wait_readable(sock: socket.socket, timeout_s: float) -> bool:
    """Whether ``sock`` has bytes (or EOF) to read within ``timeout_s``.

    A one-byte ``MSG_PEEK`` with an explicit timeout: the replica server's
    idle loop polls with this so it can notice a stop flag between requests
    without ever timing out *inside* a frame (which would desynchronise the
    stream).  Returns ``True`` on data **or** EOF — the caller's next real
    read tells them apart.  A socket closed under us (a crash-simulating
    ``abort()`` slams live connections) also reports ``True``: the caller's
    next read raises the real error on their own code path.
    """
    try:
        sock.settimeout(timeout_s)
        sock.recv(1, socket.MSG_PEEK)
    except TimeoutError:
        return False
    except OSError:
        return True
    return True


# --------------------------------------------------------------------------- #
# error transport
# --------------------------------------------------------------------------- #
#: Exception types allowed to cross the wire by name.  The typed serving
#: taxonomy plus the specific builtins the serving surface documents; an
#: unknown name decodes to the base ServingError so a replica can never make
#: the router raise an arbitrary type.
_DECODABLE: dict[str, type[BaseException]] = {
    **{name: getattr(error_taxonomy, name) for name in error_taxonomy.__all__},
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def encode_error(error: BaseException) -> dict[str, str]:
    """A JSON/pickle-safe payload naming the error for the peer."""
    return {"type": type(error).__name__, "message": str(error)}


def decode_error(payload: dict[str, str]) -> BaseException:
    """Rebuild a typed exception from :func:`encode_error` output."""
    name = payload.get("type", "ServingError")
    message = payload.get("message", "")
    cls = _DECODABLE.get(name)
    if cls is None:
        return ServingError(f"replica error {name}: {message}")
    return cls(message)


# --------------------------------------------------------------------------- #
# the router-facing endpoint
# --------------------------------------------------------------------------- #
class ReplicaClient:
    """A pooled keep-alive client to one replica's wire socket.

    ``request`` checks a connection out of the idle pool (dialling a new one
    when the pool is dry), performs one request/response exchange under the
    caller's deadline, and returns the connection for reuse.  Concurrent
    callers therefore get concurrent connections — the replica server hands
    each one its own handler thread, so two micro-batches routed to the same
    replica genuinely overlap.

    Failure handling is deliberately blunt: after *any* transport error the
    connection is closed rather than reused (a half-read response would
    poison the next exchange), and connect/reset/EOF failures are mapped to
    :class:`~repro.core.errors.ReplicaUnavailable` — the single signal the
    router's failover path keys on.  A replica-side failure that arrives as
    a well-formed error response is decoded and raised as its typed self.
    """

    def __init__(self, address: tuple[str, int], *, name: str = "replica",
                 connect_timeout_s: float = CONNECT_TIMEOUT_S,
                 default_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self.address = address
        self.name = name
        self._connect_timeout_s = connect_timeout_s
        self._default_timeout_s = default_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._idle: list[socket.socket] = []  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def _dial(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                self.address, timeout=self._connect_timeout_s
            )
        except OSError as error:
            raise ReplicaUnavailable(
                f"replica {self.name!r} at {self.address} is unreachable: {error}"
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ReplicaUnavailable(
                    f"client for replica {self.name!r} is closed"
                )
            if self._idle:
                return self._idle.pop()
        return self._dial()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(sock)
                return
        sock.close()

    def request(self, op: str, payload: dict[str, Any] | None = None, *,
                deadline_s: float | None = None) -> Any:
        """One request/response exchange; returns the response value.

        ``deadline_s`` is absolute monotonic; ``None`` applies the client's
        ``default_timeout_s`` from now.  Transport failures raise
        :class:`~repro.core.errors.ReplicaUnavailable`; a deadline raised
        here or decoded from the replica stays
        :class:`~repro.core.errors.DeadlineExceeded`.
        """
        if deadline_s is None:
            deadline_s = self._clock() + self._default_timeout_s
        message = {"op": op, **(payload or {})}
        sock = self._checkout()
        try:
            send_message(sock, message, deadline_s=deadline_s, clock=self._clock)
            response = recv_message(sock, deadline_s=deadline_s, clock=self._clock)
        except DeadlineExceeded:
            # The response (if any) is still in flight; the stream cannot be
            # reused.
            sock.close()
            raise
        except (ConnectionError, OSError, EOFError, pickle.PickleError) as error:
            sock.close()
            raise ReplicaUnavailable(
                f"replica {self.name!r} at {self.address} failed mid-exchange: "
                f"{type(error).__name__}: {error}"
            ) from error
        self._checkin(sock)
        if not isinstance(response, dict) or "ok" not in response:
            raise ReplicaUnavailable(
                f"replica {self.name!r} sent a malformed response"
            )
        if response["ok"]:
            return response.get("value")
        raise decode_error(response.get("error", {}))

    def close(self) -> None:
        """Close every pooled connection; further requests are refused."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


def ping(address: tuple[str, int], *, deadline_s: float,
         clock: Callable[[], float] = time.monotonic) -> dict[str, Any]:
    """One-shot liveness probe: ``ping`` on a fresh client, then hang up.

    The supervisor's heartbeat loop uses this rather than a pooled client so
    a respawned replica (new port) needs no client-side state to invalidate.
    Returns the replica's ping payload (name, pid, health snapshot).  Any
    failure surfaces as :class:`~repro.core.errors.ReplicaUnavailable` or
    :class:`~repro.core.errors.DeadlineExceeded`, including an error the
    replica answers with (say, a ``health()`` that raises), because the
    heartbeat treats every other outcome as a live replica.
    """
    client = ReplicaClient(
        address,
        connect_timeout_s=min(CONNECT_TIMEOUT_S, _remaining(deadline_s, clock)),
        clock=clock,
    )
    try:
        value = client.request("ping", deadline_s=deadline_s)
    except (ReplicaUnavailable, DeadlineExceeded):
        raise
    except Exception as error:
        raise ReplicaUnavailable(
            f"replica at {address} failed the heartbeat: "
            f"{type(error).__name__}: {error}"
        ) from error
    finally:
        client.close()
    if not isinstance(value, dict):
        raise ReplicaUnavailable(f"replica at {address} answered ping abnormally")
    return value
