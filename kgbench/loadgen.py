"""The load generator and deployment handling, stdlib only.

The client speaks HTTP/1.1 over ``asyncio`` streams itself rather than using
``repro.gateway.HttpConnection``, so a change to the program's HTTP code
never changes the load it is measured under.  Request bodies are encoded
before timing starts.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import ROOT, child_env, descendants, tree_hwm_mb

HOST = "127.0.0.1"
CONNECTIONS = 2  # = nproc: closed-loop callers, each waiting for its reply
# Untimed warm-up and catch-up send more at once, so the gateway coalesces
# them into fuller batches and the run spends less time outside its window.
UNTIMED_CONNECTIONS = 8


def encode_request(body: dict) -> bytes:
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    head = (f"POST /annotate HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n").encode("ascii")
    return head + payload


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> Connection:
        reader, writer = await asyncio.open_connection(HOST, port)
        return cls(reader, writer)

    async def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the server")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class Outcome:
    """One request: which table it carried, when, and what came back."""

    key: int
    start: float
    end: float
    status: int
    body: bytes


class Caller:
    """One closed-loop caller: sends a request, waits for its answer, and
    reconnects after a transport error (recorded as status ``-1``)."""

    def __init__(self, port: int):
        self.port = port
        self.connection: Connection | None = None

    async def __aenter__(self) -> Caller:
        self.connection = await Connection.open(self.port)
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.connection.close()

    async def send(self, requests: list[bytes], key: int) -> Outcome:
        start = time.perf_counter()
        try:
            status, body = await self.connection.exchange(requests[key])
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError,
                IndexError):
            status, body = -1, b""
            await self.connection.close()
            self.connection = await Connection.open(self.port)
        return Outcome(key, start, time.perf_counter(), status, body)


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


async def closed_loop(port: int, requests: list[bytes], schedule, seconds: float,
                      first: int = 0, connections: int = CONNECTIONS) -> LoopResult:
    """``connections`` callers each send their next request when the last
    answer lands, until ``seconds`` have passed.

    ``schedule(i)`` gives the index into ``requests`` of the i-th request
    sent overall, counting from ``first``.  A transport error is recorded as
    status ``-1`` and the caller reconnects.
    """
    result = LoopResult()
    counter = iter(range(first, 1 << 62))
    result.started = time.perf_counter()
    stop_at = result.started + seconds

    async def caller() -> None:
        async with Caller(port) as connection:
            while time.perf_counter() < stop_at:
                result.outcomes.append(await connection.send(requests, schedule(next(counter))))

    await asyncio.gather(*[caller() for _ in range(connections)])
    result.finished = time.perf_counter()
    return result


async def send_each(port: int, requests: list[bytes], keys: list[int]) -> list[Outcome]:
    """Send the given requests once each (warm-up, catch-up; untimed),
    ``UNTIMED_CONNECTIONS`` at a time."""
    pending = iter(keys)
    outcomes: list[Outcome] = []

    async def caller() -> None:
        async with Caller(port) as connection:
            for key in pending:
                outcomes.append(await connection.send(requests, key))

    await asyncio.gather(*[caller() for _ in range(UNTIMED_CONNECTIONS)])
    return outcomes


async def get_json(port: int, path: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body) if body else {}


# --------------------------------------------------------------------------- #
# deployments: the program's own CLIs in their own processes
# --------------------------------------------------------------------------- #
_SERVING = re.compile(r"serving http://[\d.]+:(\d+)")


class Deployment:
    """A gateway or fleet process started through its ``python -m`` CLI."""

    def __init__(self, module: str, bundle: str, extra: list[str]):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, "--bundle", bundle, "--port", "0", *extra],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port: int | None = None
        self._reader = threading.Thread(target=self._read_port, daemon=True)
        self._reader.start()

    def _read_port(self) -> None:
        for line in self.process.stdout:
            match = _SERVING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
        # Keep draining so the child never blocks on a full pipe.

    def wait_ready(self, ready, timeout_s: float = 30.0) -> float:
        """Poll ``/healthz`` until ``ready(status, payload)``; returns the
        seconds from process start."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"deployment exited with {self.process.returncode}")
            if self.port is not None:
                try:
                    status, payload = asyncio.run(get_json(self.port, "/healthz"))
                except (ConnectionError, OSError, ValueError):
                    status, payload = 0, {}
                if ready(status, payload):
                    return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("deployment did not become healthy in time")

    def peak_rss_mb(self) -> float:
        return tree_hwm_mb(self.process.pid)

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM (graceful drain), then kill whatever is left."""
        if self.process.poll() is None:
            tree = descendants(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout_s)
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._reader.join(timeout=timeout_s)


def gateway_ready(status: int, payload: dict) -> bool:
    return status == 200 and payload.get("status") == "healthy"


def fleet_ready(status: int, payload: dict) -> bool:
    replicas = payload.get("replicas") or {}
    return (gateway_ready(status, payload) and len(replicas) == 2
            and all(info.get("state") == "up" for info in replicas.values()))
