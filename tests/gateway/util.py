"""Shared helpers for the gateway suite: a scripted service and tiny clients.

The gateway only touches a narrow serving surface (``annotate_batch``,
``stats``, ``health``, ``close``, ``max_batch``, ``policy`` and the optional
answer ``cache``), so most of the suite runs against :class:`FakeService` — a
scriptable stand-in that records every call — and reserves the real trained
service for the chaos tests.
"""

from __future__ import annotations

import contextlib
import threading

from repro.core.cache import SharedResultsCache
from repro.data.table import Column, Table
from repro.gateway import Gateway, GatewayConfig, HttpConnection


class FakeClock:
    """A manually-advanced monotonic clock for deterministic deadline tests."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _FakeStats:
    def to_dict(self) -> dict:
        return {"requests": 0, "tables": 0, "cache_hits": 0}


class _FakeHealth:
    def __init__(self, status: str):
        self.status = status

    def to_dict(self) -> dict:
        return {"status": self.status, "reasons": []}


class FakeService:
    """The serving surface the gateway needs, scripted for tests.

    ``annotate`` overrides the batch behaviour: a callable taking
    ``(tables, budget_s)``; raise from it to exercise the error mapping, or
    block on an event to hold a batch in flight.  Every call is recorded in
    ``calls`` as ``(n_tables, budget_s)``.
    """

    def __init__(self, annotate=None, health_status: str = "healthy",
                 policy=None, max_batch: int = 16):
        self.calls: list[tuple[int, float | None]] = []
        self.closed = False
        self.max_batch = max_batch
        self.policy = policy
        self._annotate = annotate
        self._health_status = health_status
        self._lock = threading.Lock()

    def annotate_batch(self, tables, budget_s=None):
        with self._lock:
            self.calls.append((len(tables), budget_s))
        if self._annotate is not None:
            return self._annotate(tables, budget_s)
        return [[f"label:{column.name}" for column in table.columns]
                for table in tables]

    def stats(self) -> _FakeStats:
        return _FakeStats()

    def health(self) -> _FakeHealth:
        return _FakeHealth(self._health_status)

    def close(self) -> None:
        self.closed = True


class CachingFakeService(FakeService):
    """A :class:`FakeService` with an answer ``cache``, like the real seats.

    ``cache`` is a real :class:`SharedResultsCache`: ``annotate_batch``
    resolves through it, so only the tables it has not answered yet reach
    the scripted batch (and ``calls``), and the gateway's door reads it.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.cache = SharedResultsCache()

    def annotate_batch(self, tables, budget_s=None):
        return self.cache.resolve(
            tables, lambda leads: FakeService.annotate_batch(self, leads, budget_s))


def seed_cache(cache: SharedResultsCache, table: Table, answer: list[str]) -> None:
    """Store ``answer`` for ``table`` as if a batch had computed it."""
    cache.resolve([table], lambda leads: [answer])


def make_table(table_id: str = "t", columns: int = 2) -> Table:
    return Table(table_id=table_id, columns=[
        Column(name=f"c{index}", cells=["alpha", "beta"])
        for index in range(columns)
    ])


def table_payload(table: Table) -> dict:
    return {
        "table_id": table.table_id,
        "columns": [{"name": column.name, "cells": list(column.cells)}
                    for column in table.columns],
    }


@contextlib.asynccontextmanager
async def running_gateway(service, **config_kwargs):
    """Start a gateway on an ephemeral port; drain it on the way out."""
    config_kwargs.setdefault("port", 0)
    gateway = Gateway(service, GatewayConfig(**config_kwargs))
    await gateway.start()
    try:
        yield gateway
    finally:
        await gateway.shutdown()


async def post_annotate(gateway, payload, headers=None):
    async with await HttpConnection.open("127.0.0.1", gateway.port) as conn:
        return await conn.request("POST", "/annotate", json_body=payload,
                                  headers=headers)


async def get(gateway, path):
    async with await HttpConnection.open("127.0.0.1", gateway.port) as conn:
        return await conn.request("GET", path)
