"""Shared helpers for the gateway suite: a scripted service and tiny clients.

The gateway only touches a narrow serving surface (``annotate_batch``,
``stats``, ``health``, ``close``, ``max_batch``, ``policy`` and the optional
``cached``), so most of the suite runs against :class:`FakeService` — a
scriptable stand-in that records every call — and reserves the real trained
service for the chaos tests.
"""

from __future__ import annotations

import contextlib
import threading

from repro.data.table import Column, Table, table_key
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
    """A :class:`FakeService` with the fleet router's optional ``cached`` door.

    Every table it annotates is remembered by content; ``cached`` answers a
    batch only when every table is remembered, else ``None``.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.store: dict[str, list[str]] = {}

    def annotate_batch(self, tables, budget_s=None):
        results = super().annotate_batch(tables, budget_s)
        with self._lock:
            for table, result in zip(tables, results, strict=True):
                self.store[table_key(table)] = result
        return results

    def cached(self, tables):
        with self._lock:
            values = [self.store.get(table_key(table)) for table in tables]
        return None if None in values else values


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
