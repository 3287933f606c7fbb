"""Shared helpers for the fleet suite: scripted services, in-process fleets.

The fleet's moving parts (wire protocol, supervisor, router) only need the
narrow serving surface — ``annotate_batch`` / ``stats`` / ``health`` /
``close`` — so most tests run against :class:`FakeService` over *real*
loopback sockets via :class:`~repro.fleet.supervisor.ThreadLauncher`, and
reserve real trained services for the chaos and smoke suites.
"""

from __future__ import annotations

import threading

from repro.data.table import Column, Table
from repro.fleet import FleetRouter, ReplicaSupervisor, SharedResultsCache, ThreadLauncher


class FakeStats:
    def to_dict(self) -> dict:
        return {"requests": 0, "tables": 0}


class FakeHealth:
    def __init__(self, status: str = "healthy"):
        self.status = status

    def to_dict(self) -> dict:
        return {"status": self.status, "reasons": []}


class FakeService:
    """Deterministic per-table predictions, with call recording.

    ``annotate`` overrides the batch behaviour (takes ``(tables,
    budget_s)``); raise from it to exercise error transport, block on an
    event to hold a batch in flight.
    """

    def __init__(self, name: str = "svc", annotate=None,
                 health_status: str = "healthy"):
        self.name = name
        self.calls: list[tuple[int, float | None]] = []
        self.closed = False
        self._annotate = annotate
        self._health_status = health_status
        self._lock = threading.Lock()

    def annotate_batch(self, tables, budget_s=None):
        with self._lock:
            self.calls.append((len(tables), budget_s))
        if self._annotate is not None:
            return self._annotate(tables, budget_s)
        return [[f"label:{table.table_id}"] for table in tables]

    def stats(self) -> FakeStats:
        return FakeStats()

    def health(self) -> FakeHealth:
        return FakeHealth(self._health_status)

    def close(self) -> None:
        self.closed = True


def make_tables(count: int, prefix: str = "t") -> list[Table]:
    return [
        Table(table_id=f"{prefix}{index}",
              columns=[Column(name="c0", cells=[f"cell-{index}"])])
        for index in range(count)
    ]


def start_fleet(replicas: int = 2, *, service_factory=None,
                cache: SharedResultsCache | None = None,
                heartbeat_interval_s: float = 60.0,
                **router_kwargs):
    """A running ThreadLauncher fleet plus its router.

    The default heartbeat interval is long so the background monitor stays
    out of the way — tests drive sweeps deterministically via
    ``supervisor.check_now()``.  Returns ``(launcher, supervisor, router)``;
    closing the router stops the supervisor (``own_supervisor=True``).
    """
    factory = service_factory or (lambda name: FakeService(name))
    launcher = ThreadLauncher(factory)
    supervisor = ReplicaSupervisor(
        launcher, replicas,
        heartbeat_interval_s=heartbeat_interval_s,
        heartbeat_timeout_s=5.0,
    )
    supervisor.start()
    router = FleetRouter(supervisor, cache=cache, own_supervisor=True,
                         **router_kwargs)
    return launcher, supervisor, router
