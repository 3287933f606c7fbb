"""The one answer cache: a bounded LRU by table content, with single-flight.

KGLink's Part 1 (KG linking) and Part 2 (the PLM) are deterministic for a
given table, so each serving seat —
:class:`~repro.serve.service.AnnotationService` and
:class:`~repro.fleet.router.FleetRouter` — caches *answers* in its public
``cache``, keyed by :func:`repro.data.table.table_key` (a digest of the id
and every column's name, cells and label — never the id alone).

Seats call :meth:`SharedResultsCache.resolve`: finished values sit in an
LRU (a hit refreshes recency), and concurrent misses for one key collapse
to a single *lead* computation that later callers *join* (single-flight).
A failed lead hands its error to the joiners and clears the flight, so the
next request for that key leads afresh.  The gateway calls
:meth:`SharedResultsCache.lookup` on its seat's cache: it never blocks and
answers a batch only when every table is stored, so an all-hit request is
served on the event loop; anything else goes to ``resolve``.  Every
operation holds the cache's own lock, so counters and recency order stay
consistent across threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

from repro.core.errors import DeadlineExceeded
from repro.data.table import table_key

__all__ = ["Flight", "SharedResultsCache"]

_MISSING = object()


class Flight:
    """One in-flight computation for a key: the lead publishes, joiners wait."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: Any = _MISSING
        self._error: BaseException | None = None

    def publish(self, value: Any) -> None:
        self._value = value
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def wait(self, *, deadline_s: float | None,
             clock: Callable[[], float] = time.monotonic) -> Any:
        """Block until the lead publishes; honours the joiner's own deadline.

        ``deadline_s=None`` waits without a timeout.  A result that is
        already published is returned even past the deadline — the work is
        done, discarding it helps no one.
        """
        if deadline_s is None:
            self._done.wait()
        elif not self._done.is_set():
            remaining = deadline_s - clock()
            if remaining <= 0 or not self._done.wait(timeout=remaining):
                raise DeadlineExceeded(
                    "deadline expired while waiting on an in-flight duplicate table"
                )
        if self._error is not None:
            raise self._error
        return self._value


class SharedResultsCache:
    """Bounded LRU of per-table values with single-flight de-dup.

    Thread-safe; shared by every caller of one service or router.
    ``maxsize <= 0`` stores nothing (every lookup leads) but keeps
    single-flight coalescing — concurrent duplicates still collapse.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._store: OrderedDict[str, Any] = OrderedDict()  # guarded-by: _lock
        self._flights: dict[str, Flight] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._coalesced = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # the single-flight protocol
    # ------------------------------------------------------------------ #
    def begin(self, key: str) -> tuple[str, Any]:
        """Look up ``key``; returns one of three outcomes:

        * ``("hit", value)`` — finished result, use it directly;
        * ``("lead", flight)`` — this caller computes; it must call
          :meth:`complete` or :meth:`fail` with the same flight, always;
        * ``("join", flight)`` — someone is computing; ``flight.wait(...)``
          for their result.
        """
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                self._store.move_to_end(key)
                self._hits += 1
                return ("hit", value)
            flight = self._flights.get(key)
            if flight is not None:
                self._coalesced += 1
                return ("join", flight)
            flight = Flight()
            self._flights[key] = flight
            self._misses += 1
            return ("lead", flight)

    def complete(self, key: str, flight: Flight, value: Any) -> None:
        """Lead's success path: store the result and wake the joiners."""
        with self._lock:
            if self.maxsize > 0:
                self._store[key] = value
                self._store.move_to_end(key)
                while len(self._store) > self.maxsize:
                    self._store.popitem(last=False)
                    self._evictions += 1
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.publish(value)

    def fail(self, key: str, flight: Flight, error: BaseException) -> None:
        """Lead's failure path: propagate to joiners, clear the flight so the
        next request for this key starts fresh."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.fail(error)

    def lookup(self, tables: Sequence[Any]) -> list | None:
        """Every table's stored value, aligned with ``tables``, or ``None``.

        Never blocks and never leads: when every key is stored, each distinct
        key counts one hit and refreshes its recency, as in :meth:`resolve`.
        Otherwise — any miss, or a key only in flight — nothing is counted
        and ``None`` leaves the whole batch to :meth:`resolve`.
        """
        keys = [table_key(table) for table in tables]
        with self._lock:
            values = [self._store.get(key, _MISSING) for key in keys]
            if any(value is _MISSING for value in values):
                return None
            distinct = dict.fromkeys(keys)
            for key in distinct:
                self._store.move_to_end(key)
            self._hits += len(distinct)
        return values

    def resolve(self, tables: Sequence[Any],
                compute: Callable[[list[Any]], Sequence[Any]], *,
                deadline_s: float | None = None,
                clock: Callable[[], float] = time.monotonic) -> list:
        """One value per table, aligned with ``tables``.

        The first occurrence of each key hits, joins another caller's
        flight, or leads; repeats within ``tables`` copy it.  All leads go
        to one ``compute(lead_tables)`` call, which returns one value per
        lead, before any join is waited on — so two callers leading each
        other's keys cannot deadlock.  Joins wait until ``deadline_s`` on
        ``clock``; ``None`` waits without a timeout.
        """
        results: list[Any] = [None] * len(tables)
        positions_by_key: dict[str, list[int]] = {}
        leads: list[tuple[str, Flight]] = []
        lead_tables: list[Any] = []
        joins: list[tuple[str, Flight]] = []
        for position, table in enumerate(tables):
            key = table_key(table)
            positions = positions_by_key.setdefault(key, [])
            positions.append(position)
            if len(positions) > 1:
                continue  # duplicate within this very call
            outcome, token = self.begin(key)
            if outcome == "hit":
                results[position] = token
            elif outcome == "join":
                joins.append((key, token))
            else:
                leads.append((key, token))
                lead_tables.append(table)

        if leads:
            try:
                values = list(compute(lead_tables))
                if len(values) != len(leads):
                    raise ValueError(
                        f"compute returned {len(values)} values for "
                        f"{len(leads)} tables"
                    )
            # repro: allow[REP104] -- single-flight contract: every lead
            # must publish, whatever went wrong, or joiners hang; the
            # error is re-raised to this caller unchanged
            except BaseException as error:
                for key, flight in leads:
                    self.fail(key, flight, error)
                raise
            for (key, flight), value in zip(leads, values):
                self.complete(key, flight, value)
                results[positions_by_key[key][0]] = value

        for key, flight in joins:
            results[positions_by_key[key][0]] = flight.wait(
                deadline_s=deadline_s, clock=clock
            )

        # Fan duplicate positions out from each key's first position.
        for positions in positions_by_key.values():
            for position in positions[1:]:
                results[position] = results[positions[0]]
        return results

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "evictions": self._evictions,
                "size": len(self._store),
                "maxsize": max(self.maxsize, 0),
            }
