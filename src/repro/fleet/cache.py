"""Shared results cache: one table annotated once, whoever asked first.

Replicas are deterministic over the same bundle, so two requests carrying
the same table must produce the same predictions — dispatching both wastes
a replica's time.  :class:`SharedResultsCache` sits in the router, in front
of the whole fleet, and collapses that duplication two ways:

* a **bounded LRU** of finished results (``table_key`` → predictions),
  built on :class:`repro.core.cache.LRUCache` — a repeat table is answered
  from memory without touching a replica;
* **single-flight de-duplication** for concurrent misses: the first request
  for a key becomes the *lead* and dispatches; later requests for the same
  key *join* the in-flight computation and wait (with their own deadlines)
  for the lead to publish, instead of dispatching duplicates.

Keys come from :func:`repro.data.table.table_key` — a content digest over
the table's id and its columns' names, cells and labels, so "the same
table" means the same bytes of input, not object identity.

Counters (hits / misses / coalesced / evictions, plus current size) feed
the router's ``stats()`` and the gateway's ``/stats`` and ``/metrics``
endpoints, prefixed ``results_cache_*``.

A failed lead publishes its error to joiners (each re-raises it) and
clears the flight, so the next request for that key starts a fresh lead —
a transient replica failure never wedges a key permanently.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from typing import Any

from repro.core.cache import LRUCache
from repro.core.errors import DeadlineExceeded

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

    def wait(self, *, deadline_s: float,
             clock: Callable[[], float] = time.monotonic) -> Any:
        """Block until the lead publishes; honours the joiner's own deadline.

        A result that is already published is returned even past the
        deadline — the work is done, discarding it helps no one.
        """
        remaining = deadline_s - clock()
        if not self._done.is_set() and (
            remaining <= 0 or not self._done.wait(timeout=remaining)
        ):
            raise DeadlineExceeded(
                "deadline expired while waiting on an in-flight duplicate table"
            )
        if self._error is not None:
            raise self._error
        return self._value


class SharedResultsCache:
    """Bounded LRU of per-table predictions with single-flight de-dup.

    Thread-safe; shared across every connection the router serves.
    ``maxsize <= 0`` disables the LRU (every lookup leads) but keeps
    single-flight coalescing — concurrent duplicates still collapse.
    """

    def __init__(self, maxsize: int = 4096):
        self._store: LRUCache[str, Any] = LRUCache(maxsize=maxsize)
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._coalesced = 0  # guarded-by: _lock

    @property
    def maxsize(self) -> int:
        return self._store.maxsize

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
            self._store.put(key, value)
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

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        info = self._store.cache_info()
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "evictions": info.evictions,
                "size": info.currsize,
                "maxsize": max(info.maxsize, 0),
            }

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._flights.clear()
