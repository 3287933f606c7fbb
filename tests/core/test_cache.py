"""Tests of the one table cache: single-flight, LRU bounds, counters,
``lookup`` and ``resolve``.

Every serving seat (the service and the fleet router) resolves its batches
through :class:`SharedResultsCache` from whatever threads call it, and the
gateway's door reads it with ``lookup``; the counters feed telemetry
dashboards, so lost increments are user-visible bugs, not cosmetics.
The content key itself (:func:`repro.data.table.table_key`) is pinned in
``tests/data/test_table.py``; the router's cache bounds in
``tests/fleet/test_cache.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.cache import Flight, SharedResultsCache
from repro.core.errors import DeadlineExceeded, ReplicaUnavailable
from repro.data.table import Column, Table, table_key


def store(cache: SharedResultsCache, key: str, value) -> None:
    outcome, flight = cache.begin(key)
    assert outcome == "lead"
    cache.complete(key, flight, value)


def table(table_id: str, *cells: str) -> Table:
    return Table(table_id=table_id,
                 columns=[Column(name="c0", cells=list(cells or ("x",)))])


def wait_for(predicate, what: str) -> None:
    give_up = time.monotonic() + 5.0
    while not predicate():
        assert time.monotonic() < give_up, what
        time.sleep(0.001)


class Recorder:
    """A ``compute`` that answers each table with its id and logs the calls."""

    def __init__(self):
        self.calls: list[list[str]] = []

    def __call__(self, tables):
        ids = [entry.table_id for entry in tables]
        self.calls.append(ids)
        return [f"value-{table_id}" for table_id in ids]


class TestBasics:
    def test_eviction_order_is_lru(self):
        cache = SharedResultsCache(maxsize=2)
        store(cache, "a", 1)
        store(cache, "b", 2)
        assert cache.begin("a") == ("hit", 1)  # refresh "a": "b" is now LRU
        store(cache, "c", 3)
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["size"] == 2
        assert cache.begin("a") == ("hit", 1)
        assert cache.begin("c") == ("hit", 3)
        assert cache.begin("b")[0] == "lead"  # the least recently *used*

    def test_zero_maxsize_disables(self):
        cache = SharedResultsCache(maxsize=0)
        store(cache, "a", 1)
        assert cache.stats()["size"] == 0
        assert cache.begin("a")[0] == "lead"

    def test_counters_track_the_protocol(self):
        cache = SharedResultsCache(maxsize=8)
        _, flight = cache.begin("k")
        cache.begin("k")
        cache.complete("k", flight, "v")
        cache.begin("k")
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "coalesced": 1,
                         "evictions": 0, "size": 1, "maxsize": 8}


class TestSingleFlight:
    def test_lead_then_hit(self):
        cache = SharedResultsCache()
        key = table_key(table("t0"))
        outcome, flight = cache.begin(key)
        assert outcome == "lead"
        cache.complete(key, flight, [["x"]])
        assert cache.begin(key) == ("hit", [["x"]])

    def test_concurrent_miss_joins_the_lead(self):
        cache = SharedResultsCache()
        key = "k"
        outcome, flight = cache.begin(key)
        assert outcome == "lead"
        joined, same_flight = cache.begin(key)
        assert joined == "join"
        assert same_flight is flight

    def test_joiner_receives_published_value_across_threads(self):
        cache = SharedResultsCache()
        key = "k"
        _, flight = cache.begin(key)
        _, joined = cache.begin(key)
        got: list = []

        def wait():
            got.append(joined.wait(deadline_s=time.monotonic() + 5.0))

        thread = threading.Thread(target=wait)
        thread.start()
        cache.complete(key, flight, [["published"]])
        thread.join(timeout=5.0)
        assert got == [[["published"]]]

    def test_joiner_deadline_is_its_own(self):
        cache = SharedResultsCache()
        _, flight = cache.begin("k")
        _, joined = cache.begin("k")
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            joined.wait(deadline_s=start + 0.05)
        assert time.monotonic() - start < 2.0
        cache.fail("k", flight, ReplicaUnavailable("cleanup"))

    def test_failed_lead_propagates_then_next_begin_leads_fresh(self):
        cache = SharedResultsCache()
        key = "k"
        _, flight = cache.begin(key)
        _, joined = cache.begin(key)
        cache.fail(key, flight, ReplicaUnavailable("replica died"))
        with pytest.raises(ReplicaUnavailable, match="replica died"):
            joined.wait(deadline_s=time.monotonic() + 1.0)
        # The key is not wedged: a new request starts a fresh lead.
        outcome, fresh = cache.begin(key)
        assert outcome == "lead"
        assert fresh is not flight
        cache.complete(key, fresh, [["recovered"]])
        assert cache.begin(key) == ("hit", [["recovered"]])

    def test_flight_wait_after_publish_returns_immediately(self):
        flight = Flight()
        flight.publish("v")
        assert flight.wait(deadline_s=time.monotonic() - 1.0) == "v"


class TestThreadSafety:
    def test_counters_lose_no_increments_under_contention(self):
        # Every begin() is exactly one hit, join or lead, so after N lookups
        # the three counters must sum to N — any lost update shows.  A short
        # switch interval makes the threads interleave mid-update.
        cache = SharedResultsCache(maxsize=64)
        n_threads, ops = 8, 2000
        barrier = threading.Barrier(n_threads)

        def worker(seed: int) -> None:
            barrier.wait()
            for i in range(ops):
                key = str((seed * 31 + i) % 128)  # half the keys overflow
                outcome, token = cache.begin(key)
                if outcome == "lead":
                    cache.complete(key, token, key)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["coalesced"] + stats["misses"] == n_threads * ops
        assert stats["size"] <= 64

    def test_lookup_and_resolve_balance_under_contention(self):
        # With one table per call, every resolve counts exactly one hit, join
        # or lead, every answered lookup one hit and a refused lookup none —
        # so a lost update, or a lookup counting a refusal, unbalances them.
        cache = SharedResultsCache(maxsize=16)
        n_threads, ops = 8, 1000
        barrier = threading.Barrier(n_threads)
        answered = [0] * n_threads
        wrong: list = []

        def worker(seed: int) -> None:
            barrier.wait()
            for i in range(ops):
                entry = table(str((seed * 31 + i) % 48))  # most keys overflow
                if i % 2:
                    values = cache.lookup([entry])
                    if values is not None:
                        answered[seed] += 1
                        if values != [f"value-{entry.table_id}"]:
                            wrong.append(values)
                else:
                    cache.resolve([entry], Recorder())

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert 0 < sum(answered) < n_threads * ops // 2
        stats = cache.stats()
        assert (stats["hits"] + stats["coalesced"] + stats["misses"]
                == n_threads * ops // 2 + sum(answered))
        assert stats["size"] <= 16

    def test_recency_list_stays_intact_under_contention(self):
        cache = SharedResultsCache(maxsize=8)
        stop = threading.Event()
        failures: list[Exception] = []

        def churn(offset: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.resolve([table(str((offset + i) % 32)),
                                   table(str((offset + i + 1) % 32))],
                                  Recorder())
                    i += 1
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=churn, args=(t * 7,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for _ in range(200):
            assert cache.stats()["size"] <= 8
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures


class TestResolve:
    def test_values_align_with_input_order(self):
        cache = SharedResultsCache()
        compute = Recorder()
        cache.resolve([table("b")], compute)  # "b" is now a hit
        values = cache.resolve([table("a"), table("b"), table("c")], compute)
        assert values == ["value-a", "value-b", "value-c"]
        assert compute.calls == [["b"], ["a", "c"]]  # one call per resolve

    def test_in_call_repeat_is_computed_once(self):
        cache = SharedResultsCache()
        compute = Recorder()
        values = cache.resolve([table("a"), table("b"), table("a")], compute)
        assert values == ["value-a", "value-b", "value-a"]
        assert compute.calls == [["a", "b"]]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)  # repeats not counted

    def test_same_id_different_content_is_not_a_repeat(self):
        compute = Recorder()
        SharedResultsCache().resolve([table("a", "x"), table("a", "y")], compute)
        assert compute.calls == [["a", "a"]]

    def test_zero_maxsize_still_dedups(self):
        cache = SharedResultsCache(maxsize=0)
        compute = Recorder()
        assert cache.resolve([table("a"), table("a")], compute) == ["value-a"] * 2
        cache.resolve([table("a")], compute)
        assert compute.calls == [["a"], ["a"]]  # nothing stored between calls
        assert cache.stats()["size"] == 0

    def test_compute_error_fails_joiners_and_next_call_leads_fresh(self):
        cache = SharedResultsCache()
        entered, release = threading.Event(), threading.Event()
        joined: list = []

        def failing(tables):
            entered.set()
            assert release.wait(5.0)
            raise ReplicaUnavailable("replica died")

        def join():
            try:
                cache.resolve([table("a")], Recorder(),
                              deadline_s=time.monotonic() + 5.0)
            except ReplicaUnavailable as error:
                joined.append(error)

        leader_errors: list = []

        def lead():
            try:
                cache.resolve([table("a")], failing)
            except ReplicaUnavailable as error:
                leader_errors.append(error)

        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(5.0)
        joiner = threading.Thread(target=join)
        joiner.start()
        wait_for(lambda: cache.stats()["coalesced"] == 1, "joiner never joined")
        release.set()
        leader.join(5.0)
        joiner.join(5.0)
        assert len(leader_errors) == 1 and joined == leader_errors
        compute = Recorder()
        assert cache.resolve([table("a")], compute) == ["value-a"]
        assert compute.calls == [["a"]]  # the failed flight left no wedge

    def test_short_compute_result_fails_the_leads(self):
        cache = SharedResultsCache()
        with pytest.raises(ValueError, match="1 values for 2 tables"):
            cache.resolve([table("a"), table("b")], lambda tables: ["only-one"])
        assert cache.resolve([table("a")], Recorder()) == ["value-a"]

    def test_leads_publish_before_joins_are_awaited(self):
        # Two callers that each lead a key the other joins only finish if
        # both publish their leads before waiting: pin that order by holding
        # "b"'s flight open until the caller has published "a".
        cache = SharedResultsCache()
        key_b = table_key(table("b"))
        _, held = cache.begin(key_b)
        results: list = []
        caller = threading.Thread(target=lambda: results.append(cache.resolve(
            [table("a"), table("b")], Recorder(),
            deadline_s=time.monotonic() + 5.0)))
        caller.start()
        wait_for(lambda: cache.stats()["size"] == 1, "lead was not published first")
        cache.complete(key_b, held, "value-b")
        caller.join(5.0)
        assert results == [["value-a", "value-b"]]


class TestLookup:
    """The non-blocking all-or-nothing read the gateway's door relies on."""

    def test_all_hits_return_values_in_input_order(self):
        cache = SharedResultsCache()
        cache.resolve([table("a"), table("b")], Recorder())
        assert cache.lookup([table("b"), table("a"), table("b")]) == [
            "value-b", "value-a", "value-b"]
        stats = cache.stats()
        # Counted like resolve: one hit per distinct key, repeats free.
        assert (stats["hits"], stats["misses"]) == (2, 2)

    def test_a_hit_refreshes_recency(self):
        cache = SharedResultsCache(maxsize=2)
        cache.resolve([table("a"), table("b")], Recorder())
        assert cache.lookup([table("a")]) == ["value-a"]  # "b" is now LRU
        cache.resolve([table("c")], Recorder())
        assert cache.stats()["evictions"] == 1
        assert cache.lookup([table("a"), table("c")]) == ["value-a", "value-c"]
        assert cache.lookup([table("b")]) is None  # the least recently *used*

    @pytest.mark.parametrize("maxsize", [16, 0])
    def test_any_miss_returns_none_and_counts_nothing(self, maxsize):
        cache = SharedResultsCache(maxsize=maxsize)
        cache.resolve([table("a")], Recorder())
        before = cache.stats()
        assert cache.lookup([table("a"), table("new")]) is None
        assert cache.lookup([table("new")]) is None
        if maxsize == 0:
            assert cache.lookup([table("a")]) is None  # nothing is stored
        assert cache.stats() == before

    def test_key_in_flight_is_not_a_hit(self):
        cache = SharedResultsCache()
        key = table_key(table("a"))
        _, flight = cache.begin(key)  # led, not yet stored
        before = cache.stats()
        assert cache.lookup([table("a")]) is None
        assert cache.stats() == before  # no join counted, nothing waited on
        cache.complete(key, flight, "value-a")
        assert cache.lookup([table("a")]) == ["value-a"]
