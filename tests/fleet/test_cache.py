"""Shared results cache: content keys, single-flight protocol, LRU bounds."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import DeadlineExceeded, ReplicaUnavailable
from repro.data.table import Column, Table, table_key
from repro.core.cache import Flight, SharedResultsCache


def dict_table(table_id="t0", name="c0", cells=("a", "b")) -> dict:
    return {"table_id": table_id,
            "columns": [{"name": name, "cells": list(cells)}]}


def obj_table(table_id="t0", name="c0", cells=("a", "b")) -> Table:
    return Table(table_id=table_id,
                 columns=[Column(name=name, cells=list(cells))])


class TestTableKey:
    def test_same_content_same_key(self):
        assert table_key(dict_table()) == table_key(dict_table())

    def test_object_and_dict_shapes_agree(self):
        # The gateway parses payloads into Table objects before the router
        # sees them; a raw dict with the same content must map to the same
        # cache entry.
        assert table_key(obj_table()) == table_key(dict_table())

    def test_table_id_is_part_of_identity(self):
        assert table_key(dict_table("t0")) != table_key(dict_table("t1"))

    def test_column_name_is_part_of_identity(self):
        assert table_key(dict_table(name="c0")) != table_key(
            dict_table(name="c1"))

    def test_cells_are_part_of_identity(self):
        assert table_key(dict_table(cells=("a",))) != table_key(
            dict_table(cells=("a", "b")))

    def test_cell_order_matters(self):
        assert table_key(dict_table(cells=("a", "b"))) != table_key(
            dict_table(cells=("b", "a")))

    def test_cell_boundaries_do_not_alias(self):
        assert table_key(dict_table(cells=("ab", "c"))) != table_key(
            dict_table(cells=("a", "bc")))

    def test_legacy_header_field_is_honoured(self):
        legacy = {"table_id": "t0",
                  "columns": [{"header": "c0", "cells": ["a", "b"]}]}
        assert table_key(legacy) == table_key(dict_table())

    def test_label_is_part_of_identity(self):
        labelled = Table(table_id="t0", columns=[
            Column(name="c0", cells=["a", "b"], label="city")])
        assert table_key(labelled) != table_key(obj_table())
        dict_labelled = {"table_id": "t0", "columns": [
            {"name": "c0", "cells": ["a", "b"], "label": "city"}]}
        assert table_key(dict_labelled) == table_key(labelled)

    def test_unknown_shapes_fall_back_to_repr(self):
        assert table_key("weird") == table_key("weird")
        assert table_key("weird") != table_key("weirder")


class TestSingleFlight:
    def test_lead_then_hit(self):
        cache = SharedResultsCache()
        key = table_key(dict_table())
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


class TestBounds:
    def test_lru_evicts_oldest_at_capacity(self):
        cache = SharedResultsCache(maxsize=2)
        for index in range(3):
            key = f"k{index}"
            _, flight = cache.begin(key)
            cache.complete(key, flight, index)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        outcome, _ = cache.begin("k0")  # oldest, evicted
        assert outcome == "lead"
        assert cache.begin("k2")[0] == "hit"

    def test_zero_maxsize_disables_storage_keeps_coalescing(self):
        cache = SharedResultsCache(maxsize=0)
        _, flight = cache.begin("k")
        assert cache.begin("k")[0] == "join"  # coalescing still works
        cache.complete("k", flight, "v")
        assert cache.begin("k")[0] == "lead"  # nothing was stored


class TestStats:
    def test_counters_track_the_protocol(self):
        cache = SharedResultsCache(maxsize=8)
        _, flight = cache.begin("k")
        cache.begin("k")
        cache.complete("k", flight, "v")
        cache.begin("k")
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "coalesced": 1,
                         "evictions": 0, "size": 1, "maxsize": 8}

    def test_clear_resets_storage_and_flights(self):
        cache = SharedResultsCache()
        _, flight = cache.begin("k")
        cache.complete("k", flight, "v")
        cache.begin("wedged")  # leave a flight open
        cache.clear()
        assert cache.begin("k")[0] == "lead"
        assert cache.begin("wedged")[0] == "lead"  # old flight was dropped
