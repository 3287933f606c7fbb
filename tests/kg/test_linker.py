"""Tests of the cell-mention entity linker."""

from __future__ import annotations

import pytest

from repro.kg import linker as linker_module
from repro.kg.graph import KnowledgeGraph, Predicates
from repro.kg.linker import EntityLinker, LinkCacheInfo, LinkerConfig
from repro.text.ner import EntitySchema


@pytest.fixture()
def small_graph():
    graph = KnowledgeGraph()
    graph.create_entity("Q1", "Peter Steele", description="a musician",
                        schema=EntitySchema.PERSON)
    graph.create_entity("Q2", "Peter Johnson", description="a cricketer",
                        schema=EntitySchema.PERSON)
    graph.create_entity("Q3", "Riverton Tigers", description="a basketball team")
    graph.create_entity("Q4", "Musician", is_type=True)
    graph.add_triple("Q1", Predicates.OCCUPATION, "Q4")
    return graph


@pytest.fixture()
def small_linker(small_graph):
    return EntityLinker(small_graph, LinkerConfig(max_candidates=5))


class TestLinkerConfig:
    def test_rejects_non_positive_candidates(self):
        with pytest.raises(ValueError):
            LinkerConfig(max_candidates=0)


class TestLinking:
    def test_exact_mention_links_to_entity(self, small_linker):
        links = small_linker.link("Peter Steele")
        assert links and links[0].doc_id == "Q1"

    def test_ambiguous_mention_returns_multiple(self, small_linker):
        links = small_linker.link("Peter")
        assert {link.doc_id for link in links} >= {"Q1", "Q2"}

    def test_numbers_never_linked(self, small_linker):
        assert small_linker.link("1234") == []

    def test_dates_never_linked(self, small_linker):
        assert small_linker.link("1888-11-24") == []

    def test_numbers_linked_when_configured(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(link_numbers_and_dates=True))
        # Still no hits (no numeric entity labels), but the schema filter is off
        # so the call goes through the index rather than short-circuiting.
        assert linker.link("1888-11-24") == []

    def test_empty_and_none_mentions(self, small_linker):
        assert small_linker.link("") == []
        assert small_linker.link(None) == []
        assert small_linker.link("   ") == []

    def test_unknown_mention_returns_empty(self, small_linker):
        assert small_linker.link("zzzz qqqq") == []

    def test_max_candidates_respected(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=1))
        assert len(linker.link("Peter")) == 1

    def test_scores_sorted_descending(self, small_linker):
        links = small_linker.link("Peter Steele musician")
        scores = [link.score for link in links]
        assert scores == sorted(scores, reverse=True)


class TestScores:
    def test_best_link_is_first(self, small_linker):
        best = small_linker.best_link("Riverton Tigers")
        assert best is not None and best.doc_id == "Q3"

    def test_best_link_none_for_numbers(self, small_linker):
        assert small_linker.best_link("42") is None

    def test_cache_reused_for_repeated_mentions(self, small_linker):
        small_linker.link("Peter Steele")
        before = small_linker.cache_info().hits
        small_linker.link("Peter Steele")
        assert small_linker.cache_info().hits == before + 1


class TestLinkBatch:
    MENTIONS = [
        "Peter Steele",
        "1234",            # number: never linked
        "Riverton Tigers",
        "",
        None,
        "1888-11-24",      # date: never linked
        "Peter Steele",    # duplicate: one retrieval
        "  Peter Steele  ",  # whitespace normalises to the same key
        "zzzz qqqq",
        "PETER",
    ]

    def test_matches_sequential_link(self, small_graph):
        batch_linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        seq_linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        batched = batch_linker.link_batch(self.MENTIONS)
        sequential = [seq_linker.link(mention) for mention in self.MENTIONS]
        assert batched == sequential

    def test_precomputed_schemas_do_not_change_results(self, small_graph):
        from repro.text.ner import detect_schema

        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        schemas = [detect_schema(m) for m in self.MENTIONS]
        with_schemas = linker.link_batch(self.MENTIONS, schemas=schemas)
        without = linker.link_batch(self.MENTIONS)
        assert with_schemas == without

    def test_schemas_must_align(self, small_linker):
        with pytest.raises(ValueError):
            small_linker.link_batch(["a", "b"], schemas=[EntitySchema.OTHER])

    def test_duplicates_resolved_through_one_retrieval(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        linker.link_batch(["Peter Steele"] * 50 + ["PETER STEELE", "  peter steele "])
        # One distinct key -> exactly one cache miss for the whole batch.
        assert linker.cache_info().misses == 1

    def test_empty_batch(self, small_linker):
        assert small_linker.link_batch([]) == []

    def test_batch_shares_cache_with_link(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        expected = linker.link("Peter Steele")
        hits_before = linker.cache_info().hits
        assert linker.link_batch(["Peter Steele"]) == [expected]
        assert linker.cache_info().hits == hits_before + 1


class _CountingIndex:
    """Wraps an index and records every batch of queries sent to it."""

    def __init__(self, index):
        self.index = index
        self.batches: list[list[str]] = []

    def search(self, query, top_k=10):
        raise AssertionError("the linker searches through search_batch only")

    def search_batch(self, queries, top_k=10):
        self.batches.append(list(queries))
        return self.index.search_batch(queries, top_k=top_k)


class TestRetrievalMemo:
    def test_missing_keys_go_through_one_search_batch(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        counting = _CountingIndex(linker.index)
        linker.index = counting
        linker.link_batch(["Peter Steele", "1234", "peter steele", "Riverton Tigers"])
        assert counting.batches == [["peter steele", "riverton tigers"]]
        linker.link_batch(["Riverton Tigers", "Peter", "PETER STEELE"])
        assert counting.batches[1:] == [["peter"]]
        linker.link_batch(["Peter Steele", "42"])  # all memoised: no search
        assert len(counting.batches) == 2

    def test_cache_info_counts_distinct_keys(self, small_graph):
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        linker.link_batch(["Peter Steele", "Peter Steele", "Peter", "1234"])
        linker.link_batch(["Peter", "Riverton Tigers"])
        info = linker.cache_info()
        assert isinstance(info, LinkCacheInfo)
        assert (info.hits, info.misses, info.currsize) == (1, 3, 3)
        assert info.maxsize == linker_module._LINK_MEMO_SIZE
        linker.cache_clear()
        assert linker.cache_info()[:2] == (0, 0) and linker.cache_info().currsize == 0

    def test_memo_filling_part_way_through_a_batch(self, small_graph, monkeypatch):
        mentions = ["Peter Steele", "Riverton Tigers", "Peter", "Musician",
                    "Riverton", "Peter Steele", "Johnson", "PETER"]
        expected = EntityLinker(small_graph, LinkerConfig(max_candidates=5)).link_batch(
            mentions
        )
        monkeypatch.setattr(linker_module, "_LINK_MEMO_SIZE", 2)
        linker = EntityLinker(small_graph, LinkerConfig(max_candidates=5))
        linker.link_batch(["Peter Steele", "Riverton"])  # memo now full
        # Two hits, then four misses that clear the memo twice mid-batch.
        assert linker.link_batch(mentions) == expected
        info = linker.cache_info()
        assert (info.hits, info.misses) == (2, 2 + 4)
        assert info.currsize <= 2
        assert [linker.link(mention) for mention in mentions] == expected


class TestAgainstSyntheticWorld:
    def test_person_labels_link_to_themselves(self, world, linker):
        # Take a handful of person entities and check self-retrieval quality.
        people = world.instances("Human")[:20]
        hits = 0
        for entity_id in people:
            label = world.graph.entity(entity_id).label
            best = linker.best_link(label)
            if best is not None and best.doc_id == entity_id:
                hits += 1
        assert hits >= len(people) * 0.7

    def test_abbreviated_alias_still_retrieves_candidates(self, world, linker):
        entity_id = world.instances("Human")[0]
        alias = world.graph.entity(entity_id).aliases[0]
        links = linker.link(alias)
        assert links  # the surname should at least produce candidates
