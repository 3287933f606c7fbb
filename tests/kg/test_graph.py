"""Tests of the knowledge-graph triple store."""

from __future__ import annotations

import pytest

from repro.kg.graph import KnowledgeGraph, Predicates
from repro.text.ner import EntitySchema


@pytest.fixture()
def tiny_graph():
    graph = KnowledgeGraph()
    graph.create_entity("Q1", "Human", is_type=True)
    graph.create_entity("Q2", "Cricketer", is_type=True)
    graph.create_entity("Q3", "Peter Steele", aliases=("P. Steele",), schema=EntitySchema.PERSON)
    graph.create_entity("Q4", "Riverton Tigers")
    graph.create_entity("Q5", "Rust")
    graph.add_triple("Q3", Predicates.INSTANCE_OF, "Q1")
    graph.add_triple("Q3", Predicates.OCCUPATION, "Q2")
    graph.add_triple("Q3", Predicates.MEMBER_OF, "Q4")
    graph.add_triple("Q5", Predicates.PERFORMER, "Q3")
    return graph


class TestConstruction:
    def test_duplicate_entity_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.create_entity("Q1", "Duplicate")

    def test_triple_requires_known_subject(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.add_triple("Q99", Predicates.INSTANCE_OF, "Q1")

    def test_triple_requires_known_object(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.add_triple("Q1", Predicates.INSTANCE_OF, "Q99")

    def test_len_and_contains(self, tiny_graph):
        assert len(tiny_graph) == 5
        assert "Q3" in tiny_graph and "Q99" not in tiny_graph

    def test_num_triples(self, tiny_graph):
        assert len(list(tiny_graph.triples())) == 4


class TestLookups:
    def test_entity_by_id(self, tiny_graph):
        assert tiny_graph.entity("Q3").label == "Peter Steele"

    def test_unknown_entity_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.entity("Q99")

    def test_type_entities(self, tiny_graph):
        assert {e.entity_id for e in tiny_graph.type_entities()} == {"Q1", "Q2"}

    def test_document_text_includes_aliases(self, tiny_graph):
        assert "P. Steele" in tiny_graph.entity("Q3").document_text()


class TestNeighborhoods:
    def test_outgoing_and_incoming(self, tiny_graph):
        assert len(tiny_graph.outgoing("Q3")) == 3
        assert len(tiny_graph.incoming("Q3")) == 1

    def test_one_hop_includes_both_directions(self, tiny_graph):
        neighbors = tiny_graph.one_hop_neighbors("Q3")
        assert neighbors == {"Q1", "Q2", "Q4", "Q5"}

    def test_one_hop_outgoing_only(self, tiny_graph):
        neighbors = tiny_graph.one_hop_neighbors("Q3", include_incoming=False)
        assert neighbors == {"Q1", "Q2", "Q4"}

    def test_one_hop_excludes_self(self, tiny_graph):
        tiny_graph.add_triple("Q3", Predicates.PART_OF, "Q3")
        assert "Q3" not in tiny_graph.one_hop_neighbors("Q3")

    def test_neighborhood_with_predicates(self, tiny_graph):
        pairs = tiny_graph.neighborhood_with_predicates("Q3")
        assert (Predicates.OCCUPATION, "Q2") in pairs
        assert (Predicates.PERFORMER, "Q5") in pairs

    def test_types_of_uses_instance_of_only(self, tiny_graph):
        assert tiny_graph.types_of("Q3") == {"Q1"}

    def test_describe_counts(self, tiny_graph):
        summary = tiny_graph.describe()
        assert summary["entities"] == 5
        assert summary["type_entities"] == 2
        assert summary["triples"] == 4
        assert summary["predicates"] == 4
