"""Tests of the synthetic WikiData-style world builder."""

from __future__ import annotations

import pytest

from repro.kg.builder import KGWorldConfig, SyntheticKGBuilder
from repro.kg.graph import Predicates


class TestConfig:
    def test_scaled_multiplies_counts(self):
        config = KGWorldConfig(num_people=100, seed=5).scaled(0.5)
        assert config.num_people == 50
        assert config.seed == 5

    def test_scaled_has_minimum(self):
        config = KGWorldConfig(num_awards=10).scaled(0.01)
        assert config.num_awards >= 5


class TestWorldStructure:
    def test_entity_and_triple_counts_positive(self, world):
        summary = world.graph.describe()
        assert summary["entities"] > 300
        assert summary["triples"] > summary["entities"]

    def test_type_entities_registered(self, world):
        for label in ("Human", "Cricketer", "Film", "City", "Protein"):
            assert label in world.type_entity_ids

    def test_available_types_have_instances(self, world):
        assert world.instances("Cricketer") or world.instances("Basketball player")
        assert all(world.instances(label) for label in ("Human", "Film", "City"))

    def test_people_are_instances_of_human(self, world):
        human_id = world.type_entity_ids["Human"]
        person = world.instances("Human")[0]
        assert human_id in world.graph.types_of(person)

    def test_fine_type_in_one_hop_not_in_type_attribute(self, world):
        """The type-granularity structure: occupation types are one hop away."""
        graph = world.graph
        cricketers = world.instances("Cricketer")
        if not cricketers:
            pytest.skip("no cricketers at this scale")
        cricketer_type = world.type_entity_ids["Cricketer"]
        entity_id = cricketers[0]
        assert cricketer_type not in graph.types_of(entity_id)
        assert cricketer_type in graph.one_hop_neighbors(entity_id)

    def test_athletes_have_team_membership(self, world):
        graph = world.graph
        for occupation in ("Cricketer", "Basketball player", "Footballer"):
            for entity_id in world.instances(occupation)[:5]:
                predicates = {t.predicate for t in graph.outgoing(entity_id)}
                assert Predicates.MEMBER_OF in predicates

    def test_albums_point_at_performers(self, world):
        graph = world.graph
        album = world.instances("Album")[0]
        predicates = {t.predicate for t in graph.outgoing(album)}
        assert Predicates.PERFORMER in predicates

    def test_people_have_birth_dates(self, world):
        person = world.instances("Human")[0]
        assert world.literal(person, "birth_date")

    def test_literal_default_for_missing(self, world):
        person = world.instances("Human")[0]
        assert world.literal(person, "no_such_attribute", default="x") == "x"

    def test_cities_linked_to_countries(self, world):
        graph = world.graph
        city = world.instances("City")[0]
        predicates = {t.predicate for t in graph.outgoing(city)}
        assert Predicates.COUNTRY in predicates or Predicates.CAPITAL_OF in predicates

    def test_proteins_encoded_by_genes(self, world):
        graph = world.graph
        protein = world.instances("Protein")[0]
        assert any(t.predicate == Predicates.ENCODED_BY for t in graph.outgoing(protein))

    def test_subclass_hierarchy_present(self, world):
        graph = world.graph
        cricketer = world.type_entity_ids["Cricketer"]
        athlete = world.type_entity_ids["Athlete"]
        assert any(
            t.predicate == Predicates.SUBCLASS_OF and t.object == athlete
            for t in graph.outgoing(cricketer)
        )


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = KGWorldConfig(seed=42).scaled(0.1)
        first = SyntheticKGBuilder(config).build()
        second = SyntheticKGBuilder(config).build()
        assert first.graph.describe() == second.graph.describe()
        assert [e.label for e in list(first.graph.entities())[:50]] == [
            e.label for e in list(second.graph.entities())[:50]
        ]

    def test_different_seed_different_world(self):
        first = SyntheticKGBuilder(KGWorldConfig(seed=1).scaled(0.1)).build()
        second = SyntheticKGBuilder(KGWorldConfig(seed=2).scaled(0.1)).build()
        first_labels = [e.label for e in list(first.graph.entities())[:200]]
        second_labels = [e.label for e in list(second.graph.entities())[:200]]
        assert first_labels != second_labels
