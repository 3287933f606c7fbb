"""Tests of Part 1: knowledge-graph candidate-type extraction."""

from __future__ import annotations

import pytest

from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.data.table import Column, Table
from repro.kg.graph import Predicates
from repro.text.ner import EntitySchema


@pytest.fixture(scope="module")
def extractor(graph, linker):
    return KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)


@pytest.fixture(scope="module")
def athlete_table(world):
    """A table of real KG athletes with their teams (strong linkage)."""
    graph = world.graph
    athletes = []
    for type_label in ("Cricketer", "Basketball player", "Footballer"):
        athletes.extend(world.instances(type_label))
    athletes = athletes[:8]
    names, teams = [], []
    for entity_id in athletes:
        names.append(graph.entity(entity_id).label)
        team = next(
            (t.object for t in graph.outgoing(entity_id) if t.predicate == Predicates.MEMBER_OF),
            None,
        )
        teams.append(graph.entity(team).label if team else "")
    return Table(
        table_id="athletes",
        columns=[
            Column(name="player", cells=names, label="Athlete"),
            Column(name="team", cells=teams, label="Sports team"),
        ],
    )


class TestPart1Config:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            Part1Config(top_k_rows=0)

    def test_rejects_unknown_row_filter(self):
        with pytest.raises(ValueError):
            Part1Config(row_filter="random")

    def test_rejects_negative_candidate_types(self):
        with pytest.raises(ValueError):
            Part1Config(max_candidate_types=-1)


class TestLinking:
    def test_link_table_shape(self, extractor, toy_table):
        linked = extractor.link_table(toy_table)
        assert len(linked) == toy_table.n_rows
        assert len(linked[0]) == toy_table.n_columns

    def test_numeric_cells_have_no_links(self, extractor, toy_table):
        linked = extractor.link_table(toy_table)
        numeric_column = 2
        assert all(not linked[row][numeric_column].has_links for row in range(toy_table.n_rows))

    def test_date_cells_have_no_links(self, extractor, toy_table):
        linked = extractor.link_table(toy_table)
        assert all(not linked[row][1].has_links for row in range(toy_table.n_rows))

    def test_schema_recorded(self, extractor, toy_table):
        linked = extractor.link_table(toy_table)
        assert linked[0][2].schema == EntitySchema.NUMBER
        assert linked[0][1].schema == EntitySchema.DATE


class TestOverlapFilter:
    def test_candidate_entities_populated(self, extractor, athlete_table):
        linked = extractor.link_table(athlete_table)
        extractor.apply_overlap_filter(linked)
        linked_cells = [cell for row in linked for cell in row if cell.has_links]
        assert linked_cells
        assert any(cell.candidate_entities for cell in linked_cells)

    def test_overlapping_entities_have_positive_scores(self, extractor, athlete_table):
        linked = extractor.link_table(athlete_table)
        extractor.apply_overlap_filter(linked)
        positive = [
            score
            for row in linked for cell in row
            for score in cell.candidate_entities.values()
            if score > 0
        ]
        # Players and their teams are connected, so at least some overlap exists.
        assert positive

    def test_linking_score_zero_for_unlinked_cells(self, extractor, toy_table):
        linked = extractor.link_table(toy_table)
        extractor.apply_overlap_filter(linked)
        assert all(linked[row][2].linking_score == 0.0 for row in range(toy_table.n_rows))

    def test_row_scores_sum_of_cells(self, extractor, athlete_table):
        linked = extractor.link_table(athlete_table)
        extractor.apply_overlap_filter(linked)
        scores = extractor.row_linking_scores(linked)
        assert len(scores) == athlete_table.n_rows
        assert all(score >= 0 for score in scores)

    def test_apply_overlap_filter_keeps_raw_entities_as_fallback(self, extractor, world):
        # A single-column table has no other columns to overlap with: every
        # cell keeps its raw entities with zero overlapping score.
        person = world.graph.entity(world.instances("Human")[0]).label
        table = Table("single", [Column(name="n", cells=[person], label="Human")])
        linked = extractor.link_table(table)
        extractor.apply_overlap_filter(linked)
        cell = linked[0][0]
        assert cell.candidate_entities
        assert all(score == 0.0 for score in cell.candidate_entities.values())
        assert cell.linking_score == 0.0


class TestRowSelection:
    def test_linkage_filter_prefers_high_scores(self, extractor, athlete_table):
        table = athlete_table
        scores = [0.0, 5.0, 1.0, 9.0, 2.0, 0.5, 7.0, 3.0][: table.n_rows]
        extractor_small = KGCandidateExtractor(
            extractor.graph, Part1Config(top_k_rows=3), linker=extractor.linker
        )
        kept = extractor_small.select_rows(table, scores)
        assert len(kept) == 3
        assert set(kept) == {1, 3, 6}

    def test_original_filter_keeps_first_rows(self, extractor, athlete_table):
        extractor_orig = KGCandidateExtractor(
            extractor.graph, Part1Config(top_k_rows=3, row_filter="original"),
            linker=extractor.linker,
        )
        kept = extractor_orig.select_rows(athlete_table, [0.0] * athlete_table.n_rows)
        assert kept == [0, 1, 2]

    def test_k_larger_than_table_keeps_all(self, extractor, toy_table):
        kept = extractor.select_rows(toy_table, [1.0, 2.0, 3.0])
        assert len(kept) == toy_table.n_rows


class TestProcessTable:
    def test_processed_structure(self, extractor, athlete_table):
        processed = extractor.process_table(athlete_table)
        assert processed.original is athlete_table
        assert processed.filtered.n_rows <= extractor.config.top_k_rows
        assert len(processed.columns) == athlete_table.n_columns
        assert len(processed.row_scores) == athlete_table.n_rows

    def test_candidate_types_generated_for_linked_columns(self, extractor, athlete_table):
        processed = extractor.process_table(athlete_table)
        player_info = processed.columns[0]
        assert player_info.has_kg_links
        assert player_info.candidate_types, "athlete column should receive candidate types"

    def test_candidate_types_exclude_person_entities(self, extractor, athlete_table, graph):
        processed = extractor.process_table(athlete_table)
        person_labels = {name.lower() for entity in graph.entities()
                         if entity.schema == EntitySchema.PERSON
                         for name in (entity.label, *entity.aliases)}
        for info in processed.columns:
            for type_label in info.candidate_types:
                assert type_label.lower() not in person_labels

    def test_numeric_column_gets_summary_not_types(self, extractor, toy_table):
        processed = extractor.process_table(toy_table)
        numeric_info = processed.columns[2]
        assert numeric_info.is_numeric
        assert numeric_info.candidate_types == []
        assert len(numeric_info.numeric_summary) == 3
        # mean, variance, mean (the paper lists mean, variance and average)
        assert numeric_info.numeric_summary[0] == numeric_info.numeric_summary[2]

    def test_feature_sequence_mentions_entity_and_predicates(self, extractor, athlete_table, graph):
        processed = extractor.process_table(athlete_table)
        feature = processed.columns[0].feature_sequence
        assert feature
        assert "," in feature  # label followed by predicate/neighbor pairs

    def test_feature_sequence_empty_for_numeric(self, extractor, toy_table):
        processed = extractor.process_table(toy_table)
        assert processed.columns[2].feature_sequence == ""

    def test_labels_preserved(self, extractor, athlete_table):
        processed = extractor.process_table(athlete_table)
        assert processed.labels() == ["Athlete", "Sports team"]

    def test_candidate_types_disabled_by_config(self, graph, linker, athlete_table):
        extractor = KGCandidateExtractor(
            graph, Part1Config(use_candidate_types=False), linker=linker
        )
        processed = extractor.process_table(athlete_table)
        assert all(not info.candidate_types for info in processed.columns)

    def test_feature_sequence_disabled_by_config(self, graph, linker, athlete_table):
        extractor = KGCandidateExtractor(
            graph, Part1Config(use_feature_sequence=False), linker=linker
        )
        processed = extractor.process_table(athlete_table)
        assert all(not info.feature_sequence for info in processed.columns)

    def test_max_candidate_types_respected(self, graph, linker, athlete_table):
        extractor = KGCandidateExtractor(
            graph, Part1Config(max_candidate_types=1), linker=linker
        )
        processed = extractor.process_table(athlete_table)
        assert all(len(info.candidate_types) <= 1 for info in processed.columns)


class TestLinkStatistics:
    def test_statistics_totals(self, extractor, semtab_corpus):
        processed = extractor.process_tables(semtab_corpus.tables[:10])
        stats = extractor.link_statistics(processed)
        assert stats["total_columns"] == sum(t.n_columns for t in semtab_corpus.tables[:10])
        assert stats["numeric_columns"] == 0

    def test_viznet_has_numeric_and_uncovered_columns(self, extractor, viznet_corpus):
        processed = extractor.process_tables(viznet_corpus.tables[:15])
        stats = extractor.link_statistics(processed)
        assert stats["numeric_columns"] > 0
        assert stats["non_numeric_without_candidate_type"] >= stats["non_numeric_without_feature_vector"]
