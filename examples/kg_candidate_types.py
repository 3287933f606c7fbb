#!/usr/bin/env python3
"""Inspect Part 1 of KGLink: entity linking, overlapping scores, candidate types.

This example does not train any model.  It walks through the knowledge-graph
side of KGLink on a hand-built table of athletes — the exact scenario of the
paper's Figures 1, 2 and 5 — and prints the intermediate artefacts:

* the BM25 candidate entities of each cell with their linking scores;
* the overlapping scores after the inter-column filter;
* the per-row linking scores and the rows kept by the top-k filter;
* the candidate types of each column and the feature sequence fed to the
  deep-learning component.

Run with::

    python examples/kg_candidate_types.py
"""

from __future__ import annotations

from repro.core import KGCandidateExtractor, Part1Config
from repro.data.table import Column, Table
from repro.kg import KGWorldConfig, build_default_kg
from repro.kg.graph import Predicates


def build_athlete_table(world) -> Table:
    """A table of real KG cricketers/basketball players and their teams."""
    graph = world.graph
    players, teams, countries = [], [], []
    for type_label in ("Cricketer", "Basketball player"):
        for entity_id in world.instances(type_label)[:4]:
            players.append(graph.entity(entity_id).label)
            team = next((t.object for t in graph.outgoing(entity_id)
                         if t.predicate == Predicates.MEMBER_OF), None)
            country = next((t.object for t in graph.outgoing(entity_id)
                            if t.predicate == Predicates.CITIZENSHIP), None)
            teams.append(graph.entity(team).label if team else "")
            countries.append(graph.entity(country).label if country else "")
    return Table(
        table_id="athletes-demo",
        columns=[
            Column(name="player", cells=players, label="Athlete"),
            Column(name="team", cells=teams, label="Sports team"),
            Column(name="country", cells=countries, label="Country"),
        ],
    )


def main() -> None:
    print("building the synthetic knowledge graph ...")
    world = build_default_kg(KGWorldConfig().scaled(0.3))
    table = build_athlete_table(world)
    extractor = KGCandidateExtractor(world.graph, Part1Config(top_k_rows=5))

    print("\n=== step 1: cell mention linking (BM25) ===")
    linked = extractor.link_table(table)
    for col_index, column in enumerate(table.columns):
        mention = column.cells[0]
        links = linked[0][col_index].raw_links[:3]
        rendered = ", ".join(
            f"{world.graph.entity(link.doc_id).label} ({link.score:.2f})" for link in links
        )
        print(f"  {column.name:8s} {mention!r:30s} -> {rendered}")

    print("\n=== step 2: overlap filter and row linking scores ===")
    extractor.apply_overlap_filter(linked)
    row_scores = extractor.row_linking_scores(linked)
    kept = extractor.select_rows(table, row_scores)
    for row_index, score in enumerate(row_scores):
        marker = "*" if row_index in kept else " "
        print(f"  {marker} row {row_index}: linking score {score:8.2f}   {table.row(row_index)}")
    print("  (* = kept by the top-k row filter)")

    print("\n=== step 3: candidate types and feature sequences ===")
    processed = extractor.process_table(table)
    for column, info in zip(table.columns, processed.columns, strict=True):
        print(f"  column {column.name!r} (ground truth: {column.label})")
        print(f"    candidate types : {info.candidate_types}")
        print(f"    feature sequence: {info.feature_sequence[:100]}...")

    stats = extractor.link_statistics([processed])
    print(f"\nlink statistics for this table: {stats}")


if __name__ == "__main__":
    main()
