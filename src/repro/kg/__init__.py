"""Knowledge-graph substrate: a WikiData-style graph, BM25 index and linker.

The paper indexes the WikiData knowledge graph with Elasticsearch and links
table cell mentions to entities with BM25 retrieval.  This package provides
the same capabilities entirely in memory:

* :class:`~repro.kg.graph.KnowledgeGraph` — entities with labels, aliases and
  descriptions, predicates, typed triples and one-hop neighbourhood queries.
* :class:`~repro.kg.backends.BM25Index` — the Okapi BM25 inverted index over
  the entity documents (label + aliases + description, Eq. 1–2 of the
  paper), the one retrieval engine.
* :class:`~repro.kg.linker.EntityLinker` — mention → candidate-entity linking
  that applies the named-entity schema filter (numbers and dates are never
  linked) before querying the index; links are the index's
  :class:`~repro.kg.backends.SearchHit` records.
* :class:`~repro.kg.snapshot.KGSnapshot` — a serialisable read-only view of
  the graph slice Part 1 needs, used by serving bundles.
* :class:`~repro.kg.builder.SyntheticKGBuilder` — constructs a synthetic
  WikiData-like world (people with occupations, films, proteins, cities,
  teams, ...) with the type-hierarchy structure the paper's Part 1 relies on.
"""

from repro.kg.graph import Entity, KnowledgeGraph, Predicates, Triple
from repro.kg.backends import BM25Index, BM25Parameters, SearchHit
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.kg.snapshot import KGSnapshot
from repro.kg.builder import KGWorldConfig, SyntheticKGBuilder, build_default_kg

__all__ = [
    "Entity",
    "KnowledgeGraph",
    "Predicates",
    "Triple",
    "BM25Index",
    "BM25Parameters",
    "SearchHit",
    "EntityLinker",
    "LinkerConfig",
    "KGSnapshot",
    "KGWorldConfig",
    "SyntheticKGBuilder",
    "build_default_kg",
]
