"""Part 1 of KGLink: knowledge-graph candidate-type extraction.

Implements the three steps of Figure 4 of the paper:

* **Step 1 — table cell mention linking.**  Every cell mention is linked to a
  set of candidate KG entities with BM25 linking scores (Eq. 1–2).  Numbers
  and dates receive no links (linking score 0).
* **Step 2 — filters on rows and entities.**  Candidate entities of a cell are
  pruned to those appearing in the one-hop neighbourhood of entities retrieved
  for other columns of the same row (Eq. 3), each surviving entity receives an
  *overlapping score* counting how many of those neighbourhoods contain it
  (Eq. 6), cells receive linking scores (Eq. 4), rows receive the sum of their
  cells' scores (Eq. 5) and only the top-``k`` rows are kept.
* **Step 3 — candidate type generation.**  Candidate types are one-hop
  neighbours of the surviving entities, scored by the overlapping scores of
  the entities that point at them (Eq. 7–8), excluding PERSON and DATE
  entities.  The best-linked cell of each column also yields a *feature
  sequence* serialising its top entity and that entity's neighbourhood
  (Eq. 9); numeric columns instead contribute their mean, variance and average
  as pseudo candidate types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.table import Column, Table, schemas_are_numeric
from repro.kg.graph import KnowledgeGraph
from repro.kg.backends import SearchHit
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.kg.snapshot import KGSnapshot
from repro.text.ner import EntitySchema, detect_schema

__all__ = [
    "Part1Config",
    "CellLinkage",
    "ColumnKGInfo",
    "ProcessedTable",
    "KGCandidateExtractor",
]

# Bounds of the extractor's memos (entries; a full memo is cleared and
# refilled).  Each memo holds a pure function of the graph snapshot or of a
# mention, so clearing one only costs recomputation.
_NEIGHBOR_MEMO_SIZE = 16_384  # entity -> one-hop neighbourhood (and its type filter)
_UNION_MEMO_SIZE = 4_096      # linked entity ids of a cell -> union of neighbourhoods
_SCHEMA_MEMO_SIZE = 16_384    # cell mention -> EntitySchema
_EXCLUDED_TYPE_SCHEMAS = (EntitySchema.PERSON, EntitySchema.DATE)
_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Part1Config:
    """Configuration of the KG candidate-type extraction.

    ``top_k_rows`` is the row-filter size ``k`` (the paper uses 25 by default
    and studies 10/25/50/all in Figure 10); ``max_candidate_types`` is the
    number of candidate types kept per column (the paper keeps up to 3);
    ``max_entities_per_cell`` is the retrieval depth (the paper retrieves up
    to 10 entities per mention).
    """

    top_k_rows: int = 25
    max_candidate_types: int = 3
    max_entities_per_cell: int = 10
    max_feature_neighbors: int = 8
    row_filter: str = "linkage"  # "linkage" (ours) or "original" (Table V baseline)
    use_candidate_types: bool = True
    use_feature_sequence: bool = True

    def __post_init__(self) -> None:
        if self.top_k_rows <= 0:
            raise ValueError("top_k_rows must be positive")
        if self.max_candidate_types < 0:
            raise ValueError("max_candidate_types must be non-negative")
        if self.row_filter not in ("linkage", "original"):
            raise ValueError("row_filter must be 'linkage' or 'original'")


@dataclass
class CellLinkage:
    """Linking results for one table cell."""

    mention: str
    schema: EntitySchema
    # the linker's hits, best first (``doc_id`` is the entity id)
    raw_links: list[SearchHit] = field(default_factory=list)
    # entity id -> overlapping score (Eq. 6), populated in step 2
    candidate_entities: dict[str, float] = field(default_factory=dict)
    linking_score: float = 0.0

    @property
    def has_links(self) -> bool:
        return bool(self.raw_links)


@dataclass
class ColumnKGInfo:
    """Everything Part 1 extracted for one column."""

    column_index: int
    label: str | None
    is_numeric: bool
    candidate_types: list[str] = field(default_factory=list)
    candidate_type_scores: dict[str, float] = field(default_factory=dict)
    feature_sequence: str = ""
    numeric_summary: list[str] = field(default_factory=list)
    has_kg_links: bool = False

    @property
    def has_candidate_types(self) -> bool:
        return bool(self.candidate_types)

    @property
    def has_feature_sequence(self) -> bool:
        return bool(self.feature_sequence)


@dataclass
class ProcessedTable:
    """The output of Part 1 for one table: the filtered table plus KG context."""

    original: Table
    filtered: Table
    columns: list[ColumnKGInfo]
    row_scores: list[float]
    kept_row_indices: list[int]

    def labels(self) -> list[str | None]:
        return [info.label for info in self.columns]


class KGCandidateExtractor:
    """Runs Part 1 of KGLink against a knowledge graph.

    ``graph`` may be a full :class:`~repro.kg.graph.KnowledgeGraph` or the
    serialisable :class:`~repro.kg.snapshot.KGSnapshot` a service bundle
    ships — the extractor only touches the entity/one-hop-neighbourhood
    surface both expose.  Retrieval goes through ``linker``, which searches
    a :class:`~repro.kg.backends.BM25Index`.
    """

    def __init__(
        self,
        graph: KnowledgeGraph | KGSnapshot,
        config: Part1Config | None = None,
        linker: EntityLinker | None = None,
    ):
        self.graph = graph
        self.config = config or Part1Config()
        self.linker = linker or EntityLinker(
            graph, LinkerConfig(max_candidates=self.config.max_entities_per_cell)
        )
        # Neighbourhoods, their unions and mention schemas repeat across the
        # cells and tables one extractor sees; memoise them per instance (the
        # memos die with the extractor, and each is bounded, see above).
        self._neighbor_cache: dict[str, frozenset[str]] = {}
        self._type_neighbor_cache: dict[str, tuple[str, ...]] = {}
        self._union_cache: dict[tuple[str, ...], frozenset[str]] = {}
        self._schema_cache: dict[str, EntitySchema] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _remember(memo: dict, key, value, bound: int):
        if len(memo) >= bound:
            memo.clear()
        memo[key] = value
        return value

    def _neighbors(self, entity_id: str) -> frozenset[str]:
        cached = self._neighbor_cache.get(entity_id)
        if cached is None:
            cached = self._remember(
                self._neighbor_cache, entity_id,
                frozenset(self.graph.one_hop_neighbors(entity_id)), _NEIGHBOR_MEMO_SIZE,
            )
        return cached

    def _type_neighbors(self, entity_id: str) -> tuple[str, ...]:
        """``N(e)`` without PERSON and DATE entities: the candidate types ``e`` supports."""
        cached = self._type_neighbor_cache.get(entity_id)
        if cached is None:
            entity = self.graph.entity
            cached = self._remember(
                self._type_neighbor_cache, entity_id,
                tuple(
                    neighbor_id for neighbor_id in self._neighbors(entity_id)
                    if entity(neighbor_id).schema not in _EXCLUDED_TYPE_SCHEMAS
                ),
                _NEIGHBOR_MEMO_SIZE,
            )
        return cached

    def _neighborhood_union(self, links: list[SearchHit]) -> frozenset[str]:
        """Union of the one-hop neighbourhoods of a cell's linked entities."""
        if not links:
            return _EMPTY
        key = tuple([link.doc_id for link in links])
        cached = self._union_cache.get(key)
        if cached is None:
            cached = self._remember(
                self._union_cache, key,
                _EMPTY.union(*(self._neighbors(entity_id) for entity_id in key)),
                _UNION_MEMO_SIZE,
            )
        return cached

    def _schema(self, mention: str) -> EntitySchema:
        cached = self._schema_cache.get(mention)
        if cached is None:
            cached = self._remember(
                self._schema_cache, mention, detect_schema(mention), _SCHEMA_MEMO_SIZE
            )
        return cached

    # ------------------------------------------------------------------ #
    # step 1: linking
    # ------------------------------------------------------------------ #
    def link_tables(self, tables: list[Table]) -> list[list[list[CellLinkage]]]:
        """Link every cell of every table; each result is indexed ``[row][column]``.

        The distinct cell mentions of all tables are collected up front, their
        schemas detected once each, and resolved through one
        :meth:`~repro.kg.linker.EntityLinker.link_batch` call (numbers and
        dates are filtered inside the batch), then fanned back out to each
        table's row-major cell grid.
        """
        grids = [list(table.iter_rows()) for table in tables]
        distinct = list(dict.fromkeys(
            mention for grid in grids for row in grid for mention in row
        ))
        schemas = [self._schema(mention) for mention in distinct]
        links = self.linker.link_batch(distinct, schemas=schemas)
        resolved = dict(zip(distinct, zip(schemas, links)))
        linked_tables: list[list[list[CellLinkage]]] = []
        for grid in grids:
            linked: list[list[CellLinkage]] = []
            for row in grid:
                cells: list[CellLinkage] = []
                for mention in row:
                    schema, raw_links = resolved[mention]
                    cells.append(CellLinkage(mention, schema, list(raw_links)))
                linked.append(cells)
            linked_tables.append(linked)
        return linked_tables

    def link_table(self, table: Table) -> list[list[CellLinkage]]:
        """Link every cell of one table (:meth:`link_tables` for one table)."""
        return self.link_tables([table])[0]

    # ------------------------------------------------------------------ #
    # step 2: overlap filtering and row scores
    # ------------------------------------------------------------------ #
    def apply_overlap_filter(self, linked: list[list[CellLinkage]]) -> None:
        """Populate candidate entities, overlapping scores and cell linking scores.

        For a cell in column ``c1`` of row ``r``, the candidate entity set is
        the subset of its retrieved entities that appear in the one-hop
        neighbourhood of entities retrieved for *some other column* of the same
        row (Eq. 3); the overlapping score of each surviving entity counts in
        how many of those other-column neighbourhoods it appears (Eq. 6).
        Cells whose candidate set would be empty keep their raw entities with
        an overlapping score of zero so a weak signal survives (this mirrors
        the paper's feature-vector fallback), but their linking score follows
        Eq. 4 over the pruned set when it is non-empty.
        """
        for row in linked:
            # The one-hop neighbourhood of each column's entity set.
            column_neighborhoods = [self._neighborhood_union(cell.raw_links) for cell in row]

            for col_index, cell in enumerate(row):
                if not cell.raw_links:
                    cell.candidate_entities = {}
                    cell.linking_score = 0.0
                    continue
                # Empty neighbourhoods (unlinked cells) contain no entity.
                other_neighborhoods = [
                    neighborhood
                    for other, neighborhood in enumerate(column_neighborhoods)
                    if other != col_index and neighborhood
                ]
                scores_by_entity: dict[str, float] = {}
                best_pruned_score = 0.0
                for link in cell.raw_links:
                    overlap = 0
                    for neighborhood in other_neighborhoods:
                        if link.doc_id in neighborhood:
                            overlap += 1
                    if overlap > 0:
                        scores_by_entity[link.doc_id] = float(overlap)
                        best_pruned_score = max(best_pruned_score, link.score)
                if scores_by_entity:
                    cell.candidate_entities = scores_by_entity
                    cell.linking_score = best_pruned_score
                else:
                    # Nothing survived the intersection: keep the raw entities
                    # with zero overlapping score so step 3 can still build a
                    # feature sequence, but the cell contributes no linking
                    # score to the row filter.
                    cell.candidate_entities = {
                        link.doc_id: 0.0 for link in cell.raw_links
                    }
                    cell.linking_score = 0.0

    def row_linking_scores(self, linked: list[list[CellLinkage]]) -> list[float]:
        """Row linking score = sum of the row's cell linking scores (Eq. 5)."""
        return [sum(cell.linking_score for cell in row) for row in linked]

    def select_rows(self, table: Table, row_scores: list[float]) -> list[int]:
        """Choose the rows to keep according to the configured filter."""
        k = min(self.config.top_k_rows, table.n_rows)
        if self.config.row_filter == "original":
            return list(range(k))
        order = sorted(range(table.n_rows), key=lambda r: (-row_scores[r], r))
        return sorted(order[:k])

    # ------------------------------------------------------------------ #
    # step 3: candidate types and feature sequences
    # ------------------------------------------------------------------ #
    def _column_candidate_types(
        self, linked: list[list[CellLinkage]], kept_rows: list[int], col_index: int
    ) -> dict[str, float]:
        """Score candidate types for one column (Eq. 7–8).

        Candidate types are entities found in the one-hop neighbourhood of the
        column's candidate entities.  Each candidate entity ``e`` contributes
        its overlapping score ``os_e`` to every type entity in ``N(e)``; types
        supported by entities from several rows therefore accumulate higher
        scores, which is the effect Eq. 8's cross-row sum is designed to
        achieve.  PERSON and DATE entities are excluded, as are non-type
        helper entities only when they never occur as types in the graph.
        """
        scores: dict[str, float] = {}
        first_row: dict[str, int] = {}
        multi_row_ids: set[str] = set()
        for row_index in kept_rows:
            cell = linked[row_index][col_index]
            for entity_id, overlap_score in cell.candidate_entities.items():
                if overlap_score <= 0.0:
                    continue
                for neighbor_id in self._type_neighbors(entity_id):
                    if neighbor_id in scores:
                        scores[neighbor_id] += overlap_score
                        if first_row[neighbor_id] != row_index:
                            multi_row_ids.add(neighbor_id)
                    else:
                        scores[neighbor_id] = overlap_score
                        first_row[neighbor_id] = row_index
        # Eq. 8 only counts support coming from *other* rows (r2 != r1): a type
        # seen from a single row therefore has no cross-row evidence and is
        # dropped unless nothing better exists.
        multi_row = {
            entity_id: score
            for entity_id, score in scores.items()
            if entity_id in multi_row_ids
        }
        return multi_row or scores

    def _feature_sequence(
        self, linked: list[list[CellLinkage]], kept_rows: list[int], col_index: int
    ) -> str:
        """Serialise the best-linked entity of the column and its neighbourhood (Eq. 9)."""
        best_entity: str | None = None
        best_score = 0.0
        for row_index in kept_rows:
            cell = linked[row_index][col_index]
            for link in cell.raw_links:
                if link.doc_id in cell.candidate_entities and link.score > best_score:
                    best_score = link.score
                    best_entity = link.doc_id
        if best_entity is None:
            return ""
        entity = self.graph.entity(best_entity)
        parts = [entity.label]
        for predicate, neighbor_id in self.graph.neighborhood_with_predicates(best_entity)[
            : self.config.max_feature_neighbors
        ]:
            neighbor = self.graph.entity(neighbor_id)
            parts.append(f"{predicate.replace('_', ' ')} {neighbor.label}")
        return " , ".join(parts)

    @staticmethod
    def _numeric_summary(column: Column) -> list[str]:
        """Mean, variance and average of a numeric column (paper Section III-A).

        The paper lists "the column's mean, variance, and average value"; the
        redundancy is reproduced on purpose so the serialised input matches.
        """
        values = []
        for cell in column.cells:
            try:
                values.append(float(cell.replace(",", "")))
            except ValueError:
                continue
        if not values:
            return ["0", "0", "0"]
        array = np.asarray(values)
        return [f"{array.mean():.2f}", f"{array.var():.2f}", f"{array.mean():.2f}"]

    # ------------------------------------------------------------------ #
    # end-to-end
    # ------------------------------------------------------------------ #
    def process_tables(self, tables) -> list[ProcessedTable]:
        """Run Part 1 on every table of an iterable; results align with it.

        Step 1 runs once for all the tables (:meth:`link_tables`, one
        ``link_batch``); Steps 2–3 then run table by table.  Each result
        equals what :meth:`process_table` returns for that table alone.
        """
        tables = list(tables)
        return [
            self.process_table(table, linked)
            for table, linked in zip(tables, self.link_tables(tables), strict=True)
        ]

    def process_table(self, table: Table,
                      linked: list[list[CellLinkage]] | None = None) -> ProcessedTable:
        """Run all three steps on ``table`` and return the processed result.

        ``linked`` is the table's Step-1 output when the caller has already
        linked it (:meth:`process_tables` does); otherwise the table is linked
        here first.  Step 2 fills it in place.
        """
        if linked is None:
            linked = self.link_table(table)
        self.apply_overlap_filter(linked)
        row_scores = self.row_linking_scores(linked)
        kept_rows = self.select_rows(table, row_scores)
        filtered = table.with_rows(kept_rows)

        columns: list[ColumnKGInfo] = []
        for col_index, column in enumerate(table.columns):
            is_numeric = schemas_are_numeric(
                (row[col_index].mention, row[col_index].schema) for row in linked
            )
            info = ColumnKGInfo(
                column_index=col_index,
                label=column.label,
                is_numeric=is_numeric,
            )
            info.has_kg_links = any(
                linked[row_index][col_index].has_links for row_index in range(table.n_rows)
            )
            if is_numeric:
                info.numeric_summary = self._numeric_summary(column)
            elif self.config.use_candidate_types:
                type_scores = self._column_candidate_types(linked, kept_rows, col_index)
                ranked = sorted(type_scores.items(), key=lambda item: (-item[1], item[0]))
                top = ranked[: self.config.max_candidate_types]
                info.candidate_types = [self.graph.entity(eid).label for eid, _ in top]
                info.candidate_type_scores = {
                    self.graph.entity(eid).label: score for eid, score in top
                }
            if self.config.use_feature_sequence and not is_numeric:
                info.feature_sequence = self._feature_sequence(linked, kept_rows, col_index)
            columns.append(info)

        return ProcessedTable(
            original=table,
            filtered=filtered,
            columns=columns,
            row_scores=row_scores,
            kept_row_indices=kept_rows,
        )

    # ------------------------------------------------------------------ #
    # statistics (Table III)
    # ------------------------------------------------------------------ #
    def link_statistics(self, processed: list[ProcessedTable]) -> dict[str, int]:
        """Corpus-level link statistics in the format of the paper's Table III."""
        numeric = 0
        non_numeric_without_fv = 0
        non_numeric_without_ct = 0
        total = 0
        for item in processed:
            for info in item.columns:
                total += 1
                if info.is_numeric:
                    numeric += 1
                    continue
                if not info.has_feature_sequence and not info.has_kg_links:
                    non_numeric_without_fv += 1
                if not info.has_candidate_types:
                    non_numeric_without_ct += 1
        return {
            "numeric_columns": numeric,
            "non_numeric_without_feature_vector": non_numeric_without_fv,
            "non_numeric_without_candidate_type": non_numeric_without_ct,
            "total_columns": total,
        }
