"""Cell-mention to knowledge-graph entity linking (Part 1, step 1).

Given a table cell mention, the linker

1. applies the named-entity schema detector: numbers and dates are never
   linked (their linking score is defined to be 0 by the paper);
2. queries the BM25 index (Eq. 1–2) with the mention text and returns up to
   ``max_candidates`` entities with their linking scores ``ls_e``, as the
   index's own :class:`~repro.kg.backends.SearchHit` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import NamedTuple

from repro.kg.backends import BM25Index, BM25Parameters, SearchHit
from repro.kg.graph import KnowledgeGraph
from repro.text.ner import EntitySchema, detect_schema

__all__ = ["LinkerConfig", "LinkCacheInfo", "EntityLinker"]

# Bound of the linker's retrieval memo (distinct normalised mentions; a full
# memo is cleared and refilled).
_LINK_MEMO_SIZE = 200_000


@dataclass(frozen=True)
class LinkerConfig:
    """Configuration of the entity linker.

    ``max_candidates`` corresponds to the paper's "we retrieved up to 10
    entities from the KG for each cell mention".  ``bm25`` parameterises the
    index built over the graph's entity documents when no pre-built index is
    supplied.
    """

    max_candidates: int = 10
    bm25: BM25Parameters = field(default_factory=BM25Parameters)
    link_numbers_and_dates: bool = False

    def __post_init__(self) -> None:
        if self.max_candidates <= 0:
            raise ValueError("max_candidates must be positive")


class LinkCacheInfo(NamedTuple):
    """Retrieval memo statistics: one hit or miss per distinct key looked up."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class EntityLinker:
    """Link table cell mentions to candidate KG entities via BM25 retrieval.

    Either pass a pre-built ``index`` (this is how serving processes inject
    an index restored from a bundle, and how several linkers share one
    index), or pass a ``graph`` whose entity documents are indexed into a
    fresh :class:`~repro.kg.backends.BM25Index`.  Links are the index's
    :class:`~repro.kg.backends.SearchHit` records (``doc_id`` is the entity
    id, ``score`` its linking score).  Retrievals are memoised per
    normalised mention (a dict bounded by ``_LINK_MEMO_SIZE``, cleared when
    full), and :meth:`link_batch` sends every key the memo lacks to the
    index in one ``index.search_batch`` call.  Like the extractor's memos,
    the memo is unlocked: a linker serves one thread at a time (a service
    calls it under its prepare lock).  To use more processes, run service
    replicas behind a :class:`~repro.fleet.FleetRouter`.
    """

    def __init__(self, graph: KnowledgeGraph | None = None,
                 config: LinkerConfig | None = None,
                 index: BM25Index | None = None):
        self.graph = graph
        self.config = config or LinkerConfig()
        if index is None:
            if graph is None:
                raise ValueError("EntityLinker needs a graph or a pre-built index")
            index = BM25Index(self.config.bm25)
            for entity in graph.entities():
                index.add_document(entity.entity_id, entity.document_text())
        self.index = index
        # Mentions repeat heavily inside a corpus (same cities, teams, people
        # across tables); memoising the raw retrieval is a large speed-up.
        self._memo: dict[str, tuple[SearchHit, ...]] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    def _retrieval_key(self, mention: str, schema: EntitySchema | None = None
                       ) -> str | None:
        """Normalised cache key for ``mention``, or ``None`` when it must not link.

        Numbers and dates receive no links, following the paper: "For
        instances where the cell mention corresponds to a number or a date, it
        is inappropriate to link it to the KG.  In such situations, we assign
        a linking score of 0 to the cell."
        """
        if mention is None:
            return None
        text = str(mention).strip()
        if not text:
            return None
        if not self.config.link_numbers_and_dates:
            # A supplied schema is only reusable when it was detected on the
            # exact text being linked (stripping can change the detection).
            if schema is None or text != mention:
                schema = detect_schema(text)
            if schema in (EntitySchema.NUMBER, EntitySchema.DATE):
                return None
        return text.lower()

    def link(self, mention: str) -> list[SearchHit]:
        """Return candidate entity links for ``mention`` (possibly empty)."""
        return self.link_batch([mention])[0]

    def link_batch(self, mentions: Sequence[str],
                   schemas: Sequence[EntitySchema] | None = None
                   ) -> list[list[SearchHit]]:
        """Link many mentions at once; results align with ``mentions``.

        Mentions are normalised and deduplicated, and every distinct key the
        memo lacks is resolved through one ``index.search_batch`` call, so a
        batch whose cells repeat the same entity pays for one retrieval.
        ``schemas`` optionally supplies pre-detected schemas aligned with
        ``mentions`` to avoid re-running the number/date detector.  The
        per-mention results are identical to sequential :meth:`link` calls.
        """
        if schemas is not None and len(schemas) != len(mentions):
            raise ValueError("schemas must align with mentions")
        keys = [
            self._retrieval_key(mention, schemas[i] if schemas is not None else None)
            for i, mention in enumerate(mentions)
        ]
        # Answers are read into ``resolved`` before the memo is written, so a
        # memo cleared part-way through the batch loses none of them.
        memo = self._memo
        resolved: dict[str, tuple[SearchHit, ...]] = {}
        missing: list[str] = []
        for key in dict.fromkeys(keys):
            if key is None:
                continue
            links = memo.get(key)
            if links is None:
                missing.append(key)
            else:
                resolved[key] = links
        self._hits += len(resolved)
        self._misses += len(missing)
        if missing:
            found = self.index.search_batch(missing, top_k=self.config.max_candidates)
            for key, hits in zip(missing, found, strict=True):
                if len(memo) >= _LINK_MEMO_SIZE:
                    memo.clear()
                memo[key] = resolved[key] = tuple(hits)
        return [list(resolved[key]) if key is not None else [] for key in keys]

    def best_link(self, mention: str) -> SearchHit | None:
        """The single highest-scoring link for ``mention``, if any."""
        links = self.link(mention)
        return links[0] if links else None

    def cache_info(self) -> LinkCacheInfo:
        """Retrieval memo statistics (read by the benchmarks)."""
        return LinkCacheInfo(self._hits, self._misses, _LINK_MEMO_SIZE, len(self._memo))

    def cache_clear(self) -> None:
        """Drop the memoised retrievals and zero the statistics (cold-cache benchmarking)."""
        self._memo.clear()
        self._hits = self._misses = 0
