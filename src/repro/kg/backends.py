"""The Okapi BM25 retrieval index the entity linker searches (Eq. 1–2).

:class:`BM25Index` is built from ``(doc_id, text)`` documents and compiled by
``finalize()`` into CSR arrays (idempotent, invalidated by further
``add_document`` calls).  Retrieval ranks by ``(-score, doc_id)``:
``search_batch(queries, top_k)`` is the one scoring path, ``search(query,
top_k)`` is its one-query form, and the scalar :meth:`BM25Index.score` /
:func:`reference_search` pair is the oracle both are held to.
``export_state()`` / ``from_state(state)`` round-trip the *compiled* arrays
through a ``dict[str, np.ndarray]`` so a serving process can load an index
from a bundle without the original documents or a rebuild.  An index restored
this way is frozen: it serves searches but rejects ``add_document`` (the
builder-side structures are deliberately not serialised).

The ``dtype`` knob selects the dtype of the postings impacts.  ``float32``
(the default since recall parity with float64 was recorded on the full corpus
generators — see ``bm25.float32_recall_at_10`` in ``BENCH_retrieval.json``)
halves the index's memory traffic; ``float64`` keeps bitwise parity with the
scalar oracle.  Scores always accumulate in float64, so the deterministic
tie-break is preserved under either dtype.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.text.tokenizer import basic_tokenize

__all__ = [
    "BM25Parameters",
    "SearchHit",
    "BM25Index",
    "reference_search",
]


@dataclass(frozen=True)
class BM25Parameters:
    """The two tunable Okapi BM25 parameters (Elasticsearch defaults)."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True)
class SearchHit:
    """A retrieval result: document (entity) id and its retrieval score."""

    doc_id: str
    score: float


def _as_str_array(values: Sequence[str]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.str_)


def _doc_ranks(doc_ids: list[str]) -> np.ndarray:
    """Lexicographic rank of each doc id (for the tie-break without strings)."""
    ranks = np.empty(len(doc_ids), dtype=np.int64)
    ranks[np.argsort(np.asarray(doc_ids, dtype=object))] = np.arange(len(doc_ids))
    return ranks


def _normalize_term(term: str) -> str:
    """The single normalization applied to terms entering or querying an index.

    ``basic_tokenize`` already lower-cases, so document-side tokens pass
    through unchanged; user-supplied raw terms (``document_frequency``,
    ``idf``) are folded to the same form here rather than ad hoc at call
    sites.
    """
    return term.lower()


# ``BM25Index.search_batch`` scores a query densely (one row of ``n_docs``
# scores) once its postings exceed this share of the index's documents, and
# sparsely (sorting its (query, doc) keys) below it.  Measured per query on a
# 2-core host, sparse vs dense in us, kgbench KG (2,274 docs) | the retrieval
# benchmark's 12k-doc Zipf corpus (float32), by postings per document:
# 0.1-0.2: 35 vs 56 | 182 vs 256; 0.2-0.3: 51 vs 41 | 317 vs 110;
# 0.7-1.0: 163 vs 41 | 1034 vs 178.  Scoring one query at a time in a shared
# score buffer was slower than the better route in every band (e.g. 19 vs 7
# sparse below 0.01 on the KG, 1793 vs 223 dense at 1-2 on the Zipf corpus).
_DENSE_SHARE = 0.2
# Most postings one block gathers (a query with more is a block of its own).
# It bounds a block's arrays whatever the batch size: a dense row holds at
# most 1 / _DENSE_SHARE scores per posting.  Small blocks stay in cache: a
# 512-table kgbench pass searched in 69 / 76 / 73 ms at 2^14 / 2^15 / 2^18,
# and the Zipf corpus's 400 queries in 58 / 59 / 104 ms.
_MAX_BLOCK_POSTINGS = 1 << 14


def _blocks(sized: list[tuple[int, float]], cap: float) -> list[list[int]]:
    """Split ``(position, size)`` pairs into consecutive blocks of total size
    at most ``cap`` (an item larger than ``cap`` makes a block of its own)."""
    blocks: list[list[int]] = []
    total = 0.0
    for position, size in sized:
        if not blocks or total + size > cap:
            blocks.append([])
            total = 0.0
        blocks[-1].append(position)
        total += size
    return blocks


class BM25Index:
    """An inverted index with Okapi BM25 ranking (Eq. 1–2 of the paper).

    ``score(q, e) = sum_w IDF(w) * f(w, e) * (k1 + 1) /
    (f(w, e) + k1 * (1 - b + b * |e| / avg_len))`` with
    ``IDF(w) = ln((N - n(w) + 0.5) / (n(w) + 0.5) + 1)``.

    Documents are added through the dict-based builder API, but retrieval
    runs against a CSR-style compiled form produced lazily by
    :meth:`finalize` (invalidated by :meth:`add_document`):

    * ``_doc_ids`` — document ids in insertion order; a document's position
      in this list is its integer index in every array below.
    * ``_doc_ranks`` — ``int64[n_docs]`` lexicographic rank of each doc id,
      for the deterministic ``(-score, doc_id)`` tie-break without string
      comparisons at query time.
    * ``_term_slots`` — term → slot mapping (terms sorted lexicographically).
    * ``_indptr`` — ``int64[n_terms + 1]`` postings offsets: the postings of
      slot ``t`` live in ``[_indptr[t], _indptr[t + 1])``.
    * ``_posting_docs`` — ``int64[nnz]`` document indices, ascending within
      each term's slice.
    * ``_posting_impacts`` — ``dtype[nnz]`` precomputed per-``(term, doc)``
      impact scores so a query is a pure gather + accumulate.

    ``dtype`` selects the impacts dtype: ``float32`` (the default — recall
    parity with float64 is recorded on the full corpus generators, see
    ``BENCH_retrieval.json``) halves the postings memory traffic;
    ``float64`` is bitwise-identical to the scalar :meth:`score` oracle.
    Scores always accumulate in float64, so exact ties (equal
    impacts in both dtypes) keep the same deterministic doc-id tie-break.
    """

    def __init__(self, parameters: BM25Parameters | None = None,
                 dtype: str | np.dtype = np.float32):
        self.parameters = parameters or BM25Parameters()
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self._doc_term_counts: dict[str, Counter[str]] = {}
        self._doc_lengths: dict[str, int] = {}
        self._postings: dict[str, set[str]] = defaultdict(set)
        self._total_length = 0
        # True for indexes restored from exported state: the builder dicts are
        # gone, so the index is query-only.
        self._frozen = False
        # Compiled (CSR) form, built lazily on first search.
        self._compiled = False
        self._doc_ids: list[str] = []
        self._doc_id_set: frozenset[str] = frozenset()
        self._doc_ranks: np.ndarray | None = None
        self._term_slots: dict[str, int] = {}
        self._indptr: np.ndarray | None = None
        self._posting_docs: np.ndarray | None = None
        self._posting_impacts: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _require_builder(self, operation: str) -> None:
        """Frozen (restored) indexes have no builder dicts; fail loudly."""
        if self._frozen:
            raise RuntimeError(
                f"{operation} is unavailable on an index restored from exported "
                "state (query-only: the builder-side structures are not serialised)"
            )

    def add_document(self, doc_id: str, text: str) -> None:
        """Index one document; re-adding an id raises ``ValueError``."""
        self._require_builder("add_document")
        if doc_id in self._doc_term_counts:
            raise ValueError(f"document {doc_id!r} already indexed")
        terms = basic_tokenize(text)
        counts = Counter(terms)
        self._doc_term_counts[doc_id] = counts
        self._doc_lengths[doc_id] = len(terms)
        self._total_length += len(terms)
        for term in counts:
            self._postings[term].add(doc_id)
        self._compiled = False

    @classmethod
    def build(cls, documents: Iterable[tuple[str, str]],
              parameters: BM25Parameters | None = None,
              dtype: str | np.dtype = np.float32) -> BM25Index:
        """Build an index from ``(doc_id, text)`` pairs."""
        index = cls(parameters, dtype=dtype)
        for doc_id, text in documents:
            index.add_document(doc_id, text)
        return index

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._frozen:
            return len(self._doc_ids)
        return len(self._doc_term_counts)

    def __contains__(self, doc_id: str) -> bool:
        if self._frozen:
            return doc_id in self._doc_id_set
        return doc_id in self._doc_term_counts

    @property
    def average_document_length(self) -> float:
        self._require_builder("average_document_length")
        if not self._doc_term_counts:
            return 0.0
        return self._total_length / len(self._doc_term_counts)

    def document_frequency(self, term: str) -> int:
        """Number of indexed documents containing ``term``."""
        self._require_builder("document_frequency")
        return len(self._postings.get(_normalize_term(term), ()))

    def idf(self, term: str) -> float:
        """Inverse document frequency with the +1 smoothing of Eq. 2."""
        self._require_builder("idf")
        n_docs = len(self._doc_term_counts)
        n_term = self.document_frequency(term)
        return math.log((n_docs - n_term + 0.5) / (n_term + 0.5) + 1.0)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    def finalize(self) -> None:
        """Compile the dict-based postings into the CSR arrays.

        Called lazily by :meth:`search_batch`; calling it eagerly after bulk
        construction moves the cost out of the first query.  Idempotent, and
        invalidated by :meth:`add_document`.
        """
        if self._compiled:
            return
        k1, b = self.parameters.k1, self.parameters.b
        avg_len = self.average_document_length or 1.0

        doc_ids = list(self._doc_term_counts)
        doc_index = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        doc_lengths = np.asarray(
            [self._doc_lengths[doc_id] for doc_id in doc_ids], dtype=np.float64
        )
        ranks = _doc_ranks(doc_ids)

        terms = sorted(self._postings)
        term_slots = {term: slot for slot, term in enumerate(terms)}
        counts_per_term = np.asarray(
            [len(self._postings[term]) for term in terms], dtype=np.int64
        )
        indptr = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(counts_per_term, out=indptr[1:])

        posting_docs = np.empty(int(indptr[-1]), dtype=np.int64)
        frequencies = np.empty(int(indptr[-1]), dtype=np.float64)
        idf = np.empty(int(indptr[-1]), dtype=np.float64)
        cursor = 0
        for term in terms:
            members = sorted(doc_index[doc_id] for doc_id in self._postings[term])
            term_idf = self.idf(term)
            for doc in members:
                posting_docs[cursor] = doc
                frequencies[cursor] = self._doc_term_counts[doc_ids[doc]][term]
                idf[cursor] = term_idf
                cursor += 1

        # Exactly Eq. 1–2, in the same operation order as the scalar oracle
        # so the accumulated scores are bitwise-identical to ``score()``
        # (under the default float64 dtype).
        norms = 1.0 - b + b * doc_lengths / avg_len
        impacts = (idf * (frequencies * (k1 + 1.0))) / (
            frequencies + k1 * norms[posting_docs]
        )

        self._doc_ids = doc_ids
        self._doc_id_set = frozenset(doc_ids)
        self._doc_ranks = ranks
        self._term_slots = term_slots
        self._indptr = indptr
        self._posting_docs = posting_docs
        self._posting_impacts = impacts.astype(self.dtype, copy=False)
        self._compiled = True

    # ------------------------------------------------------------------ #
    # compiled-state round trip
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, np.ndarray]:
        """The compiled arrays as a flat dict (finalizes first if needed)."""
        self.finalize()
        terms = sorted(self._term_slots, key=self._term_slots.get)
        return {
            "doc_ids": _as_str_array(self._doc_ids),
            "doc_ranks": self._doc_ranks,
            "terms": _as_str_array(terms),
            "indptr": self._indptr,
            "posting_docs": self._posting_docs,
            "posting_impacts": self._posting_impacts,
            "k1": np.asarray(self.parameters.k1),
            "b": np.asarray(self.parameters.b),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> BM25Index:
        """Rebuild a query-only index from :meth:`export_state` output."""
        impacts = np.asarray(state["posting_impacts"])
        index = cls(
            BM25Parameters(k1=float(state["k1"]), b=float(state["b"])),
            dtype=impacts.dtype,
        )
        index._doc_ids = [str(d) for d in state["doc_ids"]]
        index._doc_id_set = frozenset(index._doc_ids)
        index._doc_ranks = np.asarray(state["doc_ranks"], dtype=np.int64)
        index._term_slots = {str(term): slot for slot, term in enumerate(state["terms"])}
        index._indptr = np.asarray(state["indptr"], dtype=np.int64)
        index._posting_docs = np.asarray(state["posting_docs"], dtype=np.int64)
        index._posting_impacts = impacts
        index._frozen = True
        index._compiled = True
        return index

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #
    def score(self, query: str, doc_id: str) -> float:
        """BM25 score of ``doc_id`` for ``query`` (0 for unindexed documents).

        This scalar path is the reference oracle for the vectorized
        :meth:`search_batch`; the parity tests hold the two to each other.  It
        requires the builder dicts and therefore raises on an index restored
        with :meth:`from_state`.
        """
        self._require_builder("score")
        counts = self._doc_term_counts.get(doc_id)
        if counts is None:
            return 0.0
        k1, b = self.parameters.k1, self.parameters.b
        avg_len = self.average_document_length or 1.0
        doc_len = self._doc_lengths[doc_id]
        total = 0.0
        for term in basic_tokenize(query):
            frequency = counts.get(term, 0)
            if frequency == 0:
                continue
            idf = self.idf(term)
            numerator = frequency * (k1 + 1.0)
            denominator = frequency + k1 * (1.0 - b + b * doc_len / avg_len)
            total += idf * numerator / denominator
        return total

    def search(self, query: str, top_k: int = 10) -> list[SearchHit]:
        """Return the ``top_k`` highest-scoring documents for ``query``."""
        return self.search_batch([query], top_k)[0]

    def search_batch(self, queries: Sequence[str], top_k: int = 10
                     ) -> list[list[SearchHit]]:
        """Search many queries at once; results align with ``queries``.

        Only documents sharing at least one term with a query are scored,
        mirroring how an inverted index narrows the candidate set.  Every
        impact is strictly positive (the +1-smoothed IDF never vanishes), so
        every touched document is a genuine hit.  Queries are scored
        together in blocks of at most :data:`_MAX_BLOCK_POSTINGS` postings
        (see :meth:`_score_block`), which pays numpy's per-call overhead once
        per block instead of once per query: dense blocks for queries whose
        postings exceed :data:`_DENSE_SHARE` of the documents, sparse blocks
        for the others.
        """
        queries = list(queries)
        results: list[list[SearchHit]] = [[] for _ in queries]
        if top_k <= 0 or not queries:
            return results
        self.finalize()
        term_slots, indptr = self._term_slots, self._indptr
        # Known terms in query order, duplicates kept (the oracle's addition
        # order); unknown terms add nothing.
        query_slots = [
            [term_slots[term] for term in basic_tokenize(query) if term in term_slots]
            for query in queries
        ]
        owners = np.repeat(np.arange(len(queries)), [len(slots) for slots in query_slots])
        slots = np.fromiter(
            (slot for per_query in query_slots for slot in per_query),
            dtype=np.int64, count=len(owners),
        )
        volume = np.bincount(
            owners, weights=indptr[slots + 1] - indptr[slots], minlength=len(queries)
        ).tolist()

        n_docs = len(self._doc_ids)
        threshold = _DENSE_SHARE * n_docs
        blocks = [
            (block, dense)
            for dense in (False, True)
            for block in _blocks(
                [(position, postings) for position, postings in enumerate(volume)
                 if postings and (postings > threshold) == dense],
                _MAX_BLOCK_POSTINGS,
            )
        ]
        if blocks:
            rank_docs = np.empty(n_docs, dtype=np.int64)
            rank_docs[self._doc_ranks] = np.arange(n_docs)
            for block, dense in blocks:
                self._score_block(block, query_slots, top_k, dense, rank_docs, results)
        return results

    def _score_block(self, positions: list[int], query_slots: list[list[int]],
                     top_k: int, dense: bool, rank_docs: np.ndarray,
                     results: list[list[SearchHit]]) -> None:
        """Score the queries at ``positions`` together into ``results``.

        The postings of every (query, term) pair are gathered in query order,
        then term order; ``np.bincount`` then adds each (query, doc) key's
        impacts in that input order, starting from 0.0 in float64, which are
        exactly the additions the scalar :meth:`score` oracle makes.  A
        sparse block bincounts the sorted unique keys; a dense block bincounts
        a ``(queries, n_docs)`` matrix and keeps each row's scores tied with
        or above its k-th.  Keys are doc-id ranks, so candidates come out in
        tie-break order and one stable ``lexsort`` ranks every query by
        ``(-score, doc_id)``.
        """
        slots = np.fromiter(
            (slot for position in positions for slot in query_slots[position]),
            dtype=np.int64,
        )
        owners = np.repeat(
            np.arange(len(positions)), [len(query_slots[p]) for p in positions]
        )
        starts = self._indptr[slots]
        lengths = self._indptr[slots + 1] - starts
        # Offsets of every gathered posting: each pair's slice of the CSR arrays.
        pair_offsets = np.cumsum(lengths) - lengths
        gather = np.arange(int(lengths.sum())) + np.repeat(starts - pair_offsets, lengths)
        n_docs = len(self._doc_ids)
        keys = np.repeat(owners, lengths) * n_docs + self._doc_ranks[self._posting_docs[gather]]
        impacts = self._posting_impacts[gather]
        if dense:
            scores = np.bincount(
                keys, weights=impacts, minlength=len(positions) * n_docs
            ).reshape(len(positions), n_docs)
            # Every impact is positive, so the touched documents are the
            # positive scores.
            keep = scores > 0.0
            if top_k < n_docs:
                keep &= scores >= np.partition(scores, n_docs - top_k, axis=1)[
                    :, n_docs - top_k, None
                ]
            key_owners, key_ranks = np.nonzero(keep)
            scores = scores[key_owners, key_ranks]
        else:
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            scores = np.bincount(inverse, weights=impacts, minlength=len(unique_keys))
            key_owners, key_ranks = np.divmod(unique_keys, n_docs)
        # Stable: equal scores of one query stay in doc-id order.
        order = np.lexsort((-scores, key_owners))
        # Each query's candidates are one contiguous run, in the keys as in
        # the sort; keep the first ``top_k`` of each run.
        run_starts = np.searchsorted(key_owners, np.arange(len(positions)))
        kept = order[np.arange(len(order)) - run_starts[key_owners[order]] < top_k]
        doc_ids = self._doc_ids
        hits = [
            SearchHit(doc_ids[doc], score)
            for doc, score in zip(rank_docs[key_ranks[kept]].tolist(), scores[kept].tolist())
        ]
        counts = np.bincount(key_owners[kept], minlength=len(positions)).tolist()
        cursor = 0
        for position, count in zip(positions, counts):
            results[position] = hits[cursor:cursor + count]
            cursor += count


def reference_search(index: BM25Index, query: str, top_k: int = 10) -> list[SearchHit]:
    """The seed scalar search: candidate set from postings, one ``score()`` per doc.

    This is the oracle the vectorized :meth:`BM25Index.search_batch` must match
    exactly; the parity tests and the retrieval benchmark baseline both use
    this single definition so the reference cannot drift.
    """
    if top_k <= 0:
        return []
    query_terms = basic_tokenize(query)
    if not query_terms:
        return []
    candidates: set[str] = set()
    for term in query_terms:
        candidates.update(index._postings.get(term, ()))
    scored = [
        SearchHit(doc_id=doc_id, score=index.score(query, doc_id))
        for doc_id in candidates
    ]
    scored = [hit for hit in scored if hit.score > 0.0]
    scored.sort(key=lambda hit: (-hit.score, hit.doc_id))
    return scored[:top_k]
