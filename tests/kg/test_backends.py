"""Conformance suite for the BM25 retrieval index, in both postings dtypes.

:class:`~repro.kg.backends.BM25Index` must satisfy one observable contract
whether its impacts are float32 (the default) or float64: deterministic
``(-score, doc_id)`` ranking, positive-score hits only, batch/one-query
agreement, and a compiled-state round trip that serves identical results
without the original documents.  The suite is parametrised over the two
dtype factories in ``INDEX_FACTORIES``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.backends import BM25Index, reference_search

DOCUMENTS = [
    ("e01", "alpha beta gamma"),
    ("e02", "alpha beta"),
    ("e03", "beta gamma delta"),
    ("e04", "delta epsilon"),
    ("e05", "gamma gamma gamma"),
    ("e06", "zeta eta theta"),
    ("e07", "alpha delta theta"),
    ("e08", "iota kappa"),
]

INDEX_FACTORIES = {
    "bm25": lambda: BM25Index(),  # float32 postings default
    "bm25_f64": lambda: BM25Index(dtype=np.float64),
}


@pytest.fixture(params=sorted(INDEX_FACTORIES))
def backend(request):
    index = INDEX_FACTORIES[request.param]()
    for doc_id, text in DOCUMENTS:
        index.add_document(doc_id, text)
    return index


class TestConformance:
    def test_len_and_contains(self, backend):
        assert len(backend) == len(DOCUMENTS)
        assert "e01" in backend
        assert "nope" not in backend

    def test_duplicate_document_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.add_document("e01", "duplicate")

    def test_finalize_idempotent_and_invalidated_by_add(self, backend):
        backend.finalize()
        first = backend.search("alpha", top_k=20)
        backend.finalize()
        assert backend.search("alpha", top_k=20) == first
        backend.add_document("e99", "alpha")
        # The next search recompiles: the new document ranks with the rest.
        hits = backend.search("alpha", top_k=20)
        assert [hit.doc_id for hit in hits] == [
            hit.doc_id for hit in reference_search(backend, "alpha", top_k=20)]
        assert "e99" in {hit.doc_id for hit in hits}

    def test_empty_query_and_nonpositive_top_k(self, backend):
        assert backend.search("", top_k=5) == []
        assert backend.search("   ", top_k=5) == []
        assert backend.search("alpha", top_k=0) == []
        assert backend.search("alpha", top_k=-3) == []

    def test_no_overlap_returns_no_hits(self, backend):
        assert backend.search("qqqqqq wwwwww", top_k=5) == []

    def test_hits_ranked_by_score_then_doc_id(self, backend):
        hits = backend.search("alpha beta gamma delta", top_k=len(DOCUMENTS))
        assert hits, "query overlaps several documents"
        keys = [(-hit.score, hit.doc_id) for hit in hits]
        assert keys == sorted(keys)
        assert all(hit.score > 0.0 for hit in hits)
        assert len({hit.doc_id for hit in hits}) == len(hits)

    def test_top_k_truncates(self, backend):
        full = backend.search("alpha beta gamma delta", top_k=len(DOCUMENTS))
        assert backend.search("alpha beta gamma delta", top_k=2) == full[:2]

    def test_deterministic(self, backend):
        first = backend.search("alpha gamma", top_k=5)
        assert backend.search("alpha gamma", top_k=5) == first

    def test_exact_ties_break_by_doc_id(self):
        # Fresh index per factory: identical documents must tie exactly and
        # come back in doc-id order regardless of insertion order.
        for name, factory in INDEX_FACTORIES.items():
            index = factory()
            for doc_id in ("b", "c", "a"):
                index.add_document(doc_id, "same exact text")
            hits = index.search("same exact text", top_k=3)
            assert [hit.doc_id for hit in hits] == ["a", "b", "c"], name
            assert len({hit.score for hit in hits}) == 1, name

    def test_tied_truncation_keeps_the_smallest_doc_ids(self):
        # More exact ties than top_k: every document tied with the k-th score
        # must compete, so the cut keeps the smallest ids whatever the
        # insertion order — on a built index and on one restored from state.
        for name, factory in INDEX_FACTORIES.items():
            index = factory()
            for doc_id in ("f", "b", "d", "a", "e", "c"):
                index.add_document(doc_id, "same exact text")
            hits = index.search("same exact text", top_k=4)
            assert [hit.doc_id for hit in hits] == ["a", "b", "c", "d"], name
            assert len({hit.score for hit in hits}) == 1, name
            restored = BM25Index.from_state(index.export_state())
            assert restored.search("same exact text", top_k=4) == hits, name

    def test_search_batch_matches_sequential(self, backend):
        queries = ["alpha", "beta gamma", "", "delta epsilon", "unknownterm"]
        batched = backend.search_batch(queries, top_k=4)
        assert batched == [backend.search(query, top_k=4) for query in queries]

    def test_export_restore_round_trip(self, backend):
        queries = ["alpha", "beta gamma delta", "gamma", "iota kappa"]
        expected = backend.search_batch(queries, top_k=5)
        state = backend.export_state()
        restored = BM25Index.from_state(state)
        assert len(restored) == len(backend)
        assert "e01" in restored
        assert restored.search_batch(queries, top_k=5) == expected

    def test_restored_backend_is_query_only(self, backend):
        restored = BM25Index.from_state(backend.export_state())
        with pytest.raises(RuntimeError):
            restored.add_document("e99", "text")

    def test_restored_bm25_builder_queries_raise(self):
        # Builder-side statistics have no data on a restored index; they must
        # fail loudly instead of returning silently wrong zeros.
        index = BM25Index.build(DOCUMENTS)
        restored = BM25Index.from_state(index.export_state())
        for call in (lambda: restored.score("alpha", "e01"),
                     lambda: restored.idf("alpha"),
                     lambda: restored.document_frequency("alpha"),
                     lambda: restored.average_document_length):
            with pytest.raises(RuntimeError):
                call()

    def test_export_state_is_plain_arrays(self, backend):
        state = backend.export_state()
        assert state
        for key, value in state.items():
            assert isinstance(key, str)
            assert isinstance(value, np.ndarray), key


class TestBM25Dtype:
    """The ROADMAP's float32-postings lever: halve memory, keep the tie-break."""

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            BM25Index(dtype=np.int64)

    def test_float32_postings_default_float64_opt_in(self):
        # float32 became the default once recall parity vs float64 was
        # recorded on the full corpus generators (see BENCH_retrieval.json
        # and test_float32_recall_parity_on_generator_corpus below).
        index = BM25Index.build(DOCUMENTS)
        index.finalize()
        assert index._posting_impacts.dtype == np.float32
        assert BM25Index.build(DOCUMENTS, dtype=np.float64).export_state()[
            "posting_impacts"
        ].dtype == np.float64

    def test_float32_scores_close_to_scalar_oracle(self, rng):
        vocab = [f"w{i}" for i in range(40)]
        documents = [
            (f"d{i:03d}", " ".join(rng.choice(vocab, size=rng.integers(3, 9))))
            for i in range(150)
        ]
        f32 = BM25Index.build(documents, dtype=np.float32)
        # float64, bitwise-equal to score()
        oracle = BM25Index.build(documents, dtype=np.float64)
        for query in ["w0 w1", "w5", "w10 w11 w12", "w39 w0"]:
            expected = reference_search(oracle, query, top_k=10)
            got = f32.search(query, top_k=10)
            assert [hit.doc_id for hit in got] == [hit.doc_id for hit in expected]
            np.testing.assert_allclose(
                [hit.score for hit in got],
                [hit.score for hit in expected],
                rtol=1e-6,
            )

    def test_float32_tie_break_stable_against_oracle(self):
        # Exact ties (duplicate documents) produce identical impacts in both
        # dtypes, so the (-score, doc_id) order must match the float64 scalar
        # oracle exactly even at the float32 precision.
        documents = [(f"doc{i:02d}", "tied text here") for i in range(30)]
        documents += [("extra1", "tied text"), ("extra2", "here text")]
        f32 = BM25Index.build(documents, dtype=np.float32)
        oracle = BM25Index.build(documents, dtype=np.float64)
        expected = reference_search(oracle, "tied text here", top_k=12)
        got = f32.search("tied text here", top_k=12)
        assert [hit.doc_id for hit in got] == [hit.doc_id for hit in expected]

    def test_float32_recall_parity_on_generator_corpus(self, graph, semtab_corpus):
        # The measurement that justified flipping the default: index the full
        # synthetic world's entity documents in both dtypes and replay real
        # generator-corpus cell mentions; the float32 top-10 must recall the
        # float64 top-10 (set equality per query, order may differ only
        # within genuine near-ties).  The 12k-doc equivalent is recorded in
        # BENCH_retrieval.json as bm25.float32_recall_at_10.
        documents = [
            (entity.entity_id, entity.document_text())
            for entity in graph.entities()
        ]
        f32 = BM25Index.build(documents, dtype=np.float32)
        f64 = BM25Index.build(documents, dtype=np.float64)
        queries: list[str] = []
        for table in semtab_corpus.tables:
            for column in table.columns:
                queries.extend(cell for cell in column.cells[:3] if cell.strip())
        queries = sorted(set(queries))[:400]
        assert len(queries) >= 100, "generator corpus should supply real mentions"
        overlaps = []
        for query in queries:
            want = {hit.doc_id for hit in f64.search(query, top_k=10)}
            got = {hit.doc_id for hit in f32.search(query, top_k=10)}
            overlaps.append(len(want & got) / len(want) if want else 1.0)
        assert np.mean(overlaps) >= 0.999
