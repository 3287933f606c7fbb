"""Parity tests: the vectorized ``search()`` against the scalar ``score()`` oracle.

The compiled-array search path must reproduce the reference implementation
exactly — same scores (to 1e-9; in practice bitwise), same ranking, and the
same deterministic ``(-score, doc_id)`` tie-break — on randomized corpora.

The scalar oracle computes in float64, so the oracle-parity tests pin
``dtype=np.float64`` explicitly (the index default is float32 postings since
the recall-parity flip; float32-vs-oracle closeness is covered by
``tests/kg/test_backends.py::TestBM25Dtype``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.backends import BM25Index, BM25Parameters, reference_search


def random_corpus(rng: np.random.Generator, n_docs: int, vocab_size: int = 60,
                  max_len: int = 12) -> list[tuple[str, str]]:
    vocab = [f"w{i}" for i in range(vocab_size)]
    documents = []
    for i in range(n_docs):
        length = int(rng.integers(1, max_len))
        words = rng.choice(vocab, size=length, replace=True)
        documents.append((f"doc{i:04d}", " ".join(words)))
    return documents


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_search_matches_scalar_oracle_on_random_corpora(seed):
    rng = np.random.default_rng(seed)
    index = BM25Index.build(random_corpus(rng, n_docs=120), dtype=np.float64)
    vocab = [f"w{i}" for i in range(70)]  # includes out-of-corpus terms
    for _ in range(25):
        length = int(rng.integers(1, 6))
        query = " ".join(rng.choice(vocab, size=length, replace=True))
        top_k = int(rng.integers(1, 20))
        expected = reference_search(index, query, top_k)
        actual = index.search(query, top_k=top_k)
        assert [hit.doc_id for hit in actual] == [hit.doc_id for hit in expected]
        for got, want in zip(actual, expected, strict=True):
            assert got.score == pytest.approx(want.score, abs=1e-9)


@pytest.mark.parametrize("k1,b", [(1.2, 0.75), (0.0, 0.0), (2.0, 1.0), (0.5, 0.3)])
def test_parity_across_parameter_settings(k1, b):
    rng = np.random.default_rng(7)
    documents = random_corpus(rng, n_docs=60)
    index = BM25Index.build(documents, parameters=BM25Parameters(k1=k1, b=b),
                            dtype=np.float64)
    for query in ("w1 w2 w3", "w10", "w5 w5 w5", "w0 w59 w40 w2"):
        expected = reference_search(index, query, top_k=10)
        actual = index.search(query, top_k=10)
        assert [hit.doc_id for hit in actual] == [hit.doc_id for hit in expected]
        for got, want in zip(actual, expected, strict=True):
            assert got.score == pytest.approx(want.score, abs=1e-9)


def test_duplicate_query_terms_accumulate_like_oracle():
    index = BM25Index.build([
        ("a", "apple banana apple"),
        ("b", "apple cherry"),
        ("c", "banana banana"),
    ], dtype=np.float64)
    query = "apple apple banana"
    expected = reference_search(index, query, top_k=10)
    actual = index.search(query, top_k=10)
    assert [(h.doc_id, h.score) for h in actual] == [
        (h.doc_id, h.score) for h in expected
    ]


def test_tie_break_is_lexicographic_at_the_top_k_boundary():
    # Ten identical documents force exact score ties; insertion order is
    # scrambled so only the (-score, doc_id) sort can produce this ranking.
    ids = [f"d{i}" for i in (5, 2, 9, 0, 7, 1, 8, 3, 6, 4)]
    index = BM25Index.build((doc_id, "same exact text") for doc_id in ids)
    hits = index.search("same text", top_k=4)
    assert [hit.doc_id for hit in hits] == ["d0", "d1", "d2", "d3"]
    assert len({hit.score for hit in hits}) == 1


def test_add_document_invalidates_compiled_index():
    index = BM25Index.build([("a", "apple pie"), ("b", "banana split")])
    assert index.search("apple", top_k=5)[0].doc_id == "a"
    index.add_document("c", "apple apple apple")
    hits = index.search("apple", top_k=5)
    assert {hit.doc_id for hit in hits} == {"a", "c"}
    expected = reference_search(index, "apple", top_k=5)
    assert [hit.doc_id for hit in hits] == [hit.doc_id for hit in expected]


def test_search_batch_matches_individual_searches():
    rng = np.random.default_rng(11)
    index = BM25Index.build(random_corpus(rng, n_docs=80))
    queries = ["w1 w2", "w3", "", "w999", "w4 w4 w5"]
    batched = index.search_batch(queries, top_k=6)
    assert len(batched) == len(queries)
    for query, hits in zip(queries, batched, strict=True):
        assert hits == index.search(query, top_k=6)


def test_finalize_is_idempotent_and_optional():
    rng = np.random.default_rng(13)
    index = BM25Index.build(random_corpus(rng, n_docs=40))
    index.finalize()
    index.finalize()
    lazy = BM25Index.build(random_corpus(np.random.default_rng(13), n_docs=40))
    assert index.search("w1 w2 w3") == lazy.search("w1 w2 w3")
