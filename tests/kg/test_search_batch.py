"""``BM25Index.search_batch`` against ``search`` and the scalar oracle.

``search_batch`` scores each query in a sparse block (unique (query, doc)
keys) or a dense block (a row of scores per query), by its posting volume;
both routes must return exactly what ``search`` returns, and (under float64
postings) what ``reference_search`` returns.  The routing share and the
block caps are module constants, patched here to force each route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg import backends
from repro.kg.backends import BM25Index, reference_search


def random_corpus(rng: np.random.Generator, n_docs: int, vocab_size: int = 40,
                  max_len: int = 12) -> list[tuple[str, str]]:
    vocab = [f"w{i}" for i in range(vocab_size)]
    # Ids out of insertion order, so doc-id rank and position differ.
    return [
        (f"doc{i:04d}", " ".join(rng.choice(vocab, size=int(rng.integers(1, max_len)))))
        for i in rng.permutation(n_docs)
    ]


def random_queries(rng: np.random.Generator, n_queries: int, vocab_size: int = 46
                   ) -> list[str]:
    vocab = [f"w{i}" for i in range(vocab_size)]  # includes out-of-corpus terms
    return [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 6))))
        for _ in range(n_queries)
    ]


# Queries covering the edge cases: duplicate terms, unknown terms only, a mix,
# empty and whitespace-only queries, punctuation only.
EDGE_QUERIES = ["w1 w1 w1", "w1 w2 w1", "zzz", "zzz w3", "", "   ", "?!", "w4", "W4 w5"]


@pytest.fixture(params=["sparse", "dense", "small-sparse-blocks", "small-dense-blocks"])
def route(request, monkeypatch):
    """Force every query through one route of ``search_batch``."""
    dense = "dense" in request.param
    monkeypatch.setattr(backends, "_DENSE_SHARE", 0.0 if dense else float("inf"))
    if request.param.startswith("small"):
        monkeypatch.setattr(backends, "_MAX_BLOCK_POSTINGS", 50)
    return request.param


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equals_search_on_random_corpora(route, dtype, seed):
    rng = np.random.default_rng(seed)
    index = BM25Index.build(random_corpus(rng, n_docs=150), dtype=dtype)
    queries = random_queries(rng, 60) + EDGE_QUERIES
    for top_k in (1, 3, 10, 200):
        batched = index.search_batch(queries, top_k=top_k)
        assert batched == [index.search(query, top_k=top_k) for query in queries]


@pytest.mark.parametrize("seed", [3, 4])
def test_equals_scalar_oracle_under_float64(route, seed):
    rng = np.random.default_rng(seed)
    index = BM25Index.build(random_corpus(rng, n_docs=120), dtype=np.float64)
    queries = random_queries(rng, 40) + EDGE_QUERIES
    batched = index.search_batch(queries, top_k=7)
    assert batched == [reference_search(index, query, top_k=7) for query in queries]


def test_ties_at_the_kth_score_break_by_doc_id(route):
    # Identical documents tie exactly; ids are inserted out of order so the
    # tie-break must come from the doc-id rank, not the insertion position.
    ids = ["d7", "d2", "d9", "d0", "d5", "d3"]
    index = BM25Index.build(
        [(doc_id, "same exact text") for doc_id in ids] + [("x1", "other words")],
        dtype=np.float64,
    )
    for top_k in (1, 3, 6):
        batched = index.search_batch(["same text", "text", "other same"], top_k=top_k)
        for query, hits in zip(["same text", "text", "other same"], batched, strict=True):
            assert hits == index.search(query, top_k=top_k)
            assert hits == reference_search(index, query, top_k=top_k)
    assert [hit.doc_id for hit in index.search_batch(["text"], top_k=3)[0]] == [
        "d0", "d2", "d3"
    ]


@pytest.mark.parametrize("top_k", [0, -1])
def test_non_positive_top_k_returns_empty_lists(route, top_k):
    index = BM25Index.build([("a", "apple pie"), ("b", "banana split")])
    assert index.search_batch(["apple", "", "banana apple"], top_k=top_k) == [[], [], []]


def test_empty_batch_and_unmatched_queries(route):
    index = BM25Index.build([("a", "apple pie"), ("b", "banana split")])
    assert index.search_batch([]) == []
    assert index.search_batch(["", "cherry", "   "]) == [[], [], []]
    assert BM25Index().search_batch(["apple", ""]) == [[], []]


def test_mixed_routes_in_one_batch(monkeypatch):
    # "w0" is in every document, so its queries take the dense route while
    # the rare-term queries share a sparse block.
    rng = np.random.default_rng(9)
    documents = [(doc_id, f"w0 {text}") for doc_id, text in random_corpus(rng, n_docs=80)]
    index = BM25Index.build(documents, dtype=np.float64)
    monkeypatch.setattr(backends, "_DENSE_SHARE", 0.5)
    queries = ["w0", "w3", "w0 w5", "w7 w8", "w11", "w0 w0"]
    batched = index.search_batch(queries, top_k=5)
    assert batched == [reference_search(index, query, top_k=5) for query in queries]


def test_restored_index_batches_like_the_original(route):
    rng = np.random.default_rng(5)
    index = BM25Index.build(random_corpus(rng, n_docs=90), dtype=np.float64)
    restored = BM25Index.from_state(index.export_state())
    queries = random_queries(rng, 30) + EDGE_QUERIES
    assert restored.search_batch(queries, top_k=4) == index.search_batch(queries, top_k=4)
