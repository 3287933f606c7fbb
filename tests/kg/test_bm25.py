"""Tests of the Okapi BM25 index."""

from __future__ import annotations

import math

import pytest

from repro.kg.backends import BM25Index, BM25Parameters


@pytest.fixture()
def index():
    documents = [
        ("d1", "Peter Steele gothic metal musician"),
        ("d2", "Peter Johnson cricketer Riverton"),
        ("d3", "Riverton Tigers basketball team"),
        ("d4", "Rust album by Peter Steele"),
        ("d5", "Stonefield city in Norway"),
    ]
    return BM25Index.build(documents)


class TestParameters:
    def test_defaults(self):
        params = BM25Parameters()
        assert params.k1 == pytest.approx(1.2)
        assert params.b == pytest.approx(0.75)

    def test_invalid_k1(self):
        with pytest.raises(ValueError):
            BM25Parameters(k1=-1.0)

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            BM25Parameters(b=1.5)


class TestIndexing:
    def test_length_and_contains(self, index):
        assert len(index) == 5
        assert "d1" in index and "d9" not in index

    def test_duplicate_document_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document("d1", "again")

    def test_average_document_length(self, index):
        assert index.average_document_length > 0

    def test_empty_index_average_length_zero(self):
        assert BM25Index().average_document_length == 0.0

    def test_document_frequency(self, index):
        assert index.document_frequency("peter") == 3
        assert index.document_frequency("unseen") == 0

    def test_term_statistics_normalized_consistently(self, index):
        # Regression: document_frequency used to lower-case its argument while
        # other entry points consumed raw tokens; normalization now lives in
        # one place so every term-level API agrees on case.
        assert index.document_frequency("PETER") == index.document_frequency("peter")
        assert index.idf("Gothic") == index.idf("gothic")
        assert index.score("PETER STEELE", "d1") == index.score("peter steele", "d1")


class TestScoring:
    def test_idf_formula(self, index):
        n_docs, n_term = 5, 3
        expected = math.log((n_docs - n_term + 0.5) / (n_term + 0.5) + 1.0)
        assert index.idf("peter") == pytest.approx(expected)

    def test_rare_terms_have_higher_idf(self, index):
        assert index.idf("gothic") > index.idf("peter")

    def test_score_zero_for_unindexed_document(self, index):
        assert index.score("peter", "d99") == 0.0

    def test_score_zero_without_term_overlap(self, index):
        assert index.score("zebra", "d1") == 0.0

    def test_exact_match_ranks_first(self, index):
        hits = index.search("Peter Steele")
        assert hits[0].doc_id in ("d1", "d4")

    def test_scores_non_negative_and_sorted(self, index):
        hits = index.search("peter riverton")
        scores = [hit.score for hit in hits]
        assert all(score > 0 for score in scores)
        assert scores == sorted(scores, reverse=True)


class TestSearch:
    def test_top_k_limits_results(self, index):
        assert len(index.search("peter", top_k=2)) == 2

    def test_top_k_zero_returns_empty(self, index):
        assert index.search("peter", top_k=0) == []

    def test_empty_query_returns_empty(self, index):
        assert index.search("") == []
        assert index.search("   ") == []

    def test_unknown_terms_return_empty(self, index):
        assert index.search("xylophone quantum") == []

    def test_case_insensitive(self, index):
        assert index.search("PETER STEELE")[0].doc_id == index.search("peter steele")[0].doc_id

    def test_longer_document_penalised(self):
        index = BM25Index.build([
            ("short", "cricket"),
            ("long", "cricket " + "filler " * 30),
        ])
        hits = {hit.doc_id: hit.score for hit in index.search("cricket")}
        assert hits["short"] > hits["long"]

    def test_ties_broken_deterministically(self):
        index = BM25Index.build([("a", "same text"), ("b", "same text")])
        hits = index.search("same text")
        assert [hit.doc_id for hit in hits] == ["a", "b"]
