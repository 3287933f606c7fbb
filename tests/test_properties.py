"""Property-based tests (hypothesis) of core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.metrics import accuracy_score, weighted_f1_score
from repro.kg.backends import BM25Index
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.text.ner import EntitySchema, detect_schema
from repro.text.tokenizer import WordPieceTokenizer, basic_tokenize
from repro.text.vocab import Vocabulary


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
labels = st.sampled_from(["alpha", "beta", "gamma", "delta"])
label_lists = st.lists(labels, min_size=1, max_size=40)
small_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", min_size=0, max_size=60)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestMetricProperties:
    @given(label_lists)
    def test_accuracy_perfect_prediction_is_one(self, truths):
        assert accuracy_score(truths, list(truths)) == 1.0

    @given(label_lists)
    def test_weighted_f1_perfect_prediction_is_one(self, truths):
        assert weighted_f1_score(truths, list(truths)) == pytest.approx(1.0)

    @given(st.lists(st.tuples(labels, labels), min_size=1, max_size=40))
    def test_metrics_bounded(self, pairs):
        truths = [t for t, _ in pairs]
        predictions = [p for _, p in pairs]
        assert 0.0 <= accuracy_score(truths, predictions) <= 1.0
        assert 0.0 <= weighted_f1_score(truths, predictions) <= 1.0

    @given(st.lists(st.tuples(labels, labels), min_size=1, max_size=40))
    def test_accuracy_invariant_under_permutation(self, pairs):
        truths = [t for t, _ in pairs]
        predictions = [p for _, p in pairs]
        order = np.random.default_rng(0).permutation(len(pairs))
        shuffled_truths = [truths[i] for i in order]
        shuffled_predictions = [predictions[i] for i in order]
        assert accuracy_score(truths, predictions) == accuracy_score(
            shuffled_truths, shuffled_predictions
        )


# --------------------------------------------------------------------------- #
# softmax / cross entropy
# --------------------------------------------------------------------------- #
class TestTensorProperties:
    @given(st.lists(st.lists(small_floats, min_size=2, max_size=6), min_size=1, max_size=5)
           .filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_softmax_rows_are_distributions(self, rows):
        logits = np.asarray(rows, dtype=np.float64)
        probabilities = F.softmax(Tensor(logits)).data
        assert np.all(probabilities >= 0)
        np.testing.assert_allclose(probabilities.sum(axis=-1), np.ones(len(rows)), atol=1e-6)

    @given(st.lists(small_floats, min_size=2, max_size=8), st.integers(min_value=0, max_value=7))
    def test_cross_entropy_non_negative(self, row, target_index):
        target_index = target_index % len(row)
        logits = Tensor(np.asarray([row], dtype=np.float64))
        loss = F.cross_entropy(logits, np.array([target_index]))
        assert float(loss.data) >= -1e-6

    @given(st.lists(small_floats, min_size=1, max_size=20))
    def test_sum_matches_numpy(self, values):
        # atol covers float32 rounding of the compute dtype: storage plus
        # pairwise-summation error with partial sums up to 20 * 50 = 1000,
        # including cancellation that makes rtol alone meaningless.
        array = np.asarray(values, dtype=np.float64)
        np.testing.assert_allclose(
            float(Tensor(array).sum().data), array.sum(), rtol=1e-6, atol=1e-3
        )

    @given(st.lists(small_floats, min_size=1, max_size=20))
    def test_addition_commutative(self, values):
        array = np.asarray(values, dtype=np.float64)
        left = (Tensor(array) + Tensor(array[::-1].copy())).data
        right = (Tensor(array[::-1].copy()) + Tensor(array)).data
        np.testing.assert_allclose(left, right)


# --------------------------------------------------------------------------- #
# tokenizer and vocabulary
# --------------------------------------------------------------------------- #
_SHARED_TOKENIZER = WordPieceTokenizer.train(
    ["the quick brown fox jumps over the lazy dog",
     "peter steele plays gothic metal in riverton",
     "stonefield university cricket club 1898"] * 3,
    vocab_size=300,
)


class TestTextProperties:
    @given(words)
    def test_tokenizer_never_crashes_and_ids_in_range(self, text):
        ids = _SHARED_TOKENIZER.encode(text)
        assert all(0 <= token_id < _SHARED_TOKENIZER.vocab_size for token_id in ids)

    @given(words)
    def test_encode_respects_max_length(self, text):
        assert len(_SHARED_TOKENIZER.encode(text, max_length=5)) <= 5

    @given(words)
    def test_basic_tokenize_lowercases(self, text):
        assert all(token == token.lower() for token in basic_tokenize(text))

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8), min_size=0, max_size=30))
    def test_vocabulary_roundtrip(self, tokens):
        vocabulary = Vocabulary(tokens)
        for token in tokens:
            assert vocabulary.id_to_token(vocabulary.token_to_id(token)) == token

    @given(words)
    def test_detect_schema_total_function(self, text):
        assert detect_schema(text) in set(EntitySchema)

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_integers_detected_as_number_or_date(self, value):
        schema = detect_schema(str(value))
        assert schema in (EntitySchema.NUMBER, EntitySchema.DATE)


# --------------------------------------------------------------------------- #
# BM25
# --------------------------------------------------------------------------- #
_DOCUMENTS = [
    ("d1", "peter steele gothic metal musician riverton"),
    ("d2", "riverton tigers basketball club"),
    ("d3", "stonefield university norway"),
    ("d4", "crimson horizon drama film"),
    ("d5", "wilfred blackburn cricketer stonefield"),
]
# Oracle-parity tests pin float64: the scalar score() oracle accumulates in
# float64, so the compiled postings must match its precision exactly.
_INDEX = BM25Index.build(_DOCUMENTS, dtype=np.float64)


class TestBM25Properties:
    @given(words)
    @settings(max_examples=60)
    def test_search_scores_sorted_and_positive(self, query):
        hits = _INDEX.search(query, top_k=5)
        scores = [hit.score for hit in hits]
        assert all(score > 0 for score in scores)
        assert scores == sorted(scores, reverse=True)

    @given(words, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_top_k_never_exceeded(self, query, top_k):
        assert len(_INDEX.search(query, top_k=top_k)) <= top_k

    @given(words)
    @settings(max_examples=60)
    def test_score_matches_search_result(self, query):
        for hit in _INDEX.search(query, top_k=3):
            assert _INDEX.score(query, hit.doc_id) == hit.score

    @given(st.sampled_from([doc_id for doc_id, _ in _DOCUMENTS]))
    def test_document_retrieves_itself_at_rank_one(self, doc_id):
        text = dict(_DOCUMENTS)[doc_id]
        hits = _INDEX.search(text, top_k=1)
        assert hits and hits[0].doc_id == doc_id
