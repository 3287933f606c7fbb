"""Tests of the evaluation metrics."""

from __future__ import annotations

import pytest

from repro.data.metrics import (
    accuracy_score,
    classification_report,
    evaluate_predictions,
    weighted_f1_score,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score(["a", "b"], ["a", "b"]) == 1.0

    def test_all_wrong(self):
        assert accuracy_score(["a", "b"], ["b", "a"]) == 0.0

    def test_partial(self):
        assert accuracy_score(["a", "b", "c", "d"], ["a", "b", "x", "y"]) == 0.5

    def test_empty_inputs(self):
        assert accuracy_score([], []) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(["a"], ["a", "b"])


class TestWeightedF1:
    def test_perfect_is_one(self):
        assert weighted_f1_score(["a", "b", "a"], ["a", "b", "a"]) == pytest.approx(1.0)

    def test_all_wrong_is_zero(self):
        assert weighted_f1_score(["a", "a"], ["b", "b"]) == 0.0

    def test_weighted_by_support(self):
        # Class 'a' (3 samples) perfectly predicted, class 'b' (1 sample) missed.
        y_true = ["a", "a", "a", "b"]
        y_pred = ["a", "a", "a", "a"]
        score = weighted_f1_score(y_true, y_pred)
        # F1(a) = 2*1*0.75... precision(a)=3/4, recall=1 -> 6/7; F1(b)=0
        expected = (6 / 7) * (3 / 4)
        assert score == pytest.approx(expected)

    def test_less_than_or_equal_accuracy_not_required_but_bounded(self):
        y_true = ["a", "b", "c"]
        y_pred = ["a", "c", "b"]
        assert 0.0 <= weighted_f1_score(y_true, y_pred) <= 1.0

    def test_empty_inputs(self):
        assert weighted_f1_score([], []) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_f1_score(["a"], [])


class TestClassificationReport:
    def test_contains_all_true_classes(self):
        report = classification_report(["a", "b", "b"], ["a", "b", "a"])
        assert set(report) == {"a", "b"}

    def test_precision_recall_values(self):
        report = classification_report(["a", "b", "b"], ["a", "b", "a"])
        assert report["b"]["recall"] == pytest.approx(0.5)
        assert report["b"]["precision"] == pytest.approx(1.0)
        assert report["a"]["precision"] == pytest.approx(0.5)

    def test_support_counts(self):
        report = classification_report(["a", "a", "b"], ["a", "a", "b"])
        assert report["a"]["support"] == 2.0


class TestEvaluatePredictions:
    def test_percentages(self):
        result = evaluate_predictions(["a", "b"], ["a", "a"])
        assert result.accuracy == pytest.approx(50.0)
        assert 0.0 <= result.weighted_f1 <= 100.0
        assert result.num_columns == 2

    def test_report_included_on_request(self):
        result = evaluate_predictions(["a"], ["a"], include_report=True)
        assert result.per_class["a"]["f1"] == pytest.approx(1.0)

    def test_report_omitted_by_default(self):
        assert evaluate_predictions(["a"], ["a"]).per_class == {}

