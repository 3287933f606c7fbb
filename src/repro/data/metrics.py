"""Evaluation metrics: accuracy, weighted F1 and per-class reports.

These mirror the metrics reported in the paper's Table I (accuracy and
weighted F1, both expressed as percentages).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Sequence

__all__ = [
    "accuracy_score",
    "weighted_f1_score",
    "classification_report",
    "evaluate_predictions",
    "EvaluationResult",
]


def accuracy_score(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    """Fraction of exact matches (0 when there are no samples)."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred must have the same length")
    if not y_true:
        return 0.0
    correct = sum(1 for truth, pred in zip(y_true, y_pred, strict=True) if truth == pred)
    return correct / len(y_true)


def _per_class_counts(y_true: Sequence[str], y_pred: Sequence[str]):
    true_positive: Counter = Counter()
    false_positive: Counter = Counter()
    false_negative: Counter = Counter()
    support: Counter = Counter()
    for truth, pred in zip(y_true, y_pred, strict=True):
        support[truth] += 1
        if truth == pred:
            true_positive[truth] += 1
        else:
            false_positive[pred] += 1
            false_negative[truth] += 1
    return true_positive, false_positive, false_negative, support


def weighted_f1_score(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    """Support-weighted mean of per-class F1 scores."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred must have the same length")
    if not y_true:
        return 0.0
    tp, fp, fn, support = _per_class_counts(y_true, y_pred)
    total = sum(support.values())
    weighted = 0.0
    for label, count in support.items():
        precision_den = tp[label] + fp[label]
        recall_den = tp[label] + fn[label]
        precision = tp[label] / precision_den if precision_den else 0.0
        recall = tp[label] / recall_den if recall_den else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weighted += f1 * count / total
    return weighted


def classification_report(y_true: Sequence[str], y_pred: Sequence[str]) -> dict[str, dict[str, float]]:
    """Per-class precision / recall / F1 / support."""
    tp, fp, fn, support = _per_class_counts(y_true, y_pred)
    report: dict[str, dict[str, float]] = {}
    for label in sorted(support):
        precision_den = tp[label] + fp[label]
        recall_den = tp[label] + fn[label]
        precision = tp[label] / precision_den if precision_den else 0.0
        recall = tp[label] / recall_den if recall_den else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        report[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": float(support[label]),
        }
    return report


@dataclass
class EvaluationResult:
    """Accuracy and weighted F1 (stored as percentages, like the paper)."""

    accuracy: float
    weighted_f1: float
    num_columns: int
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"accuracy={self.accuracy:.2f} weighted_f1={self.weighted_f1:.2f} "
            f"(n={self.num_columns})"
        )


def evaluate_predictions(
    y_true: Sequence[str], y_pred: Sequence[str], include_report: bool = False
) -> EvaluationResult:
    """Bundle accuracy and weighted F1 (as percentages) into a result object."""
    result = EvaluationResult(
        accuracy=100.0 * accuracy_score(y_true, y_pred),
        weighted_f1=100.0 * weighted_f1_score(y_true, y_pred),
        num_columns=len(y_true),
    )
    if include_report:
        result.per_class = classification_report(y_true, y_pred)
    return result
