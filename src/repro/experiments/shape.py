"""Shape comparison between measured results and the paper's reported numbers.

The reproduction is judged on *shape* rather than absolute values: does the
ordering of the methods match the paper, do ablations fall on the same side,
where do curves peak.  This module quantifies the first of those questions:

* :func:`pairwise_order_agreement` — the fraction of method pairs that are
  ordered the same way in the measured rows as in the reference rows (a
  normalised Kendall-tau-style score in ``[0, 1]``);
* :func:`ordering_report` — per-group (e.g. per-dataset) agreement for result
  tables such as Table I, including the list of disagreeing pairs so the
  discussion in ``EXPERIMENTS.md`` (generated by
  ``scripts/generate_experiments_md.py``, not committed) can name them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from collections.abc import Mapping, Sequence

__all__ = ["PairwiseAgreement", "pairwise_order_agreement", "ordering_report"]


@dataclass
class PairwiseAgreement:
    """Agreement between two orderings of the same items."""

    agreements: int
    comparisons: int
    disagreeing_pairs: list[tuple[str, str]] = field(default_factory=list)

    @property
    def score(self) -> float:
        """Fraction of pairs ordered identically (1.0 when every pair agrees)."""
        return self.agreements / self.comparisons if self.comparisons else 1.0


def _value_map(rows: Sequence[Mapping[str, object]], key: str, value: str) -> dict[str, float]:
    mapping: dict[str, float] = {}
    for row in rows:
        item = row.get(key)
        score = row.get(value)
        if item is None or score is None:
            continue
        try:
            mapping[str(item)] = float(score)
        except (TypeError, ValueError):
            continue
    return mapping


def pairwise_order_agreement(
    measured: Sequence[Mapping[str, object]],
    reference: Sequence[Mapping[str, object]],
    key: str = "model",
    value: str = "accuracy",
) -> PairwiseAgreement:
    """Compare the ordering of items (by ``value``) between two row lists.

    Only items present in both lists with a numeric value participate.  Ties in
    either list count as agreement when the other list also has a tie or a
    difference below 0.5 points (measurement noise).
    """
    measured_values = _value_map(measured, key, value)
    reference_values = _value_map(reference, key, value)
    shared = sorted(set(measured_values) & set(reference_values))

    agreements = 0
    comparisons = 0
    disagreeing: list[tuple[str, str]] = []
    for left, right in combinations(shared, 2):
        measured_delta = measured_values[left] - measured_values[right]
        reference_delta = reference_values[left] - reference_values[right]
        comparisons += 1
        if abs(measured_delta) < 0.5 or abs(reference_delta) < 0.5:
            agreements += 1
        elif (measured_delta > 0) == (reference_delta > 0):
            agreements += 1
        else:
            disagreeing.append((left, right))
    return PairwiseAgreement(agreements=agreements, comparisons=comparisons,
                             disagreeing_pairs=disagreeing)


def ordering_report(
    measured: Sequence[Mapping[str, object]],
    reference: Sequence[Mapping[str, object]],
    group_key: str = "dataset",
    item_key: str = "model",
    value: str = "accuracy",
) -> dict[str, PairwiseAgreement]:
    """Per-group pairwise ordering agreement (e.g. per dataset for Table I)."""
    groups = sorted(
        {str(row[group_key]) for row in measured if group_key in row}
        & {str(row[group_key]) for row in reference if group_key in row}
    )
    report: dict[str, PairwiseAgreement] = {}
    for group in groups:
        measured_group = [row for row in measured if str(row.get(group_key)) == group]
        reference_group = [row for row in reference if str(row.get(group_key)) == group]
        report[group] = pairwise_order_agreement(
            measured_group, reference_group, key=item_key, value=value
        )
    return report
