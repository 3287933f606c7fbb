"""Table corpora and stratified train/validation/test splitting."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import numpy as np

from repro.data.table import Table

__all__ = ["TableCorpus", "CorpusSplits", "stratified_split"]


@dataclass
class TableCorpus:
    """A named collection of labelled tables plus its label vocabulary."""

    name: str
    tables: list[Table]
    label_vocabulary: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.label_vocabulary:
            labels = sorted(
                {column.label for table in self.tables for column in table.columns
                 if column.label is not None}
            )
            self.label_vocabulary = labels

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables)

    @property
    def num_columns(self) -> int:
        return sum(table.n_columns for table in self.tables)

    @property
    def num_labels(self) -> int:
        return len(self.label_vocabulary)

    def label_counts(self) -> Counter:
        """Number of columns per ground-truth label."""
        counts: Counter = Counter()
        for table in self.tables:
            for column in table.columns:
                if column.label is not None:
                    counts[column.label] += 1
        return counts

    def statistics(self) -> dict[str, float]:
        """Corpus statistics in the style of the paper's Section IV-A."""
        numeric = sum(
            1 for table in self.tables for column in table.columns if column.is_numeric()
        )
        total_columns = self.num_columns
        return {
            "tables": len(self.tables),
            "columns": total_columns,
            "labels": self.num_labels,
            "avg_rows_per_table": (
                float(np.mean([table.n_rows for table in self.tables])) if self.tables else 0.0
            ),
            "avg_columns_per_table": (
                float(np.mean([table.n_columns for table in self.tables])) if self.tables else 0.0
            ),
            "numeric_columns": numeric,
            "numeric_column_fraction": numeric / total_columns if total_columns else 0.0,
        }

    def subset(self, table_ids: Iterable[str], name_suffix: str = "subset") -> TableCorpus:
        """Corpus restricted to the given table ids (label vocabulary preserved)."""
        wanted = set(table_ids)
        return TableCorpus(
            name=f"{self.name}-{name_suffix}",
            tables=[table for table in self.tables if table.table_id in wanted],
            label_vocabulary=list(self.label_vocabulary),
        )


@dataclass
class CorpusSplits:
    """Train / validation / test corpora produced by :func:`stratified_split`."""

    train: TableCorpus
    validation: TableCorpus
    test: TableCorpus

    def subsample_train(self, proportion: float, seed: int = 0) -> CorpusSplits:
        """Keep only a fraction ``p`` of the training tables (Figure 9 experiment).

        The validation and test corpora are left untouched, exactly as the
        paper describes: "the total amount of data would be 0.2 times the
        actual amount while the testing set remains unchanged".
        """
        if not 0.0 < proportion <= 1.0:
            raise ValueError("proportion must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        tables = list(self.train.tables)
        keep = max(1, int(round(len(tables) * proportion)))
        indices = rng.permutation(len(tables))[:keep]
        subset = [tables[i] for i in sorted(indices)]
        train = TableCorpus(
            name=f"{self.train.name}-p{proportion:.1f}",
            tables=subset,
            label_vocabulary=list(self.train.label_vocabulary),
        )
        return CorpusSplits(train=train, validation=self.validation, test=self.test)


def _dominant_label(table: Table) -> str:
    """The most frequent column label of a table (used to stratify)."""
    labels = [column.label for column in table.columns if column.label is not None]
    if not labels:
        return "__unlabelled__"
    counts = Counter(labels)
    return counts.most_common(1)[0][0]


def stratified_split(
    corpus: TableCorpus,
    proportions: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 13,
) -> CorpusSplits:
    """Split a corpus into train/validation/test keeping per-class proportions.

    The paper uses a 7:1:2 split and "maintained the original sample
    proportion of each class in all splits".  Tables are grouped by their
    dominant column label and each group is split with the same ratios.
    """
    if len(proportions) != 3 or abs(sum(proportions) - 1.0) > 1e-9:
        raise ValueError("proportions must be three values summing to 1")
    rng = np.random.default_rng(seed)

    groups: dict[str, list[Table]] = defaultdict(list)
    for table in corpus.tables:
        groups[_dominant_label(table)].append(table)

    train_tables: list[Table] = []
    valid_tables: list[Table] = []
    test_tables: list[Table] = []
    for label in sorted(groups):
        tables = groups[label]
        order = rng.permutation(len(tables))
        shuffled = [tables[i] for i in order]
        n = len(shuffled)
        n_train = int(round(n * proportions[0]))
        n_valid = int(round(n * proportions[1]))
        # Guarantee at least one test table per class when the class has >= 3 tables.
        n_train = min(n_train, n)
        n_valid = min(n_valid, n - n_train)
        train_tables.extend(shuffled[:n_train])
        valid_tables.extend(shuffled[n_train : n_train + n_valid])
        test_tables.extend(shuffled[n_train + n_valid :])

    vocabulary = list(corpus.label_vocabulary)
    return CorpusSplits(
        train=TableCorpus(f"{corpus.name}-train", train_tables, vocabulary),
        validation=TableCorpus(f"{corpus.name}-validation", valid_tables, vocabulary),
        test=TableCorpus(f"{corpus.name}-test", test_tables, vocabulary),
    )
