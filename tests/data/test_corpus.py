"""Tests of table corpora and stratified splitting."""

from __future__ import annotations

import pytest

from repro.data.corpus import TableCorpus, stratified_split
from repro.data.table import Column, Table


def _table(table_id: str, label: str, n_rows: int = 3) -> Table:
    return Table(
        table_id=table_id,
        columns=[Column(name="c", cells=[f"{label}-{i}" for i in range(n_rows)], label=label)],
    )


@pytest.fixture()
def labelled_corpus():
    tables = [_table(f"a{i}", "alpha") for i in range(10)]
    tables += [_table(f"b{i}", "beta") for i in range(10)]
    tables += [_table(f"c{i}", "gamma") for i in range(5)]
    return TableCorpus(name="toy", tables=tables)


class TestTableCorpus:
    def test_vocabulary_inferred_and_sorted(self, labelled_corpus):
        assert labelled_corpus.label_vocabulary == ["alpha", "beta", "gamma"]

    def test_counts_and_sizes(self, labelled_corpus):
        assert len(labelled_corpus) == 25
        assert labelled_corpus.num_columns == 25
        assert labelled_corpus.label_counts()["alpha"] == 10

    def test_statistics_fields(self, labelled_corpus):
        stats = labelled_corpus.statistics()
        assert stats["tables"] == 25
        assert stats["avg_columns_per_table"] == pytest.approx(1.0)
        assert stats["numeric_column_fraction"] == 0.0

    def test_subset_preserves_vocabulary(self, labelled_corpus):
        subset = labelled_corpus.subset(["a0", "b0"])
        assert len(subset) == 2
        assert subset.label_vocabulary == labelled_corpus.label_vocabulary

    def test_explicit_vocabulary_preserved(self):
        corpus = TableCorpus("x", [_table("t", "alpha")], label_vocabulary=["alpha", "zeta"])
        assert corpus.label_vocabulary == ["alpha", "zeta"]


class TestStratifiedSplit:
    def test_proportions_must_sum_to_one(self, labelled_corpus):
        with pytest.raises(ValueError):
            stratified_split(labelled_corpus, proportions=(0.5, 0.2, 0.2))

    def test_all_tables_assigned_exactly_once(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=1)
        all_ids = (
            [t.table_id for t in splits.train.tables]
            + [t.table_id for t in splits.validation.tables]
            + [t.table_id for t in splits.test.tables]
        )
        assert sorted(all_ids) == sorted(t.table_id for t in labelled_corpus.tables)

    def test_split_sizes_roughly_7_1_2(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=2)
        assert len(splits.train) >= len(splits.test) >= len(splits.validation)

    def test_each_class_present_in_train(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=3)
        train_labels = {t.columns[0].label for t in splits.train.tables}
        assert train_labels == {"alpha", "beta", "gamma"}

    def test_deterministic_given_seed(self, labelled_corpus):
        first = stratified_split(labelled_corpus, seed=4)
        second = stratified_split(labelled_corpus, seed=4)
        assert [t.table_id for t in first.train.tables] == [t.table_id for t in second.train.tables]

    def test_vocabulary_shared_across_splits(self, labelled_corpus):
        splits = stratified_split(labelled_corpus)
        assert splits.train.label_vocabulary == splits.test.label_vocabulary


class TestSubsampleTrain:
    def test_keeps_requested_fraction(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=5)
        reduced = splits.subsample_train(0.5, seed=1)
        assert len(reduced.train) == pytest.approx(len(splits.train) * 0.5, abs=1)

    def test_test_set_untouched(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=5)
        reduced = splits.subsample_train(0.2, seed=1)
        assert [t.table_id for t in reduced.test.tables] == [t.table_id for t in splits.test.tables]

    def test_full_proportion_keeps_everything(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=5)
        assert len(splits.subsample_train(1.0).train) == len(splits.train)

    def test_invalid_proportion_rejected(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=5)
        with pytest.raises(ValueError):
            splits.subsample_train(0.0)
        with pytest.raises(ValueError):
            splits.subsample_train(1.5)

    def test_at_least_one_table_kept(self, labelled_corpus):
        splits = stratified_split(labelled_corpus, seed=5)
        assert len(splits.subsample_train(0.01).train) >= 1
