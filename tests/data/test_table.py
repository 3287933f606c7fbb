"""Tests of the table data model and its content key."""

from __future__ import annotations

import pytest

from repro.data.table import Column, Table, table_key


class TestColumn:
    def test_cells_coerced_to_strings(self):
        column = Column(name="x", cells=[1, 2.5, "a"])
        assert column.cells == ["1", "2.5", "a"]

    def test_length(self):
        assert len(Column(name="x", cells=["a", "b"])) == 2

    def test_source_entity_ids_must_match_length(self):
        with pytest.raises(ValueError):
            Column(name="x", cells=["a", "b"], source_entity_ids=["Q1"])

    def test_numeric_column_detection(self):
        assert Column(name="n", cells=["1", "2.5", "1,000"]).is_numeric()

    def test_mixed_column_not_numeric(self):
        assert not Column(name="n", cells=["1", "abc"]).is_numeric()

    def test_empty_cells_ignored_for_numeric(self):
        assert Column(name="n", cells=["1", "", "3"]).is_numeric()

    def test_all_empty_column_not_numeric(self):
        assert not Column(name="n", cells=["", "  "]).is_numeric()

    def test_date_column_not_numeric(self):
        assert not Column(name="d", cells=["1888-11-24", "1990-01-01"]).is_numeric()

    def test_truncated_keeps_prefix(self):
        column = Column(name="x", cells=["a", "b", "c"], source_entity_ids=["1", "2", "3"])
        short = column.truncated(2)
        assert short.cells == ["a", "b"]
        assert short.source_entity_ids == ["1", "2"]
        assert short.label == column.label


class TestTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Table(table_id="t", columns=[])

    def test_requires_equal_column_lengths(self):
        with pytest.raises(ValueError):
            Table(table_id="t", columns=[
                Column(name="a", cells=["1"]),
                Column(name="b", cells=["1", "2"]),
            ])

    def test_shape_properties(self, toy_table):
        assert toy_table.n_rows == 3
        assert toy_table.n_columns == 3

    def test_cell_and_row_access(self, toy_table):
        assert toy_table.cell(0, 0) == "James Smith"
        assert toy_table.row(1) == ["Mary Johnson", "1874-02-27", "873"]

    def test_iter_rows(self, toy_table):
        rows = list(toy_table.iter_rows())
        assert len(rows) == 3
        assert rows[2][0] == "John Brown"

    def test_labels_and_names(self, toy_table):
        assert toy_table.labels() == ["Cricketer", "birthDate", "points"]
        assert [column.name for column in toy_table.columns] == ["player", "born", "points"]

    def test_with_rows_subset_and_order(self, toy_table):
        reordered = toy_table.with_rows([2, 0])
        assert reordered.n_rows == 2
        assert reordered.cell(0, 0) == "John Brown"
        assert reordered.cell(1, 0) == "James Smith"

    def test_truncated(self, toy_table):
        assert toy_table.truncated(2).n_rows == 2
        assert toy_table.truncated(10).n_rows == 3

    def test_split_columns_no_split_needed(self, toy_table):
        assert toy_table.split_columns(8) == [toy_table]

    def test_split_columns_chunks(self, toy_table):
        pieces = toy_table.split_columns(2)
        assert len(pieces) == 2
        assert pieces[0].n_columns == 2
        assert pieces[1].n_columns == 1
        assert pieces[0].table_id != pieces[1].table_id

    def test_describe_counts_numeric(self, toy_table):
        summary = toy_table.describe()
        assert summary["numeric_columns"] == 1
        assert summary["n_rows"] == 3


def make_table(table_id="t0", name="c0", cells=("a", "b"), label=None) -> Table:
    return Table(table_id=table_id,
                 columns=[Column(name=name, cells=list(cells), label=label)])


class TestTableKey:
    def test_same_content_same_key(self):
        assert table_key(make_table()) == table_key(make_table())

    def test_table_id_is_part_of_identity(self):
        assert table_key(make_table("t0")) != table_key(make_table("t1"))

    def test_column_name_is_part_of_identity(self):
        assert table_key(make_table(name="c0")) != table_key(
            make_table(name="c1"))

    def test_cells_are_part_of_identity(self):
        assert table_key(make_table(cells=("a",))) != table_key(
            make_table(cells=("a", "b")))

    def test_cell_order_matters(self):
        assert table_key(make_table(cells=("a", "b"))) != table_key(
            make_table(cells=("b", "a")))

    def test_cell_boundaries_do_not_alias(self):
        assert table_key(make_table(cells=("ab", "c"))) != table_key(
            make_table(cells=("a", "bc")))

    def test_label_is_part_of_identity(self):
        assert table_key(make_table(label="city")) != table_key(make_table())
