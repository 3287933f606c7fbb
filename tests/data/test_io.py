"""Tests of CSV/JSON table and corpus persistence."""

from __future__ import annotations

import pytest

from repro.data.corpus import TableCorpus
from repro.data.io import (
    corpus_from_directory,
    corpus_to_directory,
    table_from_csv,
    table_to_csv,
)


class TestTableCSV:
    def test_roundtrip_preserves_cells_and_labels(self, toy_table, tmp_path):
        path = table_to_csv(toy_table, tmp_path / "toy.csv")
        loaded = table_from_csv(path)
        assert loaded.table_id == toy_table.table_id
        assert loaded.labels() == toy_table.labels()
        assert ([column.name for column in loaded.columns]
                == [column.name for column in toy_table.columns])
        for row_index in range(toy_table.n_rows):
            assert loaded.row(row_index) == toy_table.row(row_index)

    def test_roundtrip_without_labels_sidecar(self, toy_table, tmp_path):
        path = table_to_csv(toy_table, tmp_path / "toy.csv", write_labels=False)
        loaded = table_from_csv(path)
        assert loaded.labels() == [None, None, None]
        assert loaded.table_id == "toy"

    def test_explicit_table_id_wins(self, toy_table, tmp_path):
        path = table_to_csv(toy_table, tmp_path / "toy.csv")
        assert table_from_csv(path, table_id="custom").table_id == "custom"

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            table_from_csv(empty)

    def test_ragged_rows_padded(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n2,3\n")
        loaded = table_from_csv(path)
        assert loaded.columns[1].cells == ["", "3"]

    def test_creates_parent_directories(self, toy_table, tmp_path):
        path = table_to_csv(toy_table, tmp_path / "nested" / "dir" / "toy.csv")
        assert path.exists()


class TestCorpusDirectory:
    def test_roundtrip(self, toy_table, tmp_path):
        corpus = TableCorpus("toy-corpus", [toy_table])
        directory = corpus_to_directory(corpus, tmp_path / "corpus")
        loaded = corpus_from_directory(directory)
        assert loaded.name == "toy-corpus"
        assert loaded.label_vocabulary == corpus.label_vocabulary
        assert len(loaded) == 1
        assert loaded.tables[0].labels() == toy_table.labels()

    def test_roundtrip_of_generated_corpus(self, semtab_corpus, tmp_path):
        subset = TableCorpus("subset", semtab_corpus.tables[:5],
                             semtab_corpus.label_vocabulary)
        loaded = corpus_from_directory(corpus_to_directory(subset, tmp_path / "sem"))
        assert len(loaded) == 5
        assert loaded.label_vocabulary == subset.label_vocabulary
        assert loaded.tables[2].columns[0].cells == subset.tables[2].columns[0].cells

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corpus_from_directory(tmp_path)
