"""Edge-case and failure-injection tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.core.serialization import SerializerConfig, TableSerializer
from repro.data.corpus import TableCorpus, stratified_split
from repro.data.table import Column, Table
from repro.experiments.__main__ import main as experiments_main
from repro.kg.backends import BM25Index
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.text.tokenizer import WordPieceTokenizer


class TestDegenerateTables:
    def test_single_cell_table(self, graph, linker):
        extractor = KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)
        table = Table("one-cell", [Column(name="x", cells=["Peter"], label="Human")])
        processed = extractor.process_table(table)
        assert processed.filtered.n_rows == 1
        assert len(processed.columns) == 1

    def test_table_of_empty_strings(self, graph, linker):
        extractor = KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)
        table = Table("empty-cells", [Column(name="x", cells=["", "", ""], label="name")])
        processed = extractor.process_table(table)
        assert not processed.columns[0].has_kg_links
        assert processed.columns[0].candidate_types == []

    def test_punctuation_only_cells(self, graph, linker):
        extractor = KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)
        table = Table("punct", [Column(name="x", cells=["???", "---", "..."], label="code")])
        processed = extractor.process_table(table)
        assert len(processed.columns) == 1

    def test_serializer_handles_column_with_only_long_cells(self, tokenizer, graph, linker):
        extractor = KGCandidateExtractor(graph, Part1Config(top_k_rows=3), linker=linker)
        long_text = "a very long address " * 30
        table = Table("long", [Column(name="addr", cells=[long_text] * 3, label="address")])
        serializer = TableSerializer(tokenizer, SerializerConfig(max_tokens_per_column=16,
                                                                 max_sequence_length=64))
        serialized = serializer.serialize(extractor.process_table(table))
        assert serialized.sequence_length <= 64

    def test_more_columns_than_budget_truncated(self, tokenizer, graph, linker):
        extractor = KGCandidateExtractor(graph, Part1Config(top_k_rows=3), linker=linker)
        columns = [Column(name=f"c{i}", cells=["x", "y"], label="name") for i in range(12)]
        table = Table("wide", columns)
        serializer = TableSerializer(tokenizer, SerializerConfig(max_columns=8))
        serialized = serializer.serialize(extractor.process_table(table))
        assert serialized.n_columns == 8


class TestDegenerateCorpora:
    def test_split_of_single_class_corpus(self):
        tables = [
            Table(f"t{i}", [Column(name="c", cells=["a", "b"], label="only")])
            for i in range(10)
        ]
        splits = stratified_split(TableCorpus("single-class", tables), seed=0)
        assert len(splits.train) + len(splits.validation) + len(splits.test) == 10

    def test_split_of_two_table_corpus(self):
        tables = [
            Table("t0", [Column(name="c", cells=["a"], label="x")]),
            Table("t1", [Column(name="c", cells=["b"], label="y")]),
        ]
        splits = stratified_split(TableCorpus("tiny", tables), seed=0)
        total = len(splits.train) + len(splits.validation) + len(splits.test)
        assert total == 2

    def test_corpus_statistics_empty_tables_list(self):
        corpus = TableCorpus("empty", tables=[
            Table("t", [Column(name="c", cells=["1"], label="x")])
        ])
        corpus.tables = []
        stats = corpus.statistics()
        assert stats["columns"] == 0
        assert stats["numeric_column_fraction"] == 0.0


class TestEmptySubstrates:
    def test_empty_bm25_index_search(self):
        assert BM25Index().search("anything") == []

    def test_linker_on_empty_graph(self):
        graph = KnowledgeGraph()
        linker = EntityLinker(graph, LinkerConfig(max_candidates=3))
        assert linker.link("Peter Steele") == []
        assert linker.best_link("Peter Steele") is None

    def test_tokenizer_trained_on_empty_corpus_still_usable(self):
        tokenizer = WordPieceTokenizer.train([], vocab_size=50)
        assert tokenizer.encode("anything") != []  # falls back to [UNK] pieces
        assert all(0 <= i < tokenizer.vocab_size for i in tokenizer.encode("anything"))

    def test_tokenizer_unknown_script_text(self, tokenizer):
        ids = tokenizer.encode("Ω≈ç√∫˜µ")
        assert all(0 <= i < tokenizer.vocab_size for i in ids)


class TestExperimentsCLI:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["not-an-experiment"])
        assert excinfo.value.code != 0

    def test_paper_profile_rejected_by_choices(self):
        with pytest.raises(SystemExit):
            experiments_main(["table1", "--profile", "paper"])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["--help"])
        assert excinfo.value.code == 0


class TestNumericRobustness:
    def test_numeric_summary_with_commas_and_garbage(self):
        column = Column(name="n", cells=["1,000", "2,500", "n/a", ""])
        summary = KGCandidateExtractor._numeric_summary(column)
        assert summary[0] == "1750.00"

    def test_numeric_summary_all_garbage(self):
        column = Column(name="n", cells=["n/a", "-", ""])
        assert KGCandidateExtractor._numeric_summary(column) == ["0", "0", "0"]

    def test_cross_entropy_with_single_class_logits(self):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        loss = F.cross_entropy(Tensor(np.zeros((3, 1))), np.zeros(3, dtype=int))
        assert float(loss.data) == pytest.approx(0.0)
