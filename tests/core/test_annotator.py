"""Tests of the end-to-end KGLink annotator (the public API)."""

from __future__ import annotations

import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.data.corpus import TableCorpus
from repro.data.table import Table


TINY_CONFIG = dict(
    epochs=2, batch_size=4, learning_rate=1e-3, pretrain_steps=4,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=6, max_tokens_per_column=14, vocab_size=1200,
    max_position_embeddings=160, max_feature_tokens=10,
)


@pytest.fixture(scope="module")
def tiny_splits(semtab_splits):
    """Down-sized splits so the annotator tests stay fast."""
    train = TableCorpus("train", semtab_splits.train.tables[:14],
                        semtab_splits.train.label_vocabulary)
    valid = TableCorpus("valid", semtab_splits.validation.tables[:3],
                        semtab_splits.train.label_vocabulary)
    test = TableCorpus("test", semtab_splits.test.tables[:6],
                       semtab_splits.train.label_vocabulary)
    return train, valid, test


@pytest.fixture(scope="module")
def fitted_annotator(graph, linker, tiny_splits):
    train, valid, _ = tiny_splits
    annotator = KGLinkAnnotator(graph, KGLinkConfig(**TINY_CONFIG), linker=linker)
    annotator.fit(train, valid if len(valid.tables) else None)
    return annotator


class TestKGLinkConfig:
    def test_part1_config_propagates_switches(self):
        config = KGLinkConfig(use_candidate_types=False, top_k_rows=7)
        part1 = config.part1_config()
        assert part1.top_k_rows == 7
        assert part1.use_candidate_types is False

    def test_plm_config_vocab_override(self):
        config = KGLinkConfig(vocab_size=500)
        assert config.plm_config().vocab_size == 500
        assert config.plm_config(vocab_size=77).vocab_size == 77

    def test_deberta_switch(self):
        assert KGLinkConfig(use_deberta=True).plm_config().relative_attention is True

    def test_training_config_propagates_mask_switch(self):
        assert KGLinkConfig(use_mask_task=False).training_config().use_mask_task is False

    def test_serializer_config_budgets(self):
        config = KGLinkConfig(max_tokens_per_column=20, max_columns=5)
        serializer = config.serializer_config()
        assert serializer.max_tokens_per_column == 20
        assert serializer.max_columns == 5


class TestFitAndPredict:
    def test_requires_fit_before_prediction(self, graph, linker, toy_table):
        annotator = KGLinkAnnotator(graph, KGLinkConfig(**TINY_CONFIG), linker=linker)
        with pytest.raises(RuntimeError):
            annotator.annotate(toy_table)

    def test_fit_returns_history(self, fitted_annotator):
        history = fitted_annotator.history
        assert history is not None
        assert history.epochs_completed >= 1
        assert fitted_annotator.fit_seconds > 0
        assert fitted_annotator.part1_seconds > 0

    def test_annotate_single_table(self, fitted_annotator, tiny_splits):
        _, _, test = tiny_splits
        table = test.tables[0]
        predictions = fitted_annotator.annotate(table)
        assert len(predictions) == min(table.n_columns, fitted_annotator.config.max_columns)
        assert all(label in fitted_annotator.label_vocabulary for label in predictions)

    def test_predict_corpus_alignment(self, fitted_annotator, tiny_splits):
        _, _, test = tiny_splits
        y_true, y_pred = fitted_annotator.predict_corpus(test)
        assert len(y_true) == len(y_pred)
        assert len(y_true) > 0

    def test_evaluate_returns_result(self, fitted_annotator, tiny_splits):
        _, _, test = tiny_splits
        result = fitted_annotator.evaluate(test)
        assert 0.0 <= result.accuracy <= 100.0
        assert fitted_annotator.inference_seconds > 0

    def test_processed_tables_cached(self, fitted_annotator, tiny_splits):
        _, _, test = tiny_splits
        fitted_annotator.predict_corpus(test)
        service = fitted_annotator._inference_service()
        before = service.stats()
        fitted_annotator.predict_corpus(test)
        after = service.stats()
        assert after.cache_misses == before.cache_misses
        assert after.cache_hits - before.cache_hits == len(test.tables)

    def test_wide_table_scores_its_first_max_columns(self, fitted_annotator, tiny_splits):
        _, _, test = tiny_splits
        width = fitted_annotator.config.max_columns
        rows = min(table.n_rows for table in test.tables)
        columns = [column.truncated(rows) for table in test.tables
                   for column in table.columns if column.label is not None]
        assert len(columns) > width
        wide = Table(table_id="wide", columns=columns)
        y_true, y_pred = fitted_annotator.predict_corpus(
            TableCorpus("wide", [wide], test.label_vocabulary)
        )
        assert y_true == [column.label for column in columns[:width]]
        assert y_pred == fitted_annotator.annotate(wide)

    def test_refit_serves_the_new_model(self, graph, linker, tiny_splits):
        train, _, test = tiny_splits
        config = KGLinkConfig(**{**TINY_CONFIG, "epochs": 1})
        refitted = KGLinkAnnotator(graph, config, linker=linker)
        refitted.fit(TableCorpus("first", train.tables[:4], train.label_vocabulary))
        first = refitted.predict_corpus(test)
        refitted.fit(train)
        # The refit keeps the first fit's tokenizer; so does the fresh one.
        fresh = KGLinkAnnotator(graph, config, linker=linker, tokenizer=refitted.tokenizer)
        fresh.fit(train)
        expected = fresh.predict_corpus(test)
        assert expected != first  # otherwise a stale model would pass too
        assert refitted.predict_corpus(test) == expected
        assert [refitted.annotate(table) for table in test.tables] == [
            fresh.annotate(table) for table in test.tables
        ]


class TestAblationConfigurations:
    @pytest.mark.parametrize("overrides", [
        {"use_mask_task": False},
        {"use_candidate_types": False, "use_feature_vector": False},
        {"use_feature_vector": False},
    ])
    def test_ablation_variants_fit_and_predict(self, graph, linker, tiny_splits, overrides):
        train, _, test = tiny_splits
        config = KGLinkConfig(**{**TINY_CONFIG, **overrides, "epochs": 1})
        annotator = KGLinkAnnotator(graph, config, linker=linker)
        annotator.fit(train)
        result = annotator.evaluate(test)
        assert 0.0 <= result.accuracy <= 100.0

    def test_deberta_variant_fits(self, graph, linker, tiny_splits):
        train, _, test = tiny_splits
        config = KGLinkConfig(**{**TINY_CONFIG, "use_deberta": True, "epochs": 1})
        annotator = KGLinkAnnotator(graph, config, linker=linker)
        annotator.fit(train)
        assert 0.0 <= annotator.evaluate(test).accuracy <= 100.0

    def test_original_row_filter_variant_fits(self, graph, linker, tiny_splits):
        train, _, test = tiny_splits
        config = KGLinkConfig(**{**TINY_CONFIG, "row_filter": "original", "epochs": 1})
        annotator = KGLinkAnnotator(graph, config, linker=linker)
        annotator.fit(train)
        assert 0.0 <= annotator.evaluate(test).accuracy <= 100.0
