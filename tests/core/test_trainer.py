"""Tests of the multi-task trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import KGLinkModel
from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.core.serialization import SerializerConfig, TableSerializer
from repro.core.trainer import IGNORE_INDEX, KGLinkTrainer, TrainingConfig
from repro.nn.losses import FixedWeightLoss, UncertaintyWeightedLoss
from repro.plm.config import PLMConfig
from repro.plm.model import MiniBERT


@pytest.fixture(scope="module")
def extractor(graph, linker):
    return KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)


@pytest.fixture(scope="module")
def processed(extractor, semtab_corpus):
    return [extractor.process_table(table) for table in semtab_corpus.tables[:12]]


@pytest.fixture(scope="module")
def label_vocabulary(semtab_corpus):
    return list(semtab_corpus.label_vocabulary)


def _make_trainer(tokenizer, label_vocabulary, **config_overrides):
    encoder = MiniBERT(PLMConfig(vocab_size=tokenizer.vocab_size, hidden_size=32, num_layers=1,
                                 num_heads=2, intermediate_size=48,
                                 max_position_embeddings=160, seed=6))
    model = KGLinkModel(encoder, num_labels=len(label_vocabulary), seed=6)
    serializer = TableSerializer(tokenizer, SerializerConfig(max_tokens_per_column=14,
                                                             max_columns=6,
                                                             max_feature_tokens=10,
                                                             max_sequence_length=150))
    config_kwargs = {"epochs": 1, "batch_size": 4, "learning_rate": 1e-3, "seed": 6}
    config_kwargs.update(config_overrides)
    config = TrainingConfig(**config_kwargs)
    return KGLinkTrainer(model, serializer, label_vocabulary, config)


class TestTrainingConfig:
    def test_rejects_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=-1)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestPrepareExamples:
    def test_example_contains_masked_and_ground_truth(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        example = trainer.prepare_example(processed[0])
        assert example.masked is not None
        assert example.ground_truth is not None
        assert len(example.label_indices) == example.masked.n_columns

    def test_ground_truth_omitted_when_mask_task_disabled(self, tokenizer, label_vocabulary,
                                                          processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, use_mask_task=False)
        example = trainer.prepare_example(processed[0])
        assert example.ground_truth is None

    def test_unknown_labels_mapped_to_ignore_index(self, tokenizer, processed):
        trainer = _make_trainer(tokenizer, ["OnlyLabel"])
        example = trainer.prepare_example(processed[0])
        assert set(example.label_indices) <= {0, IGNORE_INDEX}

    def test_prepare_examples_length(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        examples = trainer.prepare_examples(processed)
        assert len(examples) == len(processed)


class TestLossSelection:
    def test_adaptive_loss_by_default(self, tokenizer, label_vocabulary):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        assert isinstance(trainer.combined_loss, UncertaintyWeightedLoss)

    def test_fixed_loss_when_configured(self, tokenizer, label_vocabulary):
        trainer = _make_trainer(tokenizer, label_vocabulary,
                                fixed_log_sigma0_sq=0.4, fixed_log_sigma1_sq=1.0)
        assert isinstance(trainer.combined_loss, FixedWeightLoss)
        assert trainer.combined_loss.sigma_values == (0.4, 1.0)


class TestTrainingLoop:
    def test_training_records_history(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        examples = trainer.prepare_examples(processed)
        history = trainer.train(examples[:8], examples[8:])
        assert history.epochs_completed == 1
        assert len(history.step_losses) == 2  # 8 tables / batch size 4
        assert len(history.sigma0_trajectory) == len(history.step_losses)
        assert len(history.validation_accuracy) == 1
        assert history.training_seconds > 0

    def test_training_requires_examples(self, tokenizer, label_vocabulary):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_dmlm_losses_zero_without_mask_task(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, use_mask_task=False)
        examples = trainer.prepare_examples(processed[:8])
        history = trainer.train(examples)
        assert all(value == 0.0 for value in history.dmlm_losses)

    def test_dmlm_losses_positive_with_mask_task(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, use_mask_task=True)
        examples = trainer.prepare_examples(processed[:8])
        history = trainer.train(examples)
        assert any(value > 0.0 for value in history.dmlm_losses)

    def test_loss_decreases_over_epochs(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, epochs=6, use_mask_task=False)
        examples = trainer.prepare_examples(processed)
        history = trainer.train(examples)
        first = np.mean(history.classification_losses[:3])
        last = np.mean(history.classification_losses[-3:])
        assert last < first

    def test_bucketed_training_groups_batches_by_length(self, tokenizer,
                                                        label_vocabulary,
                                                        processed):
        trainer = _make_trainer(tokenizer, label_vocabulary,
                                length_bucketing=True, batch_size=3)
        examples = trainer.prepare_examples(processed)
        lengths = np.asarray([ex.masked.sequence_length for ex in examples])
        assert len(set(lengths.tolist())) > 1, "fixture tables should be ragged"
        order = trainer._bucketed_training_order(
            trainer.rng.permutation(len(examples)), lengths
        )
        # Same multiset of examples, and a strictly smaller (or equal)
        # padding bill than the identity order.
        assert sorted(order.tolist()) == list(range(len(examples)))
        padded = trainer._padded_tokens(lengths, order, batch_size=3)
        identity = trainer._padded_tokens(
            lengths, np.arange(len(examples)), batch_size=3
        )
        assert padded <= identity

    def test_bucketed_training_runs_and_learns(self, tokenizer, label_vocabulary,
                                               processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, epochs=2,
                                length_bucketing=True, use_mask_task=False)
        examples = trainer.prepare_examples(processed)
        history = trainer.train(examples[:8], examples[8:])
        assert history.epochs_completed == 2
        assert len(history.step_losses) == 4  # 8 tables / batch size 4, 2 epochs

    def test_default_training_path_is_bitwise_stable(self, tokenizer,
                                                     label_vocabulary,
                                                     processed):
        # The bucketing flag defaults off and must not perturb the seeded
        # rng stream: two identical runs stay bitwise-identical.
        first = _make_trainer(tokenizer, label_vocabulary, epochs=2)
        second = _make_trainer(tokenizer, label_vocabulary, epochs=2)
        examples_a = first.prepare_examples(processed[:8])
        examples_b = second.prepare_examples(processed[:8])
        assert first.train(examples_a).step_losses == second.train(
            examples_b
        ).step_losses

    def test_training_updates_parameters(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        before = {name: param.data.copy() for name, param in trainer.model.named_parameters()}
        trainer.train(trainer.prepare_examples(processed[:6]))
        changed = any(
            not np.allclose(before[name], param.data)
            for name, param in trainer.model.named_parameters()
        )
        assert changed


class TestPredictionAndEvaluation:
    def test_predictions_aligned_with_columns(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        examples = trainer.prepare_examples(processed[:5])
        trainer.train(examples)
        predictions = trainer.predict(examples)
        assert len(predictions) == 5
        for example, predicted in zip(examples, predictions, strict=True):
            assert len(predicted) == example.masked.n_columns
            assert all(label in label_vocabulary for label in predicted)

    def test_predict_empty_list(self, tokenizer, label_vocabulary):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        assert trainer.predict([]) == []

    def test_bucketed_predict_preserves_table_order(self, tokenizer, label_vocabulary,
                                                    processed):
        trainer = _make_trainer(tokenizer, label_vocabulary, batch_size=3)
        # Ragged table sizes: sorting by length must not leak into the output order.
        examples = trainer.prepare_examples(processed)
        lengths = [example.masked.sequence_length for example in examples]
        assert len(set(lengths)) > 1, "fixture tables should have ragged lengths"
        batched = trainer.predict(examples)
        stats = trainer.last_bucket_stats
        # Each table predicted alone is the oracle: batching and the length
        # sort may neither change an answer nor move it to another table.
        assert batched == [trainer.predict([example])[0] for example in examples]
        assert stats["n_batches"] == -(-len(examples) // 3)
        assert stats["useful_tokens"] <= stats["padded_tokens"]

    def test_bucket_stats_reset_on_empty_predict(self, tokenizer, label_vocabulary):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        trainer.predict([])
        assert trainer.last_bucket_stats is None

    def test_feature_vectors_bucketed_matches_full_width(self, tokenizer,
                                                         label_vocabulary):
        from repro.nn.tensor import no_grad

        trainer = _make_trainer(tokenizer, label_vocabulary)
        trainer.model.eval()
        # Ragged feature blocks: every row a different true length, padded to
        # the global width the serializer would emit.
        rng = np.random.default_rng(3)
        n_rows, width = 13, 10
        vocab = trainer.serializer.vocab
        features = np.full((n_rows, width), vocab.pad_id, dtype=np.int64)
        attention = np.zeros((n_rows, width), dtype=bool)
        for row in range(n_rows):
            length = int(rng.integers(1, width + 1))
            features[row, 0] = vocab.cls_id
            if length > 1:
                features[row, 1:length] = rng.integers(
                    5, tokenizer.vocab_size, size=length - 1
                )
            attention[row, :length] = True
        lengths = attention.sum(axis=1)
        assert len(set(lengths.tolist())) > 1
        trainer.FEATURE_BUCKET_SIZE = 4  # force several ragged chunks
        with no_grad():
            full = trainer.model.feature_vectors(features, attention)
            bucketed = trainer._feature_vectors(features, attention)
        assert bucketed.data.shape == full.data.shape
        # Trimming the sequence width changes BLAS blocking, so agreement is
        # up to float32 rounding noise, not bitwise.
        np.testing.assert_allclose(bucketed.data, full.data, rtol=1e-4, atol=1e-6)

    def test_predictions_invariant_to_feature_bucket_size(self, tokenizer,
                                                          label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        examples = trainer.prepare_examples(processed)
        trainer.FEATURE_BUCKET_SIZE = 2
        tiny_buckets = trainer.predict(examples)
        trainer.FEATURE_BUCKET_SIZE = 10_000
        one_bucket = trainer.predict(examples)
        assert tiny_buckets == one_bucket

    def test_feature_vectors_full_width_while_training(self, tokenizer,
                                                       label_vocabulary, processed):
        from repro.nn.tensor import Tensor

        trainer = _make_trainer(tokenizer, label_vocabulary)
        trainer.model.train()
        flat = trainer._flatten_columns(trainer.prepare_examples(processed[:4]))
        out = trainer._feature_vectors(flat["features"], flat["feature_attention"])
        # The training path must return the graph-connected single call (the
        # bucketed path yields a detached constant tensor).
        assert isinstance(out, Tensor)
        assert out.requires_grad
        assert out.data.shape[0] == flat["features"].shape[0]

    def test_evaluate_returns_percentages(self, tokenizer, label_vocabulary, processed):
        trainer = _make_trainer(tokenizer, label_vocabulary)
        examples = trainer.prepare_examples(processed[:5])
        trainer.train(examples)
        result = trainer.evaluate(examples)
        assert 0.0 <= result.accuracy <= 100.0
        assert 0.0 <= result.weighted_f1 <= 100.0
        assert result.num_columns > 0
