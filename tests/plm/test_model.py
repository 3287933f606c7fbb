"""Tests of the MiniBERT / MiniDeBERTa encoders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.plm.config import PLMConfig
from repro.plm.model import MiniBERT, MiniDeBERTa, create_encoder


@pytest.fixture(scope="module")
def config():
    return PLMConfig(vocab_size=120, hidden_size=32, num_layers=2, num_heads=4,
                     intermediate_size=64, max_position_embeddings=40, dropout=0.1, seed=1)


@pytest.fixture(scope="module")
def encoder(config):
    model = MiniBERT(config)
    model.eval()
    return model


class TestPLMConfig:
    def test_hidden_size_divisibility(self):
        with pytest.raises(ValueError):
            PLMConfig(hidden_size=30, num_heads=4)

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            PLMConfig(dropout=1.0)

    def test_with_vocab_size(self, config):
        assert config.with_vocab_size(999).vocab_size == 999

    def test_as_deberta(self, config):
        assert config.as_deberta().relative_attention is True


class TestMiniBERT:
    def test_output_shape(self, encoder, config):
        ids = np.zeros((3, 10), dtype=np.int64)
        hidden = encoder(ids)
        assert hidden.shape == (3, 10, config.hidden_size)

    def test_sequence_length_limit_enforced(self, encoder, config):
        ids = np.zeros((1, config.max_position_embeddings + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            encoder(ids)

    def test_deterministic_in_eval_mode(self, encoder, rng):
        ids = rng.integers(0, 100, size=(2, 8))
        first = encoder(ids).data
        second = encoder(ids).data
        np.testing.assert_allclose(first, second)

    def test_padding_mask_isolates_positions(self, encoder, rng):
        ids = rng.integers(0, 100, size=(1, 6))
        mask = np.array([[True, True, True, False, False, False]])
        base = encoder(ids, attention_mask=mask).data
        modified = ids.copy()
        modified[0, 4] = (modified[0, 4] + 7) % 100
        out = encoder(modified, attention_mask=mask).data
        np.testing.assert_allclose(base[0, :3], out[0, :3], atol=1e-8)

    def test_position_embeddings_matter(self, encoder, rng):
        ids = rng.integers(1, 100, size=(1, 5))
        swapped = ids[:, ::-1].copy()
        assert not np.allclose(encoder(ids).data[0, 0], encoder(swapped).data[0, -1])

    def test_pooled_output_shape_and_range(self, encoder, rng):
        hidden = encoder(rng.integers(0, 100, size=(2, 6)))
        pooled = encoder.pooled_output(hidden)
        assert pooled.shape == (2, 32)
        assert np.all(np.abs(pooled.data) <= 1.0)

    def test_vocabulary_logits_shape(self, encoder, config, rng):
        hidden = encoder(rng.integers(0, 100, size=(2, 6)))
        logits = encoder.vocabulary_logits(hidden)
        assert logits.shape == (2, 6, config.vocab_size)

    def test_encode_is_alias_of_forward(self, encoder, rng):
        ids = rng.integers(0, 100, size=(1, 4))
        np.testing.assert_allclose(encoder.encode(ids).data, encoder(ids).data)

    def test_gradients_reach_embeddings(self, config, rng):
        model = MiniBERT(config)
        model.train()
        hidden = model(rng.integers(0, 100, size=(2, 5)))
        hidden.sum().backward()
        assert model.embeddings.token.weight.grad is not None
        assert model.embeddings.position.weight.grad is not None

    def test_parameter_count_positive_and_reported(self, encoder):
        assert sum(param.data.size for param in encoder.parameters()) > 10_000
        assert encoder.hidden_size == 32


class TestMiniDeBERTa:
    def test_forces_relative_attention(self, config):
        model = MiniDeBERTa(config)
        assert model.config.relative_attention is True

    def test_output_shape(self, config, rng):
        model = MiniDeBERTa(config)
        model.eval()
        assert model(rng.integers(0, 100, size=(2, 7))).shape == (2, 7, 32)

    def test_differs_from_plain_bert(self, config, rng):
        bert = MiniBERT(config)
        deberta = MiniDeBERTa(config)
        bert.eval()
        deberta.eval()
        ids = rng.integers(0, 100, size=(1, 6))
        assert not np.allclose(bert(ids).data, deberta(ids).data)

    def test_relative_bias_receives_gradients(self, config, rng):
        model = MiniDeBERTa(config)
        model.train()
        model(rng.integers(0, 100, size=(1, 5))).sum().backward()
        assert model.relative_bias.weight.grad is not None

    def test_bias_index_cache_reused_per_length(self, config, rng):
        model = MiniDeBERTa(config)
        model.eval()
        model(rng.integers(0, 100, size=(1, 5)))
        model(rng.integers(0, 100, size=(2, 7)))
        assert set(model._bias_index_cache) == {5, 7}
        first = model._bias_index_cache[5]
        model(rng.integers(0, 100, size=(1, 5)))
        assert model._bias_index_cache[5] is first

    def test_cached_bias_matches_autograd_path(self, config, rng):
        model = MiniDeBERTa(config)
        ids = rng.integers(0, 100, size=(2, 6))
        model.eval()
        from repro.nn.tensor import no_grad

        with no_grad():
            cached = model(ids).data  # realises and reuses the value cache
            warm = model(ids).data
        eager = model(ids).data  # grad path recomputes the lookup
        np.testing.assert_array_equal(cached, warm)
        np.testing.assert_allclose(cached, eager, atol=1e-12)

    def test_bias_value_cache_invalidated_on_weight_change(self, config, rng):
        model = MiniDeBERTa(config)
        model.eval()
        ids = rng.integers(0, 100, size=(1, 6))
        from repro.nn.tensor import no_grad

        with no_grad():
            before = model(ids).data.copy()
            # Simulate an optimiser step: bump the distance-0 bucket only, so
            # the change is non-uniform across scores (softmax-visible).
            model.relative_bias.weight.data[model.config.relative_attention_buckets] += 5.0
            after = model(ids).data
        assert not np.allclose(before, after)


class TestCreateEncoder:
    def test_returns_bert_by_default(self, config):
        assert type(create_encoder(config)) is MiniBERT

    def test_returns_deberta_when_relative(self, config):
        assert isinstance(create_encoder(config.as_deberta()), MiniDeBERTa)
