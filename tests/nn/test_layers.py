"""Tests of the module system and the transformer building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, no_grad


class TestModuleSystem:
    def test_named_parameters_recursive(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert any("item_0" in name for name in names)
        assert any("item_1" in name for name in names)

    def test_num_parameters_counts_scalars(self):
        layer = nn.Linear(3, 5)
        assert sum(param.data.size for param in layer.parameters()) == 3 * 5 + 5

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert not model.layers[0].training
        model.train()
        assert model.layers[0].training

    def test_zero_grad_clears_all(self):
        layer = nn.Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        source = nn.Linear(4, 3)
        target = nn.Linear(4, 3, rng=np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)

    def test_load_state_dict_rejects_missing_keys(self):
        layer = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_load_state_dict_rejects_wrong_shape(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_module_list_len_and_getitem(self):
        modules = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(modules) == 2
        assert isinstance(modules[1], nn.Linear)

    def test_module_list_append_registers_parameters(self):
        modules = nn.ModuleList()
        modules.append(nn.Linear(2, 3))
        assert len(list(modules.named_parameters())) == 2

    def test_module_list_cannot_be_called(self):
        with pytest.raises(RuntimeError):
            nn.ModuleList([nn.Linear(1, 1)])(Tensor([1.0]))


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(6, 3)
        assert layer(Tensor(np.zeros((5, 6)))).shape == (5, 3)

    def test_no_bias_option(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert sum(param.data.size for param in layer.parameters()) == 8

    def test_matches_manual_computation(self, rng):
        layer = nn.Linear(3, 2)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)

    def test_supports_3d_input(self):
        layer = nn.Linear(4, 2)
        assert layer(Tensor(np.zeros((2, 5, 4)))).shape == (2, 5, 2)

    def test_gradients_flow_to_weight_and_bias(self):
        layer = nn.Linear(3, 2)
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        layer = nn.Embedding(10, 6)
        assert layer(np.array([[1, 2, 3]])).shape == (1, 3, 6)

    def test_out_of_range_raises(self):
        layer = nn.Embedding(5, 2)
        with pytest.raises(IndexError):
            layer(np.array([7]))

    def test_negative_index_raises(self):
        layer = nn.Embedding(5, 2)
        with pytest.raises(IndexError):
            layer(np.array([-1]))

    def test_gradient_shape(self):
        layer = nn.Embedding(7, 3)
        layer(np.array([0, 1, 1])).sum().backward()
        assert layer.weight.grad.shape == (7, 3)

    def test_out_of_range_raises_under_no_grad(self):
        layer = nn.Embedding(5, 2)
        with no_grad():
            with pytest.raises(IndexError):
                layer(np.array([7]))

    def test_lookup_matches_under_no_grad(self, rng):
        layer = nn.Embedding(9, 4)
        indices = np.array([[0, 3], [8, 1]])
        expected = layer(indices).data
        with no_grad():
            np.testing.assert_array_equal(layer(indices).data, expected)


class TestLayerNormModule:
    def test_learnable_parameters_exist(self):
        layer = nn.LayerNorm(8)
        assert layer.weight.data.shape == (8,)
        assert layer.bias.data.shape == (8,)

    def test_normalises_last_dim(self, rng):
        layer = nn.LayerNorm(16)
        out = layer(Tensor(rng.normal(loc=5, scale=3, size=(4, 16))))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-6)


class TestDropoutModule:
    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)

    def test_eval_mode_is_identity(self, rng):
        layer = nn.Dropout(0.9)
        layer.eval()
        x = Tensor(rng.normal(size=(5, 5)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_train_mode_drops_values(self):
        layer = nn.Dropout(0.5, seed=1)
        out = layer(Tensor(np.ones((50, 50))))
        assert (out.data == 0).any()


class TestMultiHeadSelfAttention:
    def test_requires_divisible_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(hidden_size=10, num_heads=3)

    def test_output_shape(self, rng):
        layer = nn.MultiHeadSelfAttention(hidden_size=16, num_heads=4, dropout=0.0)
        x = Tensor(rng.normal(size=(2, 7, 16)))
        assert layer(x).shape == (2, 7, 16)

    def test_padding_mask_blocks_information(self, rng):
        layer = nn.MultiHeadSelfAttention(hidden_size=8, num_heads=2, dropout=0.0)
        layer.eval()
        x = rng.normal(size=(1, 4, 8))
        mask = np.array([[True, True, False, False]])
        base = layer(Tensor(x), attention_mask=mask).data
        # Changing the masked positions must not change the unmasked outputs.
        perturbed = x.copy()
        perturbed[0, 2:] += 100.0
        out = layer(Tensor(perturbed), attention_mask=mask).data
        np.testing.assert_allclose(base[0, :2], out[0, :2], atol=1e-8)

    def test_attention_bias_changes_output(self, rng):
        layer = nn.MultiHeadSelfAttention(hidden_size=8, num_heads=2, dropout=0.0)
        layer.eval()
        x = Tensor(rng.normal(size=(1, 3, 8)))
        bias = Tensor(np.full((1, 2, 3, 3), 5.0) * np.tri(3))
        assert not np.allclose(layer(x).data, layer(x, attention_bias=bias).data)

    def test_gradients_reach_projections(self, rng):
        layer = nn.MultiHeadSelfAttention(hidden_size=8, num_heads=2, dropout=0.0)
        layer(Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)).sum().backward()
        assert layer.qkv.weight.grad is not None
        assert layer.output.weight.grad is not None

    def test_dropout_streams_differ_across_layers(self):
        shared = np.random.default_rng(0)
        first = nn.MultiHeadSelfAttention(hidden_size=8, num_heads=2, dropout=0.5, rng=shared)
        second = nn.MultiHeadSelfAttention(hidden_size=8, num_heads=2, dropout=0.5, rng=shared)
        assert not np.array_equal(
            first.attn_dropout._rng.random(100), second.attn_dropout._rng.random(100)
        )

    def test_fused_and_unfused_agree_with_dropout(self, rng):
        x = rng.normal(size=(2, 5, 8))
        outs = []
        for fused in (True, False):
            layer = nn.MultiHeadSelfAttention(
                hidden_size=8, num_heads=2, dropout=0.4, rng=np.random.default_rng(11)
            )
            layer.fused = fused
            layer.train()
            outs.append(layer(Tensor(x.copy())).data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestTransformerEncoderLayer:
    def test_output_shape_preserved(self, rng):
        layer = nn.TransformerEncoderLayer(16, 4, 32, dropout=0.0)
        x = Tensor(rng.normal(size=(3, 5, 16)))
        assert layer(x).shape == (3, 5, 16)

    def test_eval_deterministic(self, rng):
        layer = nn.TransformerEncoderLayer(8, 2, 16, dropout=0.3)
        layer.eval()
        x = Tensor(rng.normal(size=(1, 4, 8)))
        np.testing.assert_allclose(layer(x).data, layer(x).data)

    def test_train_with_dropout_stochastic(self, rng):
        layer = nn.TransformerEncoderLayer(8, 2, 16, dropout=0.5)
        layer.train()
        x = Tensor(rng.normal(size=(1, 4, 8)))
        assert not np.allclose(layer(x).data, layer(x).data)

    def test_all_parameters_receive_gradients(self, rng):
        layer = nn.TransformerEncoderLayer(8, 2, 16, dropout=0.0)
        layer(Tensor(rng.normal(size=(2, 4, 8)))).sum().backward()
        missing = [name for name, p in layer.named_parameters() if p.grad is None]
        assert not missing

    def test_dropout_streams_decorrelated(self):
        shared = np.random.default_rng(0)
        first = nn.TransformerEncoderLayer(8, 2, 16, dropout=0.5, rng=shared)
        second = nn.TransformerEncoderLayer(8, 2, 16, dropout=0.5, rng=shared)
        draws = [
            module._rng.random(100)
            for module in (
                first.attention.attn_dropout, first.dropout,
                second.attention.attn_dropout, second.dropout,
            )
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])
