"""Parity and gradcheck tests for the fused attention node.

The fused :func:`~repro.nn.functional.scaled_dot_product_attention` must be
indistinguishable from the unfused chain of primitive ops (scale → bias →
mask → softmax → dropout → weighted sum) in both the forward values and every
gradient, and must pass numeric gradcheck on its hand-derived backward.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import FLOAT32_POLICY, FLOAT64_POLICY, Tensor, dtype_policy, no_grad

from tests.nn.test_tensor import numerical_gradient

BATCH, HEADS, SEQ, DIM = 2, 3, 5, 4


def _inputs(rng, requires_grad=True):
    shape = (BATCH, HEADS, SEQ, DIM)
    q = Tensor(rng.normal(size=shape), requires_grad=requires_grad)
    k = Tensor(rng.normal(size=shape), requires_grad=requires_grad)
    v = Tensor(rng.normal(size=shape), requires_grad=requires_grad)
    return q, k, v


def _unfused(q, k, v, mask=None, bias=None):
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / float(np.sqrt(DIM)))
    if bias is not None:
        scores = scores + bias
    if mask is not None:
        blocked = ~np.asarray(mask, dtype=bool)[:, None, None, :]
        scores = F.masked_fill(scores, np.broadcast_to(blocked, scores.shape), -1e9)
    return F.softmax(scores, axis=-1) @ v


def _mask():
    mask = np.ones((BATCH, SEQ), dtype=bool)
    mask[0, 3:] = False
    mask[1, 4:] = False
    return mask


class TestForwardParity:
    @pytest.mark.parametrize("with_mask", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_unfused_chain(self, rng, with_mask, with_bias):
        q, k, v = _inputs(rng)
        mask = _mask() if with_mask else None
        bias = Tensor(rng.normal(size=(1, HEADS, SEQ, SEQ))) if with_bias else None
        fused = F.scaled_dot_product_attention(
            q, k, v, attention_mask=mask, attention_bias=bias
        )
        reference = _unfused(q, k, v, mask=mask, bias=bias)
        np.testing.assert_allclose(fused.data, reference.data, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parity_across_dtypes(self, rng, dtype):
        policy = FLOAT64_POLICY if dtype == np.float64 else FLOAT32_POLICY
        with dtype_policy(policy):
            q, k, v = _inputs(rng)
            bias = Tensor(rng.normal(size=(1, HEADS, SEQ, SEQ)))
            mask = _mask()
            fused = F.scaled_dot_product_attention(
                q, k, v, attention_mask=mask, attention_bias=bias
            )
            reference = _unfused(q, k, v, mask=mask, bias=bias)
            assert fused.dtype == dtype
            np.testing.assert_allclose(fused.data, reference.data, atol=1e-6)

    def test_blocked_positions_get_zero_weight(self, rng):
        q, k, v = _inputs(rng, requires_grad=False)
        mask = _mask()
        perturbed = Tensor(v.data.copy())
        perturbed.data[0, :, 3:, :] += 100.0  # masked-out key rows of table 0
        base = F.scaled_dot_product_attention(q, k, v, attention_mask=mask)
        out = F.scaled_dot_product_attention(q, k, perturbed, attention_mask=mask)
        np.testing.assert_allclose(base.data[0, :, :3], out.data[0, :, :3], atol=1e-8)

    def test_no_graph_under_no_grad(self, rng):
        q, k, v = _inputs(rng)
        with no_grad():
            out = F.scaled_dot_product_attention(q, k, v)
        assert not out.requires_grad and out._backward is None


class TestGradientParity:
    @pytest.fixture(autouse=True)
    def _float64_oracle(self):
        # Central finite differences need float64; the fused-vs-unfused parity
        # tests elsewhere in this module stay on the default float32 policy.
        with dtype_policy(FLOAT64_POLICY):
            yield

    def test_gradients_match_unfused_chain(self, rng):
        mask = _mask()
        grads = {}
        for fused in (True, False):
            q, k, v = _inputs(np.random.default_rng(5))
            bias = Tensor(np.random.default_rng(6).normal(size=(1, HEADS, SEQ, SEQ)),
                          requires_grad=True)
            if fused:
                out = F.scaled_dot_product_attention(
                    q, k, v, attention_mask=mask, attention_bias=bias
                )
            else:
                out = _unfused(q, k, v, mask=mask, bias=bias)
            (out * out).sum().backward()
            grads[fused] = (q.grad, k.grad, v.grad, bias.grad)
        for fused_grad, reference_grad in zip(grads[True], grads[False], strict=True):
            np.testing.assert_allclose(fused_grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("argument", ["q", "k", "v", "bias"])
    def test_numeric_gradcheck(self, rng, argument):
        mask = _mask()
        base = {
            "q": rng.normal(size=(BATCH, HEADS, SEQ, DIM)),
            "k": rng.normal(size=(BATCH, HEADS, SEQ, DIM)),
            "v": rng.normal(size=(BATCH, HEADS, SEQ, DIM)),
            "bias": rng.normal(size=(1, HEADS, SEQ, SEQ)),
        }

        def loss_for(array: np.ndarray) -> Tensor:
            tensors = {
                name: Tensor(array if name == argument else value)
                for name, value in base.items()
            }
            out = F.scaled_dot_product_attention(
                tensors["q"], tensors["k"], tensors["v"],
                attention_mask=mask, attention_bias=tensors["bias"],
            )
            return (out * out).sum()

        probe = Tensor(base[argument].copy(), requires_grad=True)
        others = {
            name: Tensor(value) for name, value in base.items() if name != argument
        }
        arguments = dict(others)
        arguments[argument] = probe
        out = F.scaled_dot_product_attention(
            arguments["q"], arguments["k"], arguments["v"],
            attention_mask=mask, attention_bias=arguments["bias"],
        )
        (out * out).sum().backward()
        numeric = numerical_gradient(
            lambda a: float(loss_for(a).data), base[argument].copy()
        )
        np.testing.assert_allclose(probe.grad, numeric, atol=1e-5)

    def test_fully_masked_row_blocks_gradients(self, rng):
        """A fully-padded sequence must contribute no q/k/bias gradient.

        The softmax over an all-blocked row degenerates to uniform weights
        (not zeros), so the fused backward zeroes it explicitly — matching
        the unfused chain, where masked_fill blocks every blocked position.
        """
        mask = np.ones((BATCH, SEQ), dtype=bool)
        mask[0, :] = False  # table 0 entirely padding
        grads = {}
        for fused in (True, False):
            q, k, v = _inputs(np.random.default_rng(8))
            bias = Tensor(np.random.default_rng(9).normal(size=(1, HEADS, SEQ, SEQ)),
                          requires_grad=True)
            if fused:
                out = F.scaled_dot_product_attention(
                    q, k, v, attention_mask=mask, attention_bias=bias
                )
            else:
                out = _unfused(q, k, v, mask=mask, bias=bias)
            (out * out).sum().backward()
            grads[fused] = (q.grad, k.grad, v.grad, bias.grad)
        for fused_grad, reference_grad in zip(grads[True], grads[False], strict=True):
            np.testing.assert_allclose(fused_grad, reference_grad, atol=1e-9)
        np.testing.assert_array_equal(grads[True][0][0], 0.0)  # q grad, table 0
        np.testing.assert_array_equal(grads[True][1][0], 0.0)  # k grad, table 0

    def test_dropout_backward_matches_unfused(self):
        x = np.random.default_rng(2).normal(size=(BATCH, 6, 16))
        grads = {}
        for fused in (True, False):
            layer = nn.MultiHeadSelfAttention(
                hidden_size=16, num_heads=4, dropout=0.35, rng=np.random.default_rng(9)
            )
            layer.fused = fused
            layer.train()
            inp = Tensor(x.copy(), requires_grad=True)
            layer(inp).sum().backward()
            grads[fused] = (inp.grad, layer.qkv.weight.grad, layer.output.weight.grad)
        for fused_grad, reference_grad in zip(grads[True], grads[False], strict=True):
            np.testing.assert_allclose(fused_grad, reference_grad, atol=1e-9)


class TestValidation:
    def test_rejects_mismatched_head_dim(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 3, 4)))
        k = Tensor(rng.normal(size=(1, 1, 3, 5)))
        with pytest.raises(ValueError):
            F.scaled_dot_product_attention(q, k, k)

    def test_requires_rng_for_training_dropout(self, rng):
        q, k, v = _inputs(rng, requires_grad=False)
        with pytest.raises(ValueError):
            F.scaled_dot_product_attention(q, k, v, dropout_p=0.5, training=True)
