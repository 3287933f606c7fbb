"""Tests of the dtype policy, its float64 escape hatch and cross-policy I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import LayerNorm, Linear
from repro.nn.optim import SGD, AdamW
from repro.nn.serialization import (
    checkpoint_metadata,
    load_state_dict,
    save_state_dict,
)
from repro.nn.tensor import (
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    DtypePolicy,
    Tensor,
    accumulation_dtype,
    dtype_policy,
    get_default_dtype,
    get_dtype_policy,
    no_grad,
    set_dtype_policy,
)


@pytest.fixture()
def float64_default():
    with dtype_policy(FLOAT64_POLICY):
        yield


class TestDtypePolicy:
    def test_default_policy_is_float32_compute_float64_accumulate(self):
        policy = get_dtype_policy()
        assert policy.compute == np.dtype(np.float32)
        assert policy.accumulate == np.dtype(np.float64)
        assert get_default_dtype() == np.dtype(np.float32)
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_policy_is_immutable_and_comparable(self):
        policy = DtypePolicy(np.float32, np.float64)
        assert policy == FLOAT32_POLICY
        assert policy != FLOAT64_POLICY
        with pytest.raises(AttributeError):
            policy.compute = np.dtype(np.float64)

    def test_rejects_bad_dtypes(self):
        with pytest.raises(ValueError):
            DtypePolicy(np.int64, np.float64)
        with pytest.raises(ValueError):
            DtypePolicy(np.float32, np.float16)
        # accumulate must not be narrower than compute
        with pytest.raises(ValueError):
            DtypePolicy(np.float64, np.float32)
        with pytest.raises(TypeError):
            set_dtype_policy(np.float32)

    def test_set_returns_previous_policy(self):
        previous = set_dtype_policy(FLOAT64_POLICY)
        try:
            assert previous == FLOAT32_POLICY
            assert get_dtype_policy() == FLOAT64_POLICY
        finally:
            set_dtype_policy(previous)

    def test_context_manager_restores(self):
        assert get_dtype_policy() == FLOAT32_POLICY
        with dtype_policy(FLOAT64_POLICY):
            assert Tensor([1.0]).dtype == np.float64
        assert get_dtype_policy() == FLOAT32_POLICY

    def test_accumulation_dtype_never_narrows(self):
        assert accumulation_dtype(np.float32) == np.dtype(np.float64)
        assert accumulation_dtype(np.float64) == np.dtype(np.float64)


class TestDefaultDtypeShim:
    def test_tensor_creation_uses_policy_compute(self, float64_default):
        assert Tensor([1.0, 2.0]).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float64
        assert Tensor.zeros(2, 2).dtype == np.float64


class TestComputeDtypeFlowsThrough:
    def test_ops_stay_in_float32(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 3)))
        assert (x + 1.0).dtype == np.float32
        assert (x * 2.0).dtype == np.float32
        assert (x @ w).dtype == np.float32
        assert F.gelu(x).dtype == np.float32
        assert F.softmax(x).dtype == np.float32
        norm = LayerNorm(3)
        assert norm(x).dtype == np.float32

    def test_float64_model_survives_policy_restore(self):
        # A model built under the escape hatch keeps computing in float64
        # after the default policy is restored (outputs inherit input dtype).
        with dtype_policy(FLOAT64_POLICY):
            layer = Linear(4, 2)
            x = Tensor(np.ones((3, 4)))
        out = layer(x)  # forward pass runs after the restore
        assert out.dtype == np.float64
        assert F.gelu(out).dtype == np.float64
        assert (out * 2.0).dtype == np.float64

    def test_backward_works_in_float32(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward()
        assert x.grad is not None
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(x.grad, 3.0)

    def test_wide_softmax_stays_normalised(self):
        # The denominator is accumulated in float64, so even a very wide
        # softmax row normalises tightly in the float32 compute dtype.
        logits = Tensor(np.zeros((1, 100_000), dtype=np.float32))
        probs = F.softmax(logits).data
        assert probs.dtype == np.float32
        np.testing.assert_allclose(float(probs.sum(dtype=np.float64)), 1.0, atol=1e-6)

    def test_loss_scalars_accumulate_in_float64(self):
        logits = Tensor(np.zeros((4, 8), dtype=np.float32), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.data.dtype == np.float64
        loss.backward()
        assert logits.grad.dtype == np.float32


class TestNoGradFastPath:
    def test_no_graph_recorded_under_no_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = F.gelu((x @ x) + x)
        assert not out.requires_grad
        assert out._backward is None
        assert out._parents == ()

    def test_no_graph_without_grad_inputs(self):
        x = Tensor(np.ones((2, 2)))
        out = (x @ x).relu().sum()
        assert not out.requires_grad
        assert out._backward is None
        assert out._parents == ()

    def test_graph_still_recorded_when_training(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (x @ x).sum()
        assert out.requires_grad
        assert out._backward is not None
        assert out._parents != ()


class TestCheckpointDtype:
    def test_checkpoint_records_policy(self, tmp_path):
        layer = Linear(4, 2)
        path = save_state_dict(layer.state_dict(), tmp_path / "model.npz")
        meta = checkpoint_metadata(path)
        assert meta["compute_dtype"] == "float32"
        assert meta["accumulate_dtype"] == "float64"
        assert meta["format_version"] == 1

    def test_legacy_checkpoint_reports_float64(self, tmp_path):
        # Archives written before the metadata existed: plain arrays only.
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **{"weight": np.zeros((2, 2))})
        meta = checkpoint_metadata(path)
        assert meta["compute_dtype"] == "float64"
        assert meta["format_version"] == 0
        assert "weight" in load_state_dict(path)

    def test_reserved_prefix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state_dict({"__repro_meta__.weight": np.zeros(2)}, tmp_path / "bad.npz")

    def test_round_trip_float64_to_float32_to_float64(self, tmp_path):
        with dtype_policy(FLOAT64_POLICY):
            oracle = Linear(6, 3)
            path64 = save_state_dict(oracle.state_dict(), tmp_path / "f64.npz")
        assert checkpoint_metadata(path64)["compute_dtype"] == "float64"

        # float64 checkpoint -> float32 model (cast on load)
        model32 = Linear(6, 3)
        model32.load_state_dict(load_state_dict(path64))
        assert model32.weight.data.dtype == np.float32
        path32 = save_state_dict(model32.state_dict(), tmp_path / "f32.npz")
        assert checkpoint_metadata(path32)["compute_dtype"] == "float32"

        # float32 checkpoint -> float64 model again
        with dtype_policy(FLOAT64_POLICY):
            model64 = Linear(6, 3)
            model64.load_state_dict(load_state_dict(path32))
        assert model64.weight.data.dtype == np.float64
        # Values survive within float32 resolution (the narrowest hop).
        np.testing.assert_allclose(
            model64.weight.data, oracle.weight.data, rtol=1e-6, atol=1e-7
        )

    def test_load_state_dict_cast_argument(self, tmp_path):
        with dtype_policy(FLOAT64_POLICY):
            path = save_state_dict({"w": np.ones(3)}, tmp_path / "w.npz")
        assert load_state_dict(path)["w"].dtype == np.float64
        assert load_state_dict(path, cast="policy")["w"].dtype == np.float32
        assert load_state_dict(path, cast=np.float64)["w"].dtype == np.float64

    def test_module_to_escape_hatch(self):
        layer = Linear(4, 2)
        assert layer.weight.data.dtype == np.float32
        layer.to(np.float64)
        assert layer.weight.data.dtype == np.float64
        out = layer(Tensor(np.ones((2, 4), dtype=np.float64)))
        assert out.dtype == np.float64

    def test_module_to_rejects_non_float_dtypes(self):
        layer = Linear(4, 2)
        with pytest.raises(ValueError):
            layer.to(np.int64)
        with pytest.raises(ValueError):
            layer.to(np.float16)
        assert layer.weight.data.dtype == np.float32


class TestOptimizerStateDtype:
    def test_adamw_second_moments_in_accumulate_dtype(self):
        layer = Linear(4, 2)
        optimizer = AdamW(layer.parameters(), lr=1e-3)
        assert all(m.dtype == np.float32 for m in optimizer._m)
        assert all(v.dtype == np.float64 for v in optimizer._v)
        out = layer(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        optimizer.step()
        assert all(v.dtype == np.float64 for v in optimizer._v)
        assert layer.weight.data.dtype == np.float32

    def test_adamw_state_round_trip_restores_policy_dtypes(self):
        layer = Linear(4, 2)
        optimizer = AdamW(layer.parameters(), lr=2e-3)
        layer(Tensor(np.ones((2, 4)))).sum().backward()
        optimizer.step()
        state = optimizer.state_dict()
        # Simulate a checkpoint that stored everything in float32.
        downcast = {k: v.astype(np.float32) for k, v in state.items()}

        restored = AdamW(Linear(4, 2).parameters(), lr=1e-3)
        restored.load_state_dict(downcast)
        assert restored._step == 1
        assert restored.lr == pytest.approx(2e-3)
        assert all(m.dtype == np.float32 for m in restored._m)
        # Second moments come back in the accumulate dtype even though the
        # checkpoint stored them as float32.
        assert all(v.dtype == np.float64 for v in restored._v)

    def test_adamw_state_survives_npz(self, tmp_path):
        layer = Linear(3, 3)
        optimizer = AdamW(layer.parameters(), lr=1e-3)
        layer(Tensor(np.ones((1, 3)))).sum().backward()
        optimizer.step()
        path = save_state_dict(optimizer.state_dict(), tmp_path / "opt.npz")
        restored = AdamW(Linear(3, 3).parameters(), lr=1e-3)
        restored.load_state_dict(load_state_dict(path))
        for fresh, saved in zip(restored._v, optimizer._v, strict=True):
            np.testing.assert_allclose(fresh, saved)

    def test_sgd_velocity_matches_param_dtype(self):
        layer = Linear(4, 2)
        optimizer = SGD(layer.parameters(), lr=0.1, momentum=0.9)
        state = optimizer.state_dict()
        restored = SGD(Linear(4, 2).parameters(), lr=0.1, momentum=0.9)
        restored.load_state_dict({k: v.astype(np.float64) for k, v in state.items()})
        assert all(v.dtype == np.float32 for v in restored._velocity)

    def test_missing_state_key_raises(self):
        optimizer = AdamW(Linear(2, 2).parameters(), lr=1e-3)
        state = optimizer.state_dict()
        state.pop("v.0")
        fresh = AdamW(Linear(2, 2).parameters(), lr=1e-3)
        with pytest.raises(KeyError):
            fresh.load_state_dict(state)


class TestTrainerSmokeStepFloat32:
    @staticmethod
    def _one_training_step() -> float:
        from repro.core.model import KGLinkModel
        from repro.plm.config import PLMConfig
        from repro.plm.model import MiniBERT

        encoder = MiniBERT(PLMConfig(vocab_size=300, hidden_size=32, num_layers=1,
                                     num_heads=2, intermediate_size=64,
                                     max_position_embeddings=64, seed=5))
        model = KGLinkModel(encoder, num_labels=12, seed=5)
        optimizer = AdamW(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(9)
        token_ids = rng.integers(0, 300, size=(2, 48))
        mask = np.ones_like(token_ids, dtype=bool)
        labels = rng.integers(0, 12, size=(4,))
        batch_index = np.repeat(np.arange(2), 2)
        positions = np.tile(np.array([0, 24]), 2)

        hidden = model.encode(token_ids, mask)
        cls_vectors = model.gather_positions(hidden, batch_index, positions)
        logits = model.classification_logits(cls_vectors)
        loss = F.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    def test_float32_default_matches_float64_oracle_within_tolerance(self):
        loss32 = self._one_training_step()
        with dtype_policy(FLOAT64_POLICY):
            loss64 = self._one_training_step()
        assert np.isfinite(loss32)
        assert loss32 == pytest.approx(loss64, rel=1e-3, abs=1e-3)
