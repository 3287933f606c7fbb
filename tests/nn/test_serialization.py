"""Tests of model weight serialisation."""

from __future__ import annotations

import zipfile

import numpy as np

from repro import nn
from repro.nn.serialization import load_state_dict, save_state_dict


class TestStateDictFiles:
    def test_roundtrip_preserves_arrays(self, tmp_path):
        state = {"a.weight": np.arange(6.0).reshape(2, 3), "b.bias": np.zeros(4)}
        path = save_state_dict(state, tmp_path / "model.npz")
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_allclose(loaded["a.weight"], state["a.weight"])

    def test_extension_added_when_missing(self, tmp_path):
        path = save_state_dict({"x": np.ones(2)}, tmp_path / "weights")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_without_extension(self, tmp_path):
        save_state_dict({"x": np.ones(3)}, tmp_path / "weights")
        loaded = load_state_dict(tmp_path / "weights")
        np.testing.assert_allclose(loaded["x"], np.ones(3))

    def test_creates_parent_directories(self, tmp_path):
        path = save_state_dict({"x": np.ones(1)}, tmp_path / "deep" / "dir" / "w.npz")
        assert path.exists()

    def test_archive_is_stored_not_deflated(self, tmp_path):
        path = save_state_dict({"w": np.ones((4, 4), dtype=np.float32)}, tmp_path / "w.npz")
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_deflated_archive_still_loads(self, tmp_path):
        # Earlier versions wrote checkpoints with np.savez_compressed.
        state = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
        stored = save_state_dict(state, tmp_path / "stored.npz")
        with np.load(stored) as archive:
            np.savez_compressed(tmp_path / "deflated.npz",
                                **{key: archive[key] for key in archive.files})
        loaded = load_state_dict(tmp_path / "deflated.npz")
        assert loaded.keys() == state.keys()
        assert np.array_equal(loaded["w"], state["w"])
        assert loaded["w"].dtype == np.float32


class TestModuleSaveLoad:
    def test_module_roundtrip(self, tmp_path):
        source = nn.Linear(5, 3)
        path = save_state_dict(source.state_dict(), tmp_path / "linear.npz")
        target = nn.Linear(5, 3, rng=np.random.default_rng(123))
        target.load_state_dict(load_state_dict(path))
        np.testing.assert_allclose(source.weight.data, target.weight.data)
        np.testing.assert_allclose(source.bias.data, target.bias.data)

    def test_nested_module_roundtrip(self, tmp_path):
        source = nn.TransformerEncoderLayer(8, 2, 16)
        path = save_state_dict(source.state_dict(), tmp_path / "layer.npz")
        target = nn.TransformerEncoderLayer(8, 2, 16, rng=np.random.default_rng(7))
        target.load_state_dict(load_state_dict(path))
        for (name_a, param_a), (name_b, param_b) in zip(
            source.named_parameters(), target.named_parameters(), strict=True
        ):
            assert name_a == name_b
            np.testing.assert_allclose(param_a.data, param_b.data)
