"""Tests of :func:`repro.nn.skip_init`, the draw-free construction mode.

A model built inside the block has zero weights until ``load_state_dict``
fills them; once loaded it must be indistinguishable from a model built the
ordinary way, and the mode must never leak into other threads or out of the
block.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.core.model import KGLinkModel
from repro.nn.tensor import no_grad
from repro.plm.config import PLMConfig
from repro.plm.model import create_encoder

TINY_PLM = PLMConfig(vocab_size=60, hidden_size=16, num_layers=2, num_heads=2,
                     intermediate_size=24, max_position_embeddings=20, seed=3)


def _model(relative_attention: bool = False, seed: int = 3) -> KGLinkModel:
    config = PLMConfig(**{**vars(TINY_PLM), "relative_attention": relative_attention,
                          "seed": seed})
    return KGLinkModel(create_encoder(config), num_labels=5, seed=seed)


def _logits(model: KGLinkModel) -> np.ndarray:
    rng = np.random.default_rng(11)
    token_ids = rng.integers(0, TINY_PLM.vocab_size, size=(3, 12))
    mask = np.ones_like(token_ids, dtype=bool)
    mask[1, 8:] = False
    model.eval()
    with no_grad():
        hidden = model.encode(token_ids, mask)
        vectors = model.gather_positions(hidden, np.arange(3), np.zeros(3))
        features = model.feature_vectors(token_ids[:, :6], mask[:, :6])
        return model.classification_logits(model.compose(vectors, features)).data


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("relative_attention", [False, True], ids=["bert", "deberta"])
def test_loaded_model_predicts_like_an_initialised_one(relative_attention):
    state = _model(relative_attention).state_dict()
    # Built normally from a different seed: every weight differs until loaded.
    drawn = _model(relative_attention, seed=0)
    drawn.load_state_dict(state)
    with nn.skip_init():
        skipped = _model(relative_attention)
    assert all(not param.data.any() for _, param in skipped.named_parameters()
               if param.data.ndim == 2)
    skipped.load_state_dict(state)
    assert np.array_equal(_logits(skipped), _logits(drawn))
    for (name, a), (other, b) in zip(skipped.named_parameters(),
                                     drawn.named_parameters(), strict=True):
        assert name == other
        assert a.data.dtype == b.data.dtype
        assert np.array_equal(a.data, b.data)


def test_construction_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with nn.skip_init():
        nn.Linear(4, 3, rng=rng)
        nn.Embedding(7, 4, rng=rng)
        nn.MultiHeadSelfAttention(4, 2, rng=rng)
    assert rng.bit_generator.state == before


def test_other_threads_get_their_seeded_weights():
    expected = _model().state_dict()
    built = {}
    inside = threading.Event()
    release = threading.Event()

    def hold_the_mode_open():
        with nn.skip_init():
            inside.set()
            release.wait(timeout=30)

    holder = threading.Thread(target=hold_the_mode_open)
    holder.start()
    try:
        assert inside.wait(timeout=30)
        worker = threading.Thread(target=lambda: built.update(model=_model()))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    state = built["model"].state_dict()
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(state[name], value), name


def test_mode_restored_after_an_exception():
    seeded = nn.Linear(4, 3, rng=np.random.default_rng(2)).weight.data
    with pytest.raises(RuntimeError, match="boom"):
        with nn.skip_init():
            raise RuntimeError("boom")
    assert np.array_equal(nn.Linear(4, 3, rng=np.random.default_rng(2)).weight.data, seeded)
    assert seeded.any()


def test_nested_blocks_restore_the_outer_mode():
    with nn.skip_init():
        with nn.skip_init():
            pass
        assert not nn.Embedding(5, 3).weight.data.any()
    assert nn.Embedding(5, 3).weight.data.any()


def test_state_dict_missing_a_parameter_fails_to_load():
    state = _model().state_dict()
    dropped = "classifier.weight"
    del state[dropped]
    with nn.skip_init():
        model = _model()
    with pytest.raises(KeyError, match=dropped):
        model.load_state_dict(state)
