"""Tests of the KGLink model heads and composition function."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import KGLinkModel
from repro.nn.tensor import Tensor
from repro.plm.config import PLMConfig
from repro.plm.model import MiniBERT


@pytest.fixture(scope="module")
def encoder():
    model = MiniBERT(PLMConfig(vocab_size=80, hidden_size=32, num_layers=1, num_heads=2,
                               intermediate_size=48, max_position_embeddings=64, seed=4))
    model.eval()
    return model


@pytest.fixture(scope="module")
def model(encoder):
    kglink = KGLinkModel(encoder, num_labels=7, use_feature_vector=True, seed=4)
    kglink.eval()
    return kglink


class TestConstruction:
    def test_rejects_non_positive_labels(self, encoder):
        with pytest.raises(ValueError):
            KGLinkModel(encoder, num_labels=0)

    def test_encoder_parameters_included(self, model, encoder):
        encoder_ids = {id(param) for param in encoder.parameters()}
        model_ids = {id(param) for param in model.parameters()}
        assert encoder_ids < model_ids


class TestForwardPieces:
    def test_encode_shape(self, model, rng):
        hidden = model.encode(rng.integers(0, 80, size=(2, 10)), np.ones((2, 10), dtype=bool))
        assert hidden.shape == (2, 10, 32)

    def test_gather_positions(self, model, rng):
        hidden = model.encode(rng.integers(0, 80, size=(2, 10)), np.ones((2, 10), dtype=bool))
        gathered = model.gather_positions(hidden, np.array([0, 0, 1]), np.array([0, 3, 5]))
        assert gathered.shape == (3, 32)
        np.testing.assert_allclose(gathered.data[0], hidden.data[0, 0])
        np.testing.assert_allclose(gathered.data[2], hidden.data[1, 5])

    def test_feature_vectors_shape(self, model, rng):
        ids = rng.integers(0, 80, size=(5, 12))
        vectors = model.feature_vectors(ids, np.ones((5, 12), dtype=bool))
        assert vectors.shape == (5, 32)

    def test_compose_with_features_changes_output(self, model, rng):
        cls_vectors = Tensor(rng.normal(size=(4, 32)))
        feature_vectors = Tensor(rng.normal(size=(4, 32)))
        combined = model.compose(cls_vectors, feature_vectors)
        assert combined.shape == (4, 32)
        assert not np.allclose(combined.data, cls_vectors.data)

    def test_compose_identity_without_features(self, encoder, rng):
        plain = KGLinkModel(encoder, num_labels=3, use_feature_vector=False)
        cls_vectors = Tensor(rng.normal(size=(2, 32)))
        combined = plain.compose(cls_vectors, Tensor(rng.normal(size=(2, 32))))
        np.testing.assert_allclose(combined.data, cls_vectors.data)

    def test_compose_handles_none_features(self, model, rng):
        cls_vectors = Tensor(rng.normal(size=(2, 32)))
        np.testing.assert_allclose(model.compose(cls_vectors, None).data, cls_vectors.data)

    def test_classification_logits_shape(self, model, rng):
        logits = model.classification_logits(Tensor(rng.normal(size=(6, 32))))
        assert logits.shape == (6, 7)

    def test_vocabulary_logits_shape(self, model, rng):
        logits = model.vocabulary_logits(Tensor(rng.normal(size=(3, 32))))
        assert logits.shape == (3, 80)


class TestPrediction:
    def test_predict_labels_argmax(self, model):
        logits = Tensor(np.array([[0.1, 5.0, 0.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0, 0, 0]]))
        np.testing.assert_array_equal(model.predict_labels(logits), [1, 0])
