"""The KGLink deep-learning model (Part 2, steps 2–3).

``KGLinkModel`` wraps a MiniBERT/MiniDeBERTa encoder and adds

* a classification head over the per-column ``[CLS]`` representations
  composed with the per-column *feature vectors* (Eq. 15–16);
* the vocabulary-space projection used by the column-type representation
  generation sub-task (Eq. 13–14) — the encoder's MLM head plays the role of
  ``W_o``.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.plm.model import MiniBERT

__all__ = ["KGLinkModel"]


class KGLinkModel(nn.Module):
    """Encoder + composition + classification heads of KGLink.

    Parameters
    ----------
    encoder:
        A MiniBERT (or MiniDeBERTa) encoder, usually MLM pre-trained.
    num_labels:
        Size of the dataset's column-type label set ``|L|``.
    use_feature_vector:
        When false, the composition function ``phi`` reduces to the identity on
        the ``[CLS]`` vector (the ``KGLink w/o fv`` ablation).
    """

    def __init__(self, encoder: MiniBERT, num_labels: int, use_feature_vector: bool = True,
                 seed: int = 0):
        super().__init__()
        if num_labels <= 0:
            raise ValueError("num_labels must be positive")
        rng = np.random.default_rng(seed)
        hidden = encoder.hidden_size
        self.encoder = encoder
        self.num_labels = num_labels
        self.use_feature_vector = use_feature_vector
        self.feature_projection = nn.Linear(hidden, hidden, rng=rng)
        self.composition_norm = nn.LayerNorm(hidden)
        self.classifier = nn.Linear(hidden, num_labels, rng=rng)

    # ------------------------------------------------------------------ #
    def encode(self, token_ids: np.ndarray, attention_mask: np.ndarray) -> Tensor:
        """Contextual hidden states for a batch of serialised tables."""
        return self.encoder(token_ids, attention_mask=attention_mask)

    @staticmethod
    def gather_positions(hidden: Tensor, batch_indices: np.ndarray,
                         positions: np.ndarray) -> Tensor:
        """Gather ``hidden[b, p, :]`` for parallel arrays of ``b`` and ``p``."""
        return hidden[np.asarray(batch_indices, dtype=np.int64),
                      np.asarray(positions, dtype=np.int64), :]

    def feature_vectors(self, feature_token_ids: np.ndarray,
                        feature_attention: np.ndarray) -> Tensor:
        """Encode the per-column feature sequences and pool their first token."""
        hidden = self.encoder(feature_token_ids, attention_mask=feature_attention)
        return hidden[:, 0, :]

    def compose(self, cls_vectors: Tensor, feature_vectors: Tensor | None) -> Tensor:
        """The composition function ``phi(Y_cls, Y_fv)`` of Eq. 15."""
        if feature_vectors is None or not self.use_feature_vector:
            return cls_vectors
        return self.composition_norm(cls_vectors + self.feature_projection(feature_vectors))

    def classification_logits(self, column_vectors: Tensor) -> Tensor:
        """Project composed column vectors to the label space (Eq. 16's ``Y'_col``)."""
        return self.classifier(column_vectors)

    def vocabulary_logits(self, vectors: Tensor) -> Tensor:
        """Project vectors to vocabulary space through the encoder's MLM head (Eq. 14)."""
        return self.encoder.vocabulary_logits(vectors)

    # ------------------------------------------------------------------ #
    def predict_labels(self, logits: Tensor) -> np.ndarray:
        """Arg-max label indices from classification logits."""
        return np.argmax(logits.data, axis=-1)
