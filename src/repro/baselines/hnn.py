"""HNN baseline: hybrid neural network using the first cell's KG type attribute.

HNN (Chen et al., IJCAI 2019) extends ColNet with inter-column semantics, but
— as the KGLink paper emphasises — it only links the **first cell** of each
target column to the KG and only uses the **type attribute** (``instance_of``)
of that single entity, which makes it fragile: a wrong first-cell link injects
noise, the fine-grained types reachable one hop away are never seen, and
numeric columns get no KG signal at all.

The reimplementation keeps exactly those restrictions.  Each column becomes a
feature vector of (a) a bag of ``instance_of`` types of the best entity linked
from the first cell and (b) simple character-level statistics of the cells,
classified with a two-layer perceptron trained on the ``repro.nn`` framework.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.baselines.base import BaseAnnotator
from repro.data.corpus import TableCorpus
from repro.data.table import Column
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.nn import functional as F
from repro.nn.tensor import no_grad

__all__ = ["HNNConfig", "HNNAnnotator"]


@dataclass(frozen=True)
class HNNConfig:
    """Hyper-parameters of the HNN baseline."""

    hidden_size: int = 64
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0


def _character_statistics(column: Column) -> np.ndarray:
    """Simple per-column statistics over the cell strings."""
    cells = [cell for cell in column.cells if cell]
    if not cells:
        return np.zeros(8)
    lengths = np.asarray([len(cell) for cell in cells], dtype=np.float64)
    digit_fraction = np.mean([
        sum(ch.isdigit() for ch in cell) / max(len(cell), 1) for cell in cells
    ])
    alpha_fraction = np.mean([
        sum(ch.isalpha() for ch in cell) / max(len(cell), 1) for cell in cells
    ])
    upper_fraction = np.mean([
        sum(ch.isupper() for ch in cell) / max(len(cell), 1) for cell in cells
    ])
    space_fraction = np.mean([cell.count(" ") / max(len(cell), 1) for cell in cells])
    distinct_ratio = len(set(cells)) / len(cells)
    return np.asarray([
        lengths.mean() / 32.0,
        lengths.std() / 32.0,
        digit_fraction,
        alpha_fraction,
        upper_fraction,
        space_fraction,
        distinct_ratio,
        len(cells) / 64.0,
    ])


class _MLP(nn.Module):
    """Two-layer perceptron classifier."""

    def __init__(self, input_size: int, hidden_size: int, num_labels: int, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.hidden = nn.Linear(input_size, hidden_size, rng=rng)
        self.output = nn.Linear(hidden_size, num_labels, rng=rng)

    def forward(self, features):
        return self.output(F.relu(self.hidden(features)))


class HNNAnnotator(BaseAnnotator):
    """First-cell KG-type + cell-statistics neural baseline."""

    name = "HNN"

    def __init__(self, graph: KnowledgeGraph, config: HNNConfig | None = None,
                 linker: EntityLinker | None = None):
        super().__init__()
        self.graph = graph
        self.config = config or HNNConfig()
        self.linker = linker or EntityLinker(graph, LinkerConfig(max_candidates=5))
        self.label_vocabulary: list[str] = []
        self._type_index: dict[str, int] = {}
        self.model: _MLP | None = None

    # ------------------------------------------------------------------ #
    def _column_features(self, column: Column) -> np.ndarray:
        type_features = np.zeros(len(self._type_index))
        first_cell = next((cell for cell in column.cells if cell.strip()), "")
        best = self.linker.best_link(first_cell) if first_cell else None
        if best is not None:
            for type_id in self.graph.types_of(best.doc_id):
                index = self._type_index.get(type_id)
                if index is not None:
                    type_features[index] = 1.0
        return np.concatenate([type_features, _character_statistics(column)])

    def _corpus_features(self, corpus: TableCorpus) -> tuple[np.ndarray, list[str | None]]:
        features = []
        labels: list[str | None] = []
        for table in corpus.tables:
            for column in table.columns:
                features.append(self._column_features(column))
                labels.append(column.label)
        return np.asarray(features), labels

    # ------------------------------------------------------------------ #
    def fit(self, train_corpus: TableCorpus, validation_corpus: TableCorpus | None = None) -> None:
        start = time.perf_counter()
        self.label_vocabulary = list(train_corpus.label_vocabulary)
        label_to_index = {label: i for i, label in enumerate(self.label_vocabulary)}
        self._type_index = {
            entity.entity_id: index
            for index, entity in enumerate(self.graph.type_entities())
        }

        features, labels = self._corpus_features(train_corpus)
        targets = np.asarray(
            [label_to_index.get(label, -100) if label else -100 for label in labels],
            dtype=np.int64,
        )
        keep = targets != -100
        features, targets = features[keep], targets[keep]

        self.model = _MLP(features.shape[1], self.config.hidden_size,
                          len(self.label_vocabulary), seed=self.config.seed)
        optimizer = nn.AdamW(self.model.parameters(), lr=self.config.learning_rate, eps=1e-6)
        rng = np.random.default_rng(self.config.seed)
        self.model.train()
        for _ in range(self.config.epochs):
            order = rng.permutation(len(features))
            for batch_start in range(0, len(features), self.config.batch_size):
                batch = order[batch_start : batch_start + self.config.batch_size]
                logits = self.model(nn.Tensor(features[batch]))
                loss = F.cross_entropy(logits, targets[batch])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        self.model.eval()
        self.fit_seconds = time.perf_counter() - start

    def predict_corpus(self, corpus: TableCorpus) -> tuple[list[str], list[str]]:
        if self.model is None:
            raise RuntimeError("HNNAnnotator must be fitted before prediction")
        features, labels = self._corpus_features(corpus)
        if len(labels) == 0:
            return [], []
        with no_grad():
            logits = self.model(nn.Tensor(features))
        predictions = np.argmax(logits.data, axis=-1)
        y_true: list[str] = []
        y_pred: list[str] = []
        for label, prediction in zip(labels, predictions, strict=True):
            if label is None:
                continue
            y_true.append(label)
            y_pred.append(self.label_vocabulary[int(prediction)])
        return y_true, y_pred
