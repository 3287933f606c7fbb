"""Training loop of KGLink's deep-learning component (Part 2, steps 2–3).

The trainer consumes tables that have already been processed by Part 1
(:class:`~repro.core.pipeline.KGCandidateExtractor`) and serialised by the
:class:`~repro.core.serialization.TableSerializer`, and optimises the
multi-task objective:

* cross entropy on the per-column classification logits (Eq. 16);
* the DMLM loss between the ``[MASK]`` token's vocabulary-space projection of
  the masked table and the label token's projection of the ground-truth table
  (Eq. 13–14);
* combined with trainable uncertainty weights (Eq. 17) or, for the Figure 8(a)
  sensitivity sweep, with fixed weights.

Training uses AdamW (eps 1e-6), an initial learning rate of 3e-5 linearly
decayed without warm-up, and early stopping on validation accuracy — all as
described in the paper's experimental settings (scaled-down epochs/batches are
chosen by the experiment profiles).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import KGLinkModel
from repro.core.pipeline import ProcessedTable
from repro.core.serialization import SerializedTable, TableSerializer
from repro.data.metrics import EvaluationResult, evaluate_predictions
from repro.nn import functional as F
from repro.nn.losses import DMLMLoss, FixedWeightLoss, UncertaintyWeightedLoss
from repro.nn.optim import AdamW, LinearDecaySchedule, clip_grad_norm
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad

__all__ = ["TrainingConfig", "TrainingHistory", "PreparedExample", "KGLinkTrainer"]

IGNORE_INDEX = -100


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the fine-tuning stage."""

    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 3e-5
    weight_decay: float = 0.01
    max_grad_norm: float = 1.0
    temperature: float = 2.0
    # Length-bucketed training batches: each epoch's shuffle happens within
    # serialized-length buckets (and the batch order is re-shuffled), so
    # batches pad to similar lengths.  Off by default: the plain permutation
    # keeps seeded training trajectories bitwise-stable.
    length_bucketing: bool = False
    use_mask_task: bool = True
    use_feature_vector: bool = True
    use_candidate_types: bool = True
    early_stopping_patience: int = 3
    fixed_log_sigma0_sq: float | None = None
    fixed_log_sigma1_sq: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size <= 0:
            raise ValueError("epochs must be >= 0 and batch_size positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Curves recorded during training (used by Figures 8 and 9)."""

    step_losses: list[float] = field(default_factory=list)
    classification_losses: list[float] = field(default_factory=list)
    dmlm_losses: list[float] = field(default_factory=list)
    sigma0_trajectory: list[float] = field(default_factory=list)
    sigma1_trajectory: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)
    epochs_completed: int = 0
    training_seconds: float = 0.0
    stopped_early: bool = False


@dataclass
class PreparedExample:
    """Everything the trainer needs for one table."""

    table_id: str
    masked: SerializedTable
    ground_truth: SerializedTable | None
    label_indices: np.ndarray
    true_labels: list[str | None]


class KGLinkTrainer:
    """Multi-task fine-tuning and prediction for KGLink."""

    def __init__(
        self,
        model: KGLinkModel,
        serializer: TableSerializer,
        label_vocabulary: list[str],
        config: TrainingConfig | None = None,
    ):
        self.model = model
        self.serializer = serializer
        self.config = config or TrainingConfig()
        self.label_vocabulary = list(label_vocabulary)
        self._label_to_index = {label: i for i, label in enumerate(self.label_vocabulary)}
        self.rng = np.random.default_rng(self.config.seed)

        self.dmlm_loss = DMLMLoss(temperature=self.config.temperature)
        if self.config.fixed_log_sigma0_sq is not None or self.config.fixed_log_sigma1_sq is not None:
            self.combined_loss = FixedWeightLoss(
                self.config.fixed_log_sigma0_sq or 0.0,
                self.config.fixed_log_sigma1_sq or 0.0,
            )
        else:
            self.combined_loss = UncertaintyWeightedLoss()
        self.history = TrainingHistory()
        # Padding statistics of the most recent predict() call (bucket sizes,
        # padded vs useful token counts); None until predict() runs.
        self.last_bucket_stats: dict | None = None

    # ------------------------------------------------------------------ #
    # example preparation
    # ------------------------------------------------------------------ #
    def prepare_example(self, processed: ProcessedTable, with_ground_truth: bool | None = None
                        ) -> PreparedExample:
        """Serialise one processed table into trainer inputs."""
        if with_ground_truth is None:
            with_ground_truth = self.config.use_mask_task
        masked = self.serializer.serialize(
            processed,
            ground_truth=False,
            use_mask_token=self.config.use_mask_task,
            use_candidate_types=self.config.use_candidate_types,
        )
        ground_truth = None
        if with_ground_truth and self.config.use_mask_task:
            ground_truth = self.serializer.serialize(
                processed,
                ground_truth=True,
                use_mask_token=True,
                use_candidate_types=self.config.use_candidate_types,
            )
        labels = np.asarray(
            [
                self._label_to_index.get(label, IGNORE_INDEX) if label is not None else IGNORE_INDEX
                for label in masked.column_labels
            ],
            dtype=np.int64,
        )
        return PreparedExample(
            table_id=processed.original.table_id,
            masked=masked,
            ground_truth=ground_truth,
            label_indices=labels,
            true_labels=list(masked.column_labels),
        )

    def prepare_examples(self, processed_tables: list[ProcessedTable],
                         with_ground_truth: bool | None = None) -> list[PreparedExample]:
        """Serialise many processed tables."""
        return [self.prepare_example(p, with_ground_truth) for p in processed_tables]

    # ------------------------------------------------------------------ #
    # batching helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pad_batch(serialized: list[SerializedTable]) -> tuple[np.ndarray, np.ndarray]:
        max_len = max(item.sequence_length for item in serialized)
        token_ids = np.zeros((len(serialized), max_len), dtype=np.int64)
        attention = np.zeros((len(serialized), max_len), dtype=bool)
        for row, item in enumerate(serialized):
            length = item.sequence_length
            token_ids[row, :length] = item.token_ids
            attention[row, :length] = item.attention_mask
        return token_ids, attention

    def _flatten_columns(self, batch: list[PreparedExample]):
        """Flatten per-table column metadata into parallel arrays."""
        batch_indices: list[int] = []
        cls_positions: list[int] = []
        labels: list[int] = []
        mask_batch_indices: list[int] = []
        mask_positions: list[int] = []
        gt_positions: list[int] = []
        gt_batch_indices: list[int] = []
        feature_blocks: list[np.ndarray] = []
        feature_attention_blocks: list[np.ndarray] = []
        gt_table_count = 0
        for table_index, example in enumerate(batch):
            masked = example.masked
            for col, cls_pos in enumerate(masked.cls_positions):
                batch_indices.append(table_index)
                cls_positions.append(cls_pos)
                labels.append(int(example.label_indices[col]))
            feature_blocks.append(masked.feature_token_ids)
            feature_attention_blocks.append(masked.feature_attention_mask)
            if example.ground_truth is not None:
                for col, mask_pos in enumerate(masked.mask_positions):
                    gt_pos = example.ground_truth.label_positions[col]
                    if mask_pos >= 0 and gt_pos >= 0 and example.label_indices[col] != IGNORE_INDEX:
                        mask_batch_indices.append(table_index)
                        mask_positions.append(mask_pos)
                        gt_positions.append(gt_pos)
                        # Row of this table in the (denser) ground-truth batch.
                        gt_batch_indices.append(gt_table_count)
                gt_table_count += 1
        features = np.concatenate(feature_blocks, axis=0) if feature_blocks else None
        feature_attention = (
            np.concatenate(feature_attention_blocks, axis=0) if feature_attention_blocks else None
        )
        return {
            "batch_indices": np.asarray(batch_indices, dtype=np.int64),
            "cls_positions": np.asarray(cls_positions, dtype=np.int64),
            "labels": np.asarray(labels, dtype=np.int64),
            "mask_batch_indices": np.asarray(mask_batch_indices, dtype=np.int64),
            "mask_positions": np.asarray(mask_positions, dtype=np.int64),
            "gt_positions": np.asarray(gt_positions, dtype=np.int64),
            "gt_batch_indices": np.asarray(gt_batch_indices, dtype=np.int64),
            "features": features,
            "feature_attention": feature_attention,
        }

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    #: Rows per bucketed feature-encoder call (inference path).
    FEATURE_BUCKET_SIZE = 64

    def _feature_vectors(self, features: np.ndarray, feature_attention: np.ndarray):
        """Per-column feature vectors, length-bucketed on the inference path.

        The serializer pads every column's feature block to the global
        ``max_feature_tokens`` width; most feature sequences are much
        shorter.  Under ``no_grad`` the column rows are sorted by true length
        and encoded in chunks trimmed to each chunk's own maximum, then
        restored to the original order — the encoder attention-masks padding,
        so the vectors match the single full-width call up to float32
        blocking noise (predictions are invariant).  Training keeps that
        single call so the dropout draws (and thus seeded training
        trajectories) are unchanged.
        """
        if (
            self.model.training
            or is_grad_enabled()
            or features.shape[0] <= 1
        ):
            return self.model.feature_vectors(features, feature_attention)
        lengths = feature_attention.sum(axis=1).astype(np.int64)
        order = np.argsort(lengths, kind="stable")
        chunks: list[np.ndarray] = []
        for start in range(0, len(order), self.FEATURE_BUCKET_SIZE):
            idx = order[start : start + self.FEATURE_BUCKET_SIZE]
            width = max(int(lengths[idx].max()), 1)
            out = self.model.feature_vectors(
                features[idx, :width], feature_attention[idx, :width]
            )
            chunks.append(out.data)
        stacked = np.concatenate(chunks, axis=0)
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        return Tensor(stacked[inverse])

    def _classification_forward(self, batch: list[PreparedExample], flat: dict):
        token_ids, attention = self._pad_batch([example.masked for example in batch])
        hidden = self.model.encode(token_ids, attention)
        cls_vectors = self.model.gather_positions(
            hidden, flat["batch_indices"], flat["cls_positions"]
        )
        feature_vectors = None
        if self.config.use_feature_vector and flat["features"] is not None:
            feature_vectors = self._feature_vectors(
                flat["features"], flat["feature_attention"]
            )
        combined = self.model.compose(cls_vectors, feature_vectors)
        logits = self.model.classification_logits(combined)
        return hidden, logits

    def _dmlm_forward(self, batch: list[PreparedExample], flat: dict, hidden):
        """Student/teacher vocabulary logits for the representation-generation task."""
        if flat["mask_positions"].size == 0:
            return None
        student_vectors = self.model.gather_positions(
            hidden, flat["mask_batch_indices"], flat["mask_positions"]
        )
        student_logits = self.model.vocabulary_logits(student_vectors)

        with no_grad():
            gt_examples = [example.ground_truth for example in batch if example.ground_truth]
            token_ids, attention = self._pad_batch(gt_examples)
            gt_hidden = self.model.encode(token_ids, attention)
            teacher_vectors = self.model.gather_positions(
                gt_hidden, flat["gt_batch_indices"], flat["gt_positions"]
            )
            teacher_logits = self.model.vocabulary_logits(teacher_vectors).data
        return self.dmlm_loss(student_logits, teacher_logits)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def _bucketed_training_order(self, shuffled: np.ndarray,
                                 lengths: np.ndarray) -> np.ndarray:
        """Length-bucketed epoch order derived from this epoch's shuffle.

        The epoch's random permutation supplies the randomness twice over:
        the stable sort by length keeps the permutation's order among
        equal-length examples (shuffle *within* buckets), and a second draw
        shuffles the batch order so the model does not always see short
        tables first.  Batches therefore contain examples of similar
        serialized length and pad far less than random batches, while every
        epoch still visits a different batching.
        """
        by_length = shuffled[np.argsort(lengths[shuffled], kind="stable")]
        batch_size = self.config.batch_size
        batches = [
            by_length[start : start + batch_size]
            for start in range(0, len(by_length), batch_size)
        ]
        batch_order = self.rng.permutation(len(batches))
        return np.concatenate([batches[i] for i in batch_order])

    def train(
        self,
        train_examples: list[PreparedExample],
        validation_examples: list[PreparedExample] | None = None,
    ) -> TrainingHistory:
        """Fine-tune the model; returns the recorded history."""
        if not train_examples:
            raise ValueError("train_examples must not be empty")
        start_time = time.perf_counter()
        parameters = self.model.parameters() + self.combined_loss.parameters()
        optimizer = AdamW(
            parameters,
            lr=self.config.learning_rate,
            eps=1e-6,
            weight_decay=self.config.weight_decay,
        )
        steps_per_epoch = max(1, int(np.ceil(len(train_examples) / self.config.batch_size)))
        schedule = LinearDecaySchedule(optimizer, total_steps=self.config.epochs * steps_per_epoch)

        best_accuracy = -1.0
        best_state = None
        patience_left = self.config.early_stopping_patience

        lengths = np.asarray(
            [example.masked.sequence_length for example in train_examples]
        )
        for epoch in range(self.config.epochs):
            self.model.train()
            order = self.rng.permutation(len(train_examples))
            if self.config.length_bucketing:
                order = self._bucketed_training_order(order, lengths)
            for start in range(0, len(train_examples), self.config.batch_size):
                batch = [train_examples[i] for i in order[start : start + self.config.batch_size]]
                flat = self._flatten_columns(batch)
                hidden, logits = self._classification_forward(batch, flat)
                classification_loss = F.cross_entropy(
                    logits, flat["labels"], ignore_index=IGNORE_INDEX
                )
                dmlm_loss = None
                if self.config.use_mask_task:
                    dmlm_loss = self._dmlm_forward(batch, flat, hidden)
                if dmlm_loss is not None:
                    total_loss = self.combined_loss(dmlm_loss, classification_loss)
                    self.history.dmlm_losses.append(float(dmlm_loss.data))
                else:
                    total_loss = classification_loss
                    self.history.dmlm_losses.append(0.0)

                optimizer.zero_grad()
                total_loss.backward()
                clip_grad_norm(parameters, self.config.max_grad_norm)
                optimizer.step()
                schedule.step()

                self.history.step_losses.append(float(total_loss.data))
                self.history.classification_losses.append(float(classification_loss.data))
                sigma0, sigma1 = self.combined_loss.sigma_values
                self.history.sigma0_trajectory.append(float(sigma0))
                self.history.sigma1_trajectory.append(float(sigma1))

            self.history.epochs_completed = epoch + 1
            if validation_examples:
                result = self.evaluate(validation_examples)
                self.history.validation_accuracy.append(result.accuracy)
                if result.accuracy > best_accuracy + 1e-9:
                    best_accuracy = result.accuracy
                    best_state = self.model.state_dict()
                    patience_left = self.config.early_stopping_patience
                else:
                    patience_left -= 1
                    if patience_left <= 0:
                        self.history.stopped_early = True
                        break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.history.training_seconds = time.perf_counter() - start_time
        return self.history

    # ------------------------------------------------------------------ #
    # prediction and evaluation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _padded_tokens(lengths: np.ndarray, order: np.ndarray, batch_size: int) -> int:
        """Total token slots a batched forward pays under ``order``."""
        total = 0
        for start in range(0, len(order), batch_size):
            chunk = lengths[order[start : start + batch_size]]
            total += int(chunk.max()) * len(chunk)
        return total

    def predict(self, examples: list[PreparedExample],
                batch_size: int | None = None) -> list[list[str]]:
        """Predicted labels for every column of every example (table order preserved).

        Examples are batched in order of serialised length, so short tables
        are not padded to the longest table of an arbitrary batch; results are
        returned in the original table order, and padded positions are
        attention-masked, so each table's predictions do not depend on the
        tables batched with it.  Padding statistics of the last call are
        exposed as :attr:`last_bucket_stats`.
        """
        if not examples:
            self.last_bucket_stats = None
            return []
        batch_size = batch_size or self.config.batch_size
        lengths = np.asarray([example.masked.sequence_length for example in examples])
        order = np.argsort(lengths, kind="stable")
        self.last_bucket_stats = {
            "n_examples": len(examples),
            "n_batches": int(np.ceil(len(examples) / batch_size)),
            "useful_tokens": int(lengths.sum()),
            "padded_tokens": self._padded_tokens(lengths, order, batch_size),
        }
        self.model.eval()
        predictions: list[list[str] | None] = [None] * len(examples)
        with no_grad():
            for start in range(0, len(examples), batch_size):
                chunk = order[start : start + batch_size]
                batch = [examples[i] for i in chunk]
                flat = self._flatten_columns(batch)
                _, logits = self._classification_forward(batch, flat)
                indices = self.model.predict_labels(logits)
                cursor = 0
                for example_index, example in zip(chunk, batch, strict=True):
                    n_cols = example.masked.n_columns
                    predicted = [
                        self.label_vocabulary[int(index)]
                        for index in indices[cursor : cursor + n_cols]
                    ]
                    cursor += n_cols
                    predictions[int(example_index)] = predicted
        return predictions

    def evaluate(self, examples: list[PreparedExample]) -> EvaluationResult:
        """Accuracy / weighted F1 over all labelled columns of ``examples``."""
        predictions = self.predict(examples)
        y_true: list[str] = []
        y_pred: list[str] = []
        for example, predicted in zip(examples, predictions, strict=True):
            for truth, pred in zip(example.true_labels, predicted, strict=True):
                if truth is None or truth not in self._label_to_index:
                    continue
                y_true.append(truth)
                y_pred.append(pred)
        return evaluate_predictions(y_true, y_pred)
