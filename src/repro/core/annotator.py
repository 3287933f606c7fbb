"""End-to-end KGLink annotator: the library's primary public API.

Typical usage::

    from repro.kg import build_default_kg
    from repro.data import SemTabGenerator, stratified_split
    from repro.core import KGLinkAnnotator, KGLinkConfig

    world = build_default_kg()
    corpus = SemTabGenerator(world).generate()
    splits = stratified_split(corpus)

    annotator = KGLinkAnnotator(world.graph, KGLinkConfig(epochs=3))
    annotator.fit(splits.train, splits.validation)
    result = annotator.evaluate(splits.test)
    print(result.accuracy, result.weighted_f1)

The configuration exposes every switch the paper ablates (candidate types,
feature vector, the representation-generation sub-task, the DeBERTa encoder,
the row filter and its size ``k``), so the experiment runners simply build
differently-configured annotators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.model import KGLinkModel
from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.core.serialization import SerializerConfig, TableSerializer
from repro.core.trainer import KGLinkTrainer, TrainingConfig, TrainingHistory
from repro.data.corpus import TableCorpus
from repro.data.metrics import EvaluationResult, evaluate_predictions
from repro.data.table import Table
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.plm.config import PLMConfig
from repro.plm.pretrain import MLMPretrainer, PretrainConfig
from repro.text.tokenizer import WordPieceTokenizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> annotator)
    from repro.serve.service import AnnotationService

__all__ = ["KGLinkConfig", "KGLinkAnnotator"]


@dataclass(frozen=True)
class KGLinkConfig:
    """All knobs of the KGLink pipeline in one place."""

    # Part 1 — knowledge-graph candidate extraction
    top_k_rows: int = 25
    max_candidate_types: int = 3
    max_entities_per_cell: int = 10
    row_filter: str = "linkage"
    # Component switches (Table II ablations)
    use_candidate_types: bool = True
    use_feature_vector: bool = True
    use_mask_task: bool = True
    use_deberta: bool = False
    # Encoder
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    intermediate_size: int = 128
    dropout: float = 0.1
    vocab_size: int = 3000
    max_position_embeddings: int = 320
    pretrain_steps: int = 40
    # Serialisation budgets
    max_tokens_per_column: int = 28
    max_columns: int = 8
    max_feature_tokens: int = 20
    # Training
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 3e-4
    weight_decay: float = 0.01
    temperature: float = 2.0
    # Shuffle within length buckets per epoch so training batches pad to
    # similar lengths; off by default to keep seeded runs bitwise-stable.
    length_bucketed_training: bool = False
    early_stopping_patience: int = 3
    fixed_log_sigma0_sq: float | None = None
    fixed_log_sigma1_sq: float | None = None
    seed: int = 0

    # ------------------------------------------------------------------ #
    def part1_config(self) -> Part1Config:
        return Part1Config(
            top_k_rows=self.top_k_rows,
            max_candidate_types=self.max_candidate_types,
            max_entities_per_cell=self.max_entities_per_cell,
            row_filter=self.row_filter,
            use_candidate_types=self.use_candidate_types,
            use_feature_sequence=self.use_feature_vector,
        )

    def plm_config(self, vocab_size: int | None = None) -> PLMConfig:
        return PLMConfig(
            vocab_size=vocab_size or self.vocab_size,
            hidden_size=self.hidden_size,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            intermediate_size=self.intermediate_size,
            max_position_embeddings=self.max_position_embeddings,
            dropout=self.dropout,
            relative_attention=self.use_deberta,
            seed=self.seed,
        )

    def serializer_config(self) -> SerializerConfig:
        return SerializerConfig(
            max_tokens_per_column=self.max_tokens_per_column,
            max_columns=self.max_columns,
            max_feature_tokens=self.max_feature_tokens,
            max_sequence_length=self.max_position_embeddings,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            temperature=self.temperature,
            length_bucketing=self.length_bucketed_training,
            use_mask_task=self.use_mask_task,
            use_feature_vector=self.use_feature_vector,
            use_candidate_types=self.use_candidate_types,
            early_stopping_patience=self.early_stopping_patience,
            fixed_log_sigma0_sq=self.fixed_log_sigma0_sq,
            fixed_log_sigma1_sq=self.fixed_log_sigma1_sq,
            seed=self.seed,
        )


class KGLinkAnnotator:
    """Train and apply KGLink on a table corpus.

    Parameters
    ----------
    graph:
        The knowledge graph to link against.
    config:
        Pipeline configuration; see :class:`KGLinkConfig`.
    linker:
        Optional pre-built entity linker (lets several annotators share one
        BM25 index).
    tokenizer:
        Optional pre-trained tokenizer (lets several annotators share one
        vocabulary); when omitted a tokenizer is trained during :meth:`fit`.
    """

    name = "KGLink"

    def __init__(
        self,
        graph: KnowledgeGraph,
        config: KGLinkConfig | None = None,
        linker: EntityLinker | None = None,
        tokenizer: WordPieceTokenizer | None = None,
    ):
        self.graph = graph
        self.config = config or KGLinkConfig()
        self.linker = linker or EntityLinker(
            graph, LinkerConfig(max_candidates=self.config.max_entities_per_cell)
        )
        self.extractor = KGCandidateExtractor(graph, self.config.part1_config(), linker=self.linker)
        self.tokenizer = tokenizer
        self.model: KGLinkModel | None = None
        self.trainer: KGLinkTrainer | None = None
        self.serializer: TableSerializer | None = None
        self.label_vocabulary: list[str] = []
        self.history: TrainingHistory | None = None
        self.fit_seconds: float = 0.0
        self.part1_seconds: float = 0.0
        self.inference_seconds: float = 0.0
        # The one inference path: built from the fitted model on first use,
        # dropped by every fit().
        self._service: AnnotationService | None = None

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _corpus_texts(self, corpus: TableCorpus) -> list[str]:
        """Texts used to train the tokenizer and pre-train the encoder."""
        texts: list[str] = []
        for entity in self.graph.entities():
            texts.append(entity.document_text())
        for table in corpus.tables:
            for column in table.columns:
                cells = " ".join(cell for cell in column.cells[:10] if cell)
                if column.label:
                    cells = f"{column.label} {cells}"
                if cells.strip():
                    texts.append(cells)
        return texts

    def _build_tokenizer_and_encoder(self, corpus: TableCorpus):
        texts = self._corpus_texts(corpus)
        pretrainer = MLMPretrainer(
            self.config.plm_config(),
            PretrainConfig(steps=self.config.pretrain_steps, seed=self.config.seed + 17),
        )
        tokenizer, encoder, _ = pretrainer.pretrain(texts, tokenizer=self.tokenizer)
        self.tokenizer = tokenizer
        return encoder

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def fit(self, train_corpus: TableCorpus, validation_corpus: TableCorpus | None = None
            ) -> TrainingHistory:
        """Run Part 1 over the corpora, build the model and fine-tune it."""
        start = time.perf_counter()
        self._service = None
        processed_train = self.extractor.process_tables(train_corpus.tables)
        processed_valid = (
            self.extractor.process_tables(validation_corpus.tables)
            if validation_corpus is not None else []
        )
        self.part1_seconds = time.perf_counter() - start

        self.label_vocabulary = list(train_corpus.label_vocabulary)
        encoder = self._build_tokenizer_and_encoder(train_corpus)
        self.serializer = TableSerializer(self.tokenizer, self.config.serializer_config())
        self.model = KGLinkModel(
            encoder,
            num_labels=len(self.label_vocabulary),
            use_feature_vector=self.config.use_feature_vector,
            seed=self.config.seed,
        )
        self.trainer = KGLinkTrainer(
            self.model, self.serializer, self.label_vocabulary, self.config.training_config()
        )
        train_examples = self.trainer.prepare_examples(processed_train)
        valid_examples = self.trainer.prepare_examples(processed_valid) if processed_valid else None
        self.history = self.trainer.train(train_examples, valid_examples)
        self.fit_seconds = time.perf_counter() - start
        return self.history

    def _inference_service(self) -> AnnotationService:
        """The service every prediction goes through, built on first use."""
        if self.trainer is None or self.model is None or self.serializer is None:
            raise RuntimeError("KGLinkAnnotator must be fitted before prediction")
        if self._service is None:
            self._service = self.into_service(max_batch=self.config.batch_size)
        return self._service

    def annotate(self, table: Table) -> list[str]:
        """Predict a semantic type for every column of one table."""
        return self._inference_service().annotate(table)

    def predict_corpus(self, corpus: TableCorpus) -> tuple[list[str], list[str]]:
        """Return aligned ``(y_true, y_pred)`` over all labelled columns.

        A table wider than ``max_columns`` is serialised, and so predicted,
        for its first ``max_columns`` columns only.
        """
        predictions = self._inference_service().annotate_batch(corpus.tables)
        y_true: list[str] = []
        y_pred: list[str] = []
        for table, predicted in zip(corpus.tables, predictions, strict=True):
            for column, pred in zip(table.columns[: len(predicted)], predicted, strict=True):
                if column.label is None:
                    continue
                y_true.append(column.label)
                y_pred.append(pred)
        return y_true, y_pred

    def evaluate(self, corpus: TableCorpus, include_report: bool = False) -> EvaluationResult:
        """Evaluate accuracy and weighted F1 on a labelled corpus."""
        start = time.perf_counter()
        y_true, y_pred = self.predict_corpus(corpus)
        self.inference_seconds = time.perf_counter() - start
        return evaluate_predictions(y_true, y_pred, include_report=include_report)

    def into_service(self, max_batch: int = 16, cache_size: int = 1024):
        """Export this fitted annotator as a serving-shaped front door.

        Returns a :class:`~repro.serve.service.AnnotationService` built on an
        in-memory :class:`~repro.serve.bundle.ServiceBundle`: the compiled
        retrieval index, a graph snapshot, the tokenizer, the label
        vocabulary and the model weights — everything ``bundle.save()``
        would persist.  The annotator keeps working as the training facade.
        """
        from repro.serve.bundle import ServiceBundle
        from repro.serve.service import AnnotationService

        return AnnotationService(ServiceBundle.from_annotator(self),
                                 max_batch=max_batch, cache_size=cache_size)
