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
from dataclasses import dataclass, replace


from repro.core.cache import CacheInfo, LRUCache
from repro.core.model import KGLinkModel
from repro.core.pipeline import KGCandidateExtractor, Part1Config, ProcessedTable
from repro.core.serialization import SerializerConfig, TableSerializer
from repro.core.trainer import KGLinkTrainer, TrainingConfig, TrainingHistory
from repro.data.corpus import TableCorpus
from repro.data.metrics import EvaluationResult, evaluate_predictions
from repro.data.table import Table, table_key
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.plm.config import PLMConfig
from repro.plm.pretrain import MLMPretrainer, PretrainConfig
from repro.text.tokenizer import WordPieceTokenizer

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
    # Part-1 processed-table cache (LRU; <= 0 disables caching)
    processed_cache_size: int = 4096
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

    def without_kg(self) -> KGLinkConfig:
        """The ``KGLink w/o ct`` ablation: no KG information at all."""
        return replace(self, use_candidate_types=False, use_feature_vector=False)


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
        # Bounded Part-1 cache (the serving layer uses the same LRU class), so
        # a long-lived annotator no longer grows without limit.
        self._processed_cache: LRUCache[str, ProcessedTable] = LRUCache(
            maxsize=self.config.processed_cache_size
        )

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _process(self, tables: list[Table]) -> list[ProcessedTable]:
        processed = []
        for table in tables:
            key = table_key(table)
            cached = self._processed_cache.get(key)
            if cached is None:
                cached = self.extractor.process_table(table)
                self._processed_cache.put(key, cached)
            processed.append(cached)
        return processed

    def processed_cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters of the Part-1 processed-table cache."""
        return self._processed_cache.cache_info()

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
        part1_start = time.perf_counter()
        processed_train = self._process(train_corpus.tables)
        processed_valid = (
            self._process(validation_corpus.tables) if validation_corpus is not None else []
        )
        self.part1_seconds = time.perf_counter() - part1_start

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

    def _require_fitted(self) -> KGLinkTrainer:
        if self.trainer is None or self.model is None or self.serializer is None:
            raise RuntimeError("KGLinkAnnotator must be fitted before prediction")
        return self.trainer

    def annotate(self, table: Table) -> list[str]:
        """Predict a semantic type for every column of one table."""
        trainer = self._require_fitted()
        processed = self._process([table])
        examples = trainer.prepare_examples(processed, with_ground_truth=False)
        return trainer.predict(examples)[0]

    def predict_corpus(self, corpus: TableCorpus) -> tuple[list[str], list[str]]:
        """Return aligned ``(y_true, y_pred)`` over all labelled columns."""
        trainer = self._require_fitted()
        processed = self._process(corpus.tables)
        examples = trainer.prepare_examples(processed, with_ground_truth=False)
        predictions = trainer.predict(examples)
        y_true: list[str] = []
        y_pred: list[str] = []
        for example, predicted in zip(examples, predictions, strict=True):
            for truth, pred in zip(example.true_labels, predicted, strict=True):
                if truth is None:
                    continue
                y_true.append(truth)
                y_pred.append(pred)
        return y_true, y_pred

    def evaluate(self, corpus: TableCorpus, include_report: bool = False) -> EvaluationResult:
        """Evaluate accuracy and weighted F1 on a labelled corpus."""
        start = time.perf_counter()
        y_true, y_pred = self.predict_corpus(corpus)
        self.inference_seconds = time.perf_counter() - start
        return evaluate_predictions(y_true, y_pred, include_report=include_report)

    def link_statistics(self, corpus: TableCorpus) -> dict[str, int]:
        """Part-1 link statistics for ``corpus`` (the paper's Table III)."""
        processed = self._process(corpus.tables)
        return self.extractor.link_statistics(processed)

    def close(self) -> None:
        """Shut down worker pools behind a sharded linker this annotator uses.

        Delegates to :meth:`EntityLinker.close`, which only tears down a
        shard executor the linker itself created (``LinkerConfig.num_shards
        > 1``) — injected indexes stay up.  Needed when loading format-3
        bundles with a process shard plan through the legacy
        ``load_annotator`` shim, which otherwise leaks the pool.
        """
        self.linker.close()

    def __enter__(self) -> KGLinkAnnotator:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def into_service(self, max_batch: int = 16, cache_size: int = 1024,
                     processes: int = 0, executor=None):
        """Export this fitted annotator as a serving-shaped front door.

        Returns a :class:`~repro.serve.service.AnnotationService` built on an
        in-memory :class:`~repro.serve.bundle.ServiceBundle`: the compiled
        retrieval index, a graph snapshot, the tokenizer, the label
        vocabulary and the model weights — everything ``bundle.save()``
        would persist.  ``processes``/``executor`` configure the service's
        Part-1 prepare stage (see :class:`AnnotationService`).  The annotator
        keeps working as the training facade.
        """
        from repro.serve.bundle import ServiceBundle
        from repro.serve.service import AnnotationService

        return AnnotationService(
            ServiceBundle.from_annotator(self), max_batch=max_batch,
            cache_size=cache_size, processes=processes, executor=executor,
        )
