"""MTab baseline: purely knowledge-graph-based column-type voting.

MTab (Nguyen et al., SemTab 2021 winner) annotates columns by linking cells to
the knowledge graph and aggregating the retrieved entities' types with
rule/statistics-based scoring — no learned model is involved.  The
reimplementation reuses Part 1 of KGLink (linking, overlap filtering and
candidate-type scoring) and predicts, for each column, the dataset label whose
surface form matches the best candidate type.

Two properties of the paper's Table I follow directly from this design and are
preserved here:

* on the SemTab-style corpus the dataset labels *are* KG type labels, so MTab
  is extremely strong;
* on the VizNet-style corpus the labels are coarse web-table types, so MTab
  must go through a learned label translation (the paper translates VizNet
  labels to WikiData entities) and fails entirely on numeric columns, giving
  the lowest accuracy of all methods.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from repro.baselines.base import BaseAnnotator
from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.data.corpus import TableCorpus
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker

__all__ = ["MTabAnnotator"]


class MTabAnnotator(BaseAnnotator):
    """Knowledge-graph voting annotator (no deep learning component)."""

    name = "MTab"

    def __init__(self, graph: KnowledgeGraph, part1_config: Part1Config | None = None,
                 linker: EntityLinker | None = None):
        super().__init__()
        self.graph = graph
        self.extractor = KGCandidateExtractor(
            graph, part1_config or Part1Config(), linker=linker
        )
        self.fallback_label: str | None = None
        self.label_vocabulary: list[str] = []
        self._lowercase_labels: dict[str, str] = {}
        self._translation: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def _best_candidate_type(self, info) -> str | None:
        if not info.candidate_types:
            return None
        return info.candidate_types[0]

    # ------------------------------------------------------------------ #
    def fit(self, train_corpus: TableCorpus, validation_corpus: TableCorpus | None = None) -> None:
        """Record the label vocabulary and learn the KG-type → label translation."""
        start = time.perf_counter()
        self.label_vocabulary = list(train_corpus.label_vocabulary)
        self._lowercase_labels = {label.lower(): label for label in self.label_vocabulary}
        counts = train_corpus.label_counts()
        self.fallback_label = counts.most_common(1)[0][0] if counts else None

        # Maximum-likelihood translation from candidate-type surface forms to
        # dataset labels, estimated on the training corpus (the paper
        # translates VizNet labels to WikiData entities to make MTab work).
        cooccurrence: dict[str, Counter] = defaultdict(Counter)
        for processed in self.extractor.process_tables(train_corpus.tables):
            for info in processed.columns:
                candidate = self._best_candidate_type(info)
                if candidate is None or info.label is None:
                    continue
                cooccurrence[candidate.lower()][info.label] += 1
        self._translation = {
            candidate: label_counts.most_common(1)[0][0]
            for candidate, label_counts in cooccurrence.items()
        }
        self.fit_seconds = time.perf_counter() - start

    def _predict_column(self, info) -> str:
        candidate = self._best_candidate_type(info)
        if candidate is not None:
            exact = self._lowercase_labels.get(candidate.lower())
            if exact is not None:
                return exact
        # Try the remaining candidate types for an exact label match.
        for other in info.candidate_types[1:]:
            exact = self._lowercase_labels.get(other.lower())
            if exact is not None:
                return exact
        # Otherwise fall back to the statistically learned translation of the
        # strongest candidate type, then to the majority training label.
        if candidate is not None:
            translated = self._translation.get(candidate.lower())
            if translated is not None:
                return translated
        return self.fallback_label or (self.label_vocabulary[0] if self.label_vocabulary else "")

    def predict_corpus(self, corpus: TableCorpus) -> tuple[list[str], list[str]]:
        if not self.label_vocabulary:
            raise RuntimeError("MTabAnnotator must be fitted before prediction")
        y_true: list[str] = []
        y_pred: list[str] = []
        for processed in self.extractor.process_tables(corpus.tables):
            for info in processed.columns:
                if info.label is None:
                    continue
                y_true.append(info.label)
                y_pred.append(self._predict_column(info))
        return y_true, y_pred
