"""The KGLink method.

Part 1 (:mod:`repro.core.pipeline`) extracts candidate types, feature
sequences and a filtered top-k-row table from the knowledge graph.  Part 2
(:mod:`repro.core.model`, :mod:`repro.core.trainer`) serialises the processed
table, encodes it with a MiniBERT encoder and trains the multi-task objective
(column-type classification + column-type representation generation) with the
uncertainty-weighted adaptive loss.  :class:`repro.core.annotator.KGLinkAnnotator`
is the end-to-end public API.
"""

from repro.core.cache import SharedResultsCache
from repro.core.errors import (
    BundleCorrupted,
    DeadlineExceeded,
    ServiceClosed,
    ServingError,
    WorkerCrashed,
)
from repro.core.pipeline import (
    ColumnKGInfo,
    KGCandidateExtractor,
    Part1Config,
    ProcessedTable,
)
from repro.core.serialization import SerializedTable, TableSerializer, SerializerConfig
from repro.core.model import KGLinkModel
from repro.core.trainer import KGLinkTrainer, TrainingConfig, TrainingHistory
from repro.core.annotator import KGLinkAnnotator, KGLinkConfig

__all__ = [
    "SharedResultsCache",
    "ServingError",
    "DeadlineExceeded",
    "WorkerCrashed",
    "BundleCorrupted",
    "ServiceClosed",
    "Part1Config",
    "KGCandidateExtractor",
    "ProcessedTable",
    "ColumnKGInfo",
    "TableSerializer",
    "SerializerConfig",
    "SerializedTable",
    "KGLinkModel",
    "KGLinkTrainer",
    "TrainingConfig",
    "TrainingHistory",
    "KGLinkAnnotator",
    "KGLinkConfig",
]
