"""Package fixtures for the fleet suite: one tiny trained bundle, shared.

The unit tests (wire, cache, supervisor, router) run against fakes; the
smoke and chaos suites put *real* trained services behind the fleet so the
bitwise-identical-predictions invariant is checked against the production
annotation path.  Training happens once per test run, package-scoped.
"""

from __future__ import annotations

import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.data.corpus import TableCorpus
from repro.serve import AnnotationService, ServiceBundle

TINY_CONFIG = KGLinkConfig(
    epochs=1, batch_size=4, learning_rate=1e-3, pretrain_steps=2,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=5, max_tokens_per_column=12, vocab_size=900,
    max_position_embeddings=140, max_feature_tokens=8,
)


@pytest.fixture(scope="package")
def fleet_annotator(graph, linker, semtab_splits):
    """The fitted annotator every fleet-suite service is exported from."""
    train = TableCorpus("train", semtab_splits.train.tables[:8],
                        semtab_splits.train.label_vocabulary)
    annotator = KGLinkAnnotator(graph, TINY_CONFIG, linker=linker)
    annotator.fit(train)
    return annotator


@pytest.fixture(scope="package")
def fleet_bundle(fleet_annotator, tmp_path_factory):
    return ServiceBundle.from_annotator(fleet_annotator).save(
        tmp_path_factory.mktemp("fleet-bundles") / "svc"
    )


@pytest.fixture(scope="package")
def serve_tables(semtab_splits):
    return semtab_splits.test.tables[:6]


@pytest.fixture(scope="package")
def expected(fleet_bundle, serve_tables):
    """Fault-free single-process annotations: the fleet must match bitwise."""
    service = AnnotationService.load(fleet_bundle)
    try:
        return service.annotate_batch(serve_tables)
    finally:
        service.close()
