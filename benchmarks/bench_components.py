"""Micro-benchmarks of the individual substrates.

These measure the building blocks whose cost dominates the end-to-end
pipeline: BM25 retrieval, cell linking, Part 1 candidate-type extraction, the
MiniBERT forward pass and one fine-tuning step.  They complement the
experiment-level benchmarks with stable, repeatable component timings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.core.model import KGLinkModel
from repro.core.pipeline import KGCandidateExtractor, Part1Config
from repro.data.corpus import TableCorpus
from repro.kg.backends import BM25Index
from repro.kg.linker import EntityLinker, LinkerConfig
from repro.nn import functional as F
from repro.nn.layers import MultiHeadSelfAttention
from repro.nn.optim import AdamW
from repro.nn.tensor import Tensor, no_grad
from repro.plm.config import PLMConfig
from repro.plm.model import MiniBERT


@pytest.fixture(scope="module")
def extractor(resources):
    return KGCandidateExtractor(
        resources.world.graph, Part1Config(top_k_rows=8), linker=resources.linker
    )


def test_bm25_build_and_finalize(benchmark, resources):
    documents = [
        (entity.entity_id, entity.document_text())
        for entity in resources.world.graph.entities()
    ]

    def run():
        index = BM25Index.build(documents)
        index.finalize()
        return index

    index = benchmark(run)
    assert len(index) == len(documents)


def test_bm25_search_batch(benchmark, resources):
    index = resources.linker.index
    queries = [entity.label for entity in list(resources.world.graph.entities())[:200]]
    index.finalize()

    hits = benchmark(lambda: index.search_batch(queries, top_k=10))
    assert len(hits) == 200


def test_linker_batch_throughput(benchmark, resources):
    tables = resources.semtab.tables[:5]
    mentions = [
        table.cell(row, col)
        for table in tables
        for row in range(table.n_rows)
        for col in range(table.n_columns)
    ]
    # Private linker sharing the session index; the cache is dropped inside
    # the measured function so every round links cold instead of timing
    # lru_cache hits on the shared fixture.
    linker = EntityLinker(
        resources.world.graph,
        LinkerConfig(max_candidates=8),
        index=resources.linker.index,
    )

    def run():
        linker.cache_clear()
        return linker.link_batch(mentions)

    results = benchmark(run)
    assert len(results) == len(mentions)


def test_bm25_search(benchmark, resources):
    index = resources.linker.index
    queries = [entity.label for entity in list(resources.world.graph.entities())[:50]]

    def run():
        return [index.search(query, top_k=10) for query in queries]

    hits = benchmark(run)
    assert len(hits) == 50


def test_entity_linking_one_table(benchmark, resources, extractor):
    table = resources.semtab.tables[0]
    result = benchmark(lambda: extractor.link_table(table))
    assert len(result) == table.n_rows


def test_part1_process_table(benchmark, resources, extractor):
    table = resources.semtab.tables[1]
    processed = benchmark(lambda: extractor.process_table(table))
    assert len(processed.columns) == table.n_columns


def test_minibert_forward(benchmark):
    encoder = MiniBERT(PLMConfig(vocab_size=2000, hidden_size=64, num_layers=2, num_heads=4,
                                 intermediate_size=128, max_position_embeddings=256))
    encoder.eval()
    rng = np.random.default_rng(0)
    token_ids = rng.integers(0, 2000, size=(8, 160))
    mask = np.ones_like(token_ids, dtype=bool)
    hidden = benchmark(lambda: encoder(token_ids, attention_mask=mask))
    assert hidden.shape == (8, 160, 64)


def test_minibert_inference(benchmark):
    """Same forward under no_grad: the prediction-path cost."""
    encoder = MiniBERT(PLMConfig(vocab_size=2000, hidden_size=64, num_layers=2, num_heads=4,
                                 intermediate_size=128, max_position_embeddings=256))
    encoder.eval()
    rng = np.random.default_rng(0)
    token_ids = rng.integers(0, 2000, size=(8, 160))
    mask = np.ones_like(token_ids, dtype=bool)

    def run():
        with no_grad():
            return encoder(token_ids, attention_mask=mask)

    hidden = benchmark(run)
    assert hidden.shape == (8, 160, 64)


def _attention_inputs():
    rng = np.random.default_rng(2)
    layer = MultiHeadSelfAttention(hidden_size=64, num_heads=4, dropout=0.0,
                                   rng=np.random.default_rng(7))
    x = Tensor(rng.normal(size=(8, 160, 64)))
    mask = np.ones((8, 160), dtype=bool)
    mask[:, 120:] = False
    return layer, x, mask


def test_attention_fused(benchmark):
    layer, x, mask = _attention_inputs()
    layer.fused = True
    out = benchmark(lambda: layer(x, attention_mask=mask))
    assert out.shape == x.shape


def test_attention_unfused(benchmark):
    layer, x, mask = _attention_inputs()
    layer.fused = False
    out = benchmark(lambda: layer(x, attention_mask=mask))
    assert out.shape == x.shape


@pytest.fixture(scope="module")
def serving(resources):
    """A tiny trained service plus the tables it is benchmarked on.

    The Part-1 cache is pre-warmed so both serving benchmarks measure the
    Part-2 micro-batching path (Part-1 cost is identical per table in both
    request shapes).
    """
    config = KGLinkConfig(
        epochs=1, batch_size=8, learning_rate=1e-3, pretrain_steps=4,
        hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
        top_k_rows=6, max_tokens_per_column=14, vocab_size=1200,
        max_position_embeddings=160, max_feature_tokens=10,
    )
    annotator = KGLinkAnnotator(resources.world.graph, config, linker=resources.linker)
    tables = resources.semtab.tables
    train = TableCorpus("train", tables[:10], resources.semtab.label_vocabulary)
    annotator.fit(train)
    service = annotator.into_service(max_batch=16)
    serve_tables = tables[10:34]
    service.annotate_batch(serve_tables)  # warm the Part-1 cache
    return service, serve_tables


def test_service_annotate_loop(benchmark, serving):
    service, tables = serving
    results = benchmark(lambda: [service.annotate(table) for table in tables])
    assert len(results) == len(tables)


def test_service_annotate_batch(benchmark, serving):
    service, tables = serving
    results = benchmark(lambda: service.annotate_batch(tables))
    assert len(results) == len(tables)


def test_training_step(benchmark):
    encoder = MiniBERT(PLMConfig(vocab_size=1000, hidden_size=64, num_layers=2, num_heads=4,
                                 intermediate_size=128, max_position_embeddings=160))
    model = KGLinkModel(encoder, num_labels=40)
    optimizer = AdamW(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(1)
    token_ids = rng.integers(0, 1000, size=(4, 120))
    mask = np.ones_like(token_ids, dtype=bool)
    labels = rng.integers(0, 40, size=(12,))
    batch_index = np.repeat(np.arange(4), 3)
    positions = np.tile(np.array([0, 40, 80]), 4)

    def step():
        hidden = model.encode(token_ids, mask)
        cls_vectors = model.gather_positions(hidden, batch_index, positions)
        logits = model.classification_logits(cls_vectors)
        loss = F.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    loss_value = benchmark(step)
    assert np.isfinite(loss_value)
