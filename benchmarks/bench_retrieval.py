"""Retrieval-engine benchmark: vectorized BM25 search and batched linking.

Builds a synthetic corpus of ``--n-docs`` documents (default 12k, matching the
scale at which the paper resorts to Elasticsearch), then times

* index build + CSR compilation (``finalize``),
* the vectorized ``BM25Index.search_batch`` path (every query in one call),
* the seed scalar path (candidate set from postings, one ``score()`` call per
  candidate) as the baseline the speedup is measured against,
* float32 postings (the default since PR 5) against the float64 index:
  per-query recall@10 parity and search latency,
* sequential ``EntityLinker.link`` vs ``EntityLinker.link_batch`` throughput
  on a mention stream with realistic duplication,
* Part 1 per chunk: ``KGCandidateExtractor.process_tables`` over 16-table
  VizNet chunks vs a one-table ``process_table`` loop, each on a fresh
  extractor over the synthetic world,
* serving throughput: a tiny trained system exported through
  ``KGLinkAnnotator.into_service()`` and hit with the same tables as a
  one-table ``annotate()`` loop vs one ``annotate_batch()`` request (the
  Part-1 cache is pre-warmed, so the ratio isolates Part-2 micro-batching).

Results are written as JSON (``scripts/run_benchmarks.sh`` commits them to
``BENCH_retrieval.json``) so the performance trajectory is tracked per PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_retrieval.py --output BENCH_retrieval.json
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone

import numpy as np

from repro.kg.backends import BM25Index, SearchHit, reference_search
from repro.kg.graph import KnowledgeGraph
from repro.kg.linker import EntityLinker, LinkerConfig


class _SeedSearchAdapter:
    """Duck-typed index exposing the seed's scalar search to an EntityLinker."""

    def __init__(self, index: BM25Index):
        self._index = index

    def search(self, query: str, top_k: int) -> list[SearchHit]:
        return reference_search(self._index, query, top_k)

    def search_batch(self, queries: list[str], top_k: int) -> list[list[SearchHit]]:
        return [self.search(query, top_k) for query in queries]


def build_corpus(n_docs: int, vocab_size: int, seed: int) -> list[tuple[str, str]]:
    """Synthetic entity documents with a Zipf-like term distribution."""
    rng = np.random.default_rng(seed)
    vocab = np.asarray([f"term{i:05d}" for i in range(vocab_size)])
    # Zipf-ish ranks: low indices are frequent, the tail is rare.
    ranks = np.minimum(rng.zipf(1.3, size=n_docs * 10) - 1, vocab_size - 1)
    documents = []
    cursor = 0
    for i in range(n_docs):
        length = int(rng.integers(4, 14))
        words = vocab[ranks[cursor:cursor + length]]
        cursor += length
        documents.append((f"ent{i:06d}", " ".join(words)))
    return documents


def make_queries(documents: list[tuple[str, str]], n_queries: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(documents), size=n_queries)
    queries = []
    for pick in picks:
        words = documents[int(pick)][1].split()
        n_words = min(len(words), int(rng.integers(1, 4)))
        queries.append(" ".join(words[:n_words]))
    return queries


def measure_float32(index: BM25Index, documents: list[tuple[str, str]],
                    queries: list[str], top_k: int,
                    f64_hits: list[list[SearchHit]]) -> dict:
    """Float32-postings parity and latency against the float64 index."""
    f32 = BM25Index.build(documents, dtype=np.float32)
    f32.finalize()
    start = time.perf_counter()
    f32_hits = f32.search_batch(queries, top_k=top_k)
    f32_seconds = time.perf_counter() - start
    overlaps = []
    for fast, exact in zip(f32_hits, f64_hits, strict=True):
        want = {hit.doc_id for hit in exact}
        got = {hit.doc_id for hit in fast}
        overlaps.append(len(want & got) / len(want) if want else 1.0)
    return {
        "float32_search_ms_per_query": round(f32_seconds / len(queries) * 1e3, 4),
        "float32_recall_at_10": round(float(np.mean(overlaps)), 6),
        "float32_postings_bytes": int(f32._posting_impacts.nbytes),
        "float64_postings_bytes": int(index._posting_impacts.nbytes),
    }


def run_serving(seed: int, n_tables: int = 64, max_batch: int = 16) -> dict:
    """Serving throughput: ``annotate_batch`` vs an ``annotate()`` loop."""
    from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
    from repro.data.corpus import TableCorpus
    from repro.data.semtab import SemTabConfig, SemTabGenerator
    from repro.kg.builder import KGWorldConfig, build_default_kg

    world = build_default_kg(KGWorldConfig(seed=seed + 5).scaled(0.25))
    corpus = SemTabGenerator(
        world, SemTabConfig(num_tables=16 + n_tables, seed=seed + 9)
    ).generate()
    train = TableCorpus("train", corpus.tables[:16], corpus.label_vocabulary)
    serve_tables = corpus.tables[16 : 16 + n_tables]

    config = KGLinkConfig(
        epochs=1, batch_size=8, learning_rate=1e-3, pretrain_steps=4,
        hidden_size=32, num_layers=2, num_heads=2, intermediate_size=48,
        top_k_rows=6, max_tokens_per_column=12, vocab_size=1200,
        max_position_embeddings=160, max_feature_tokens=10, seed=seed,
    )
    annotator = KGLinkAnnotator(world.graph, config)
    annotator.fit(train)
    service = annotator.into_service(max_batch=max_batch)

    # Warm the Part-1 cache: both request shapes then measure the Part-2
    # micro-batching path (Part-1 cost is identical per table either way).
    warm = service.annotate_batch(serve_tables)

    loop_seconds = float("inf")
    batch_seconds = float("inf")
    for _ in range(3):  # best-of-3 per path to damp scheduler noise
        start = time.perf_counter()
        looped = [service.annotate(table) for table in serve_tables]
        loop_seconds = min(loop_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        batched = service.annotate_batch(serve_tables)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

        assert batched == warm and looped == warm, "serving paths diverged"
    loop_rate = len(serve_tables) / loop_seconds
    batch_rate = len(serve_tables) / batch_seconds
    stats = service.stats()

    return {
        "n_tables": len(serve_tables),
        "max_batch": max_batch,
        "tables_per_second_loop": round(loop_rate, 1),
        "tables_per_second_batch": round(batch_rate, 1),
        "batch_vs_loop_speedup": round(batch_rate / loop_rate, 2),
        "bucket_fill": round(stats.bucket_fill, 3),
        "part1_cache_hit_rate": round(stats.cache_hit_rate, 3),
    }


def run_part1(seed: int, n_tables: int = 512, chunk: int = 16) -> dict:
    """Part 1 throughput: ``process_tables`` per chunk vs a ``process_table`` loop.

    Both paths start from a fresh extractor (empty linker and Part-1 memos)
    over one shared index, so the ratio isolates what linking a whole chunk
    at once buys; best of 3 per path, interleaved.
    """
    from repro.core.pipeline import KGCandidateExtractor
    from repro.data import VizNetConfig, VizNetGenerator
    from repro.kg.builder import KGWorldConfig, build_default_kg

    world = build_default_kg(KGWorldConfig(seed=seed + 5))
    tables = VizNetGenerator(
        world, VizNetConfig(num_tables=n_tables, seed=seed + 13)
    ).generate().tables
    index = EntityLinker(world.graph).index
    index.finalize()

    def fresh() -> KGCandidateExtractor:
        return KGCandidateExtractor(world.graph, linker=EntityLinker(index=index))

    table_seconds = chunk_seconds = float("inf")
    for _ in range(3):
        extractor = fresh()
        start = time.perf_counter()
        per_table = [extractor.process_table(table) for table in tables]
        table_seconds = min(table_seconds, time.perf_counter() - start)

        extractor = fresh()
        start = time.perf_counter()
        per_chunk = [
            processed
            for first in range(0, len(tables), chunk)
            for processed in extractor.process_tables(tables[first:first + chunk])
        ]
        chunk_seconds = min(chunk_seconds, time.perf_counter() - start)
        assert per_chunk == per_table, "process_tables diverged from process_table"

    return {
        "n_tables": len(tables),
        "chunk": chunk,
        "tables_per_second_table": round(len(tables) / table_seconds, 1),
        "tables_per_second_chunk": round(len(tables) / chunk_seconds, 1),
        "chunk_vs_table_speedup": round(table_seconds / chunk_seconds, 2),
    }


def run(n_docs: int, vocab_size: int, n_queries: int, n_scalar_queries: int,
        top_k: int, seed: int) -> dict:
    documents = build_corpus(n_docs, vocab_size, seed)

    # The float64 index is the oracle-comparable configuration (bitwise equal
    # to the scalar reference); the float32 default is measured separately.
    start = time.perf_counter()
    index = BM25Index.build(documents, dtype=np.float64)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    index.finalize()
    finalize_seconds = time.perf_counter() - start

    queries = make_queries(documents, n_queries, seed + 1)

    start = time.perf_counter()
    vector_hits = index.search_batch(queries, top_k=top_k)
    vector_seconds = time.perf_counter() - start

    scalar_queries = queries[:n_scalar_queries]
    start = time.perf_counter()
    scalar_hits = [reference_search(index, q, top_k) for q in scalar_queries]
    scalar_seconds = time.perf_counter() - start

    # Sanity: both paths agree on the sampled prefix.
    for vec, ref in zip(vector_hits[:len(scalar_hits)], scalar_hits, strict=True):
        assert [h.doc_id for h in vec] == [h.doc_id for h in ref], "parity violation"

    vector_per_query = vector_seconds / len(queries)
    scalar_per_query = scalar_seconds / len(scalar_queries)

    float32_metrics = measure_float32(index, documents, queries, top_k, vector_hits)

    # Linker throughput on a mention stream with heavy duplication (the same
    # entities recur across table cells).  Fresh linkers so caches are cold.
    rng = np.random.default_rng(seed + 2)
    unique_mentions = [documents[int(i)][1].rsplit(" ", 1)[0][:40]
                       for i in rng.integers(0, len(documents), size=500)]
    mentions = [unique_mentions[int(i)] for i in rng.integers(0, 500, size=4000)]
    config = LinkerConfig(max_candidates=top_k)

    sequential_linker = EntityLinker(KnowledgeGraph(), config=config, index=index)
    start = time.perf_counter()
    sequential = [sequential_linker.link(m) for m in mentions]
    sequential_seconds = time.perf_counter() - start

    batch_linker = EntityLinker(KnowledgeGraph(), config=config, index=index)
    start = time.perf_counter()
    batched = batch_linker.link_batch(mentions)
    batch_seconds = time.perf_counter() - start
    assert batched == sequential, "link_batch diverged from sequential link()"

    # Seed baseline: the same linker flow but with the scalar search the seed
    # shipped, on a smaller slice (it is ~40x slower per unique mention).
    seed_mentions = mentions[:800]
    seed_linker = EntityLinker(
        KnowledgeGraph(), config=config, index=_SeedSearchAdapter(index)
    )
    start = time.perf_counter()
    for mention in seed_mentions:
        seed_linker.link(mention)
    seed_seconds = time.perf_counter() - start
    seed_rate = len(seed_mentions) / seed_seconds
    batch_rate = len(mentions) / batch_seconds

    return {
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "corpus": {
            "n_docs": n_docs,
            "vocab_size": vocab_size,
            "n_queries": len(queries),
            "n_scalar_queries": len(scalar_queries),
            "top_k": top_k,
            "seed": seed,
        },
        "bm25": {
            "build_seconds": round(build_seconds, 4),
            "finalize_seconds": round(finalize_seconds, 4),
            "vector_search_ms_per_query": round(vector_per_query * 1e3, 4),
            "scalar_search_ms_per_query": round(scalar_per_query * 1e3, 4),
            "search_speedup": round(scalar_per_query / vector_per_query, 2),
            **float32_metrics,
        },
        "linker": {
            "n_mentions": len(mentions),
            "n_unique_mentions": len(set(mentions)),
            "sequential_mentions_per_second": round(len(mentions) / sequential_seconds, 1),
            "batch_mentions_per_second": round(batch_rate, 1),
            "batch_vs_sequential_speedup": round(sequential_seconds / batch_seconds, 2),
            "seed_engine_mentions_per_second": round(seed_rate, 1),
            "engine_speedup": round(batch_rate / seed_rate, 2),
        },
        "part1": run_part1(seed),
        "serving": run_serving(seed),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-docs", type=int, default=12_000)
    parser.add_argument("--vocab-size", type=int, default=2_000)
    parser.add_argument("--n-queries", type=int, default=400)
    parser.add_argument("--n-scalar-queries", type=int, default=60)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None,
                        help="write results as JSON to this path")
    args = parser.parse_args()

    results = run(args.n_docs, args.vocab_size, args.n_queries,
                  args.n_scalar_queries, args.top_k, args.seed)
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")


if __name__ == "__main__":
    main()
