"""Graceful-degradation tests: the service under deterministic injected faults.

The contract under test, from the resilience tentpole: whenever
``service.health()`` reports anything other than ``failed``, annotations are
*bitwise-identical* to the fault-free run — injected shard timeouts and
dead shards degrade latency and light up telemetry, never change
predictions.  Faults come from
:class:`~repro.runtime.FaultPlan`/:class:`~repro.runtime.FaultyExecutor`, so
no real process dies and no wall-clock time is slept.
"""

from __future__ import annotations

import json

import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.core.errors import BundleCorrupted, ServiceClosed, ShardUnavailable
from repro.data.corpus import TableCorpus
from repro.kg.backends import ShardedBackend
from repro.runtime import FaultPlan, FaultyExecutor, RuntimePolicy, create_executor
from repro.serve import AnnotationService, ServiceBundle

TINY_CONFIG = KGLinkConfig(
    epochs=1, batch_size=4, learning_rate=1e-3, pretrain_steps=2,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=5, max_tokens_per_column=12, vocab_size=900,
    max_position_embeddings=140, max_feature_tokens=8,
)

#: Small budgets so fault scenarios converge in a handful of calls; sleeps
#: are injected (recorded, not slept) wherever the suite exercises them.
CHAOS_POLICY = RuntimePolicy(timeout_s=None, max_retries=1,
                             breaker_threshold=2, breaker_reset_s=60.0)


@pytest.fixture(scope="module")
def fitted(graph, linker, semtab_splits):
    train = TableCorpus("train", semtab_splits.train.tables[:8],
                        semtab_splits.train.label_vocabulary)
    annotator = KGLinkAnnotator(graph, TINY_CONFIG, linker=linker)
    annotator.fit(train)
    return annotator


@pytest.fixture(scope="module")
def serve_tables(semtab_splits):
    return semtab_splits.test.tables[:6]


@pytest.fixture(scope="module")
def bundle_dir(fitted, tmp_path_factory):
    return ServiceBundle.from_annotator(fitted).save(
        tmp_path_factory.mktemp("bundles") / "svc"
    )


@pytest.fixture(scope="module")
def expected(bundle_dir, serve_tables):
    """The fault-free annotations every degraded run must reproduce exactly."""
    service = AnnotationService.load(bundle_dir)
    try:
        return service.annotate_batch(serve_tables)
    finally:
        service.close()


def _clone_bundle(bundle_dir, destination):
    destination.mkdir()
    for item in bundle_dir.iterdir():
        (destination / item.name).write_bytes(item.read_bytes())
    return destination


# --------------------------------------------------------------------------- #
# satellite: bundle validation before arrays are touched
# --------------------------------------------------------------------------- #
class TestBundleValidation:
    def test_manifest_records_artifact_hashes(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        for name in ("model.npz", "index.npz", "graph.json"):
            entry = manifest["artifacts"][name]
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] == (bundle_dir / name).stat().st_size

    def test_artifacts_record_stays_out_of_metadata(self, bundle_dir):
        assert "artifacts" not in ServiceBundle.load(bundle_dir).metadata

    def test_truncated_weights_named(self, bundle_dir, tmp_path):
        clone = _clone_bundle(bundle_dir, tmp_path / "truncated")
        weights = clone / "model.npz"
        weights.write_bytes(weights.read_bytes()[:128])
        with pytest.raises(BundleCorrupted, match="model.npz"):
            ServiceBundle.load(clone)

    def test_flipped_byte_fails_the_checksum(self, bundle_dir, tmp_path):
        clone = _clone_bundle(bundle_dir, tmp_path / "flipped")
        index = clone / "index.npz"
        raw = bytearray(index.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # same size, different content
        index.write_bytes(bytes(raw))
        with pytest.raises(BundleCorrupted, match="index.npz"):
            ServiceBundle.load(clone)

    def test_missing_file_named(self, bundle_dir, tmp_path):
        clone = _clone_bundle(bundle_dir, tmp_path / "missing")
        (clone / "index.npz").unlink()
        with pytest.raises(BundleCorrupted, match="index.npz"):
            ServiceBundle.load(clone)

    def test_garbage_manifest_rejected(self, bundle_dir, tmp_path):
        clone = _clone_bundle(bundle_dir, tmp_path / "garbage")
        (clone / "manifest.json").write_text("{not json")
        with pytest.raises(BundleCorrupted, match="manifest.json"):
            ServiceBundle.load(clone)

    def test_manifest_missing_required_keys_rejected(self, bundle_dir, tmp_path):
        clone = _clone_bundle(bundle_dir, tmp_path / "schema")
        manifest = json.loads((clone / "manifest.json").read_text())
        del manifest["tokenizer_tokens"]
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleCorrupted, match="tokenizer_tokens"):
            ServiceBundle.load(clone)

    def test_missing_bundle_directory_rejected(self, tmp_path):
        with pytest.raises(BundleCorrupted, match="manifest.json"):
            ServiceBundle.load(tmp_path / "never-saved")

    def test_bundle_without_integrity_record_still_loads(self, bundle_dir,
                                                         tmp_path):
        # Bundles written before the integrity record (and by external
        # tooling) carry no "artifacts" key: presence checks still run,
        # checksum checks are skipped.
        clone = _clone_bundle(bundle_dir, tmp_path / "legacy")
        manifest = json.loads((clone / "manifest.json").read_text())
        del manifest["artifacts"]
        (clone / "manifest.json").write_text(json.dumps(manifest))
        assert ServiceBundle.load(clone).backend.is_finalized

    def test_corruption_is_also_a_value_error(self, bundle_dir, tmp_path):
        # Legacy call sites catch ValueError around bundle loads.
        clone = _clone_bundle(bundle_dir, tmp_path / "compat")
        (clone / "graph.json").unlink()
        with pytest.raises(ValueError):
            ServiceBundle.load(clone)


# --------------------------------------------------------------------------- #
# satellite: close() semantics
# --------------------------------------------------------------------------- #
class TestServiceClosed:
    def test_close_is_idempotent(self, bundle_dir):
        service = AnnotationService.load(bundle_dir)
        service.close()
        service.close()  # no error, no double-teardown

    def test_annotate_after_close_raises(self, bundle_dir, serve_tables):
        service = AnnotationService.load(bundle_dir)
        service.close()
        with pytest.raises(ServiceClosed):
            service.annotate(serve_tables[0])
        with pytest.raises(ServiceClosed):
            service.annotate_batch(serve_tables)
        with pytest.raises(ServiceClosed):
            service.annotate_stream(serve_tables)  # raises at call, not next()

    def test_health_reports_failed_after_close(self, bundle_dir):
        service = AnnotationService.load(bundle_dir)
        assert service.health().status == "healthy"
        service.close()
        health = service.health()
        assert health.status == "failed"
        assert any("closed" in reason for reason in health.reasons)

    def test_exit_swallows_nothing(self, bundle_dir):
        with pytest.raises(RuntimeError, match="sentinel"):
            with AnnotationService.load(bundle_dir) as service:
                raise RuntimeError("sentinel")
        with pytest.raises(ServiceClosed):
            service.annotate_batch([])  # the context manager did close it


# --------------------------------------------------------------------------- #
# RuntimePolicy persistence
# --------------------------------------------------------------------------- #
class TestRuntimePolicyPersistence:
    def test_policy_rides_in_bundle_metadata(self, bundle_dir, tmp_path):
        policy = RuntimePolicy(timeout_s=5.0, max_retries=7, breaker_threshold=4)
        service = AnnotationService.load(bundle_dir, policy=policy)
        saved = service.save(tmp_path / "with-policy")
        service.close()

        manifest = json.loads((saved / "manifest.json").read_text())
        assert manifest["format_version"] == 3  # format unchanged
        assert manifest["runtime_policy"]["max_retries"] == 7

        reloaded = AnnotationService.load(saved)
        assert reloaded.policy == policy
        reloaded.close()

    def test_explicit_policy_overrides_saved(self, bundle_dir, tmp_path):
        service = AnnotationService.load(
            bundle_dir, policy=RuntimePolicy(max_retries=9))
        saved = service.save(tmp_path / "override")
        service.close()
        override = RuntimePolicy(max_retries=0)
        reloaded = AnnotationService.load(saved, policy=override)
        assert reloaded.policy == override
        reloaded.close()

    def test_default_policy_without_metadata(self, bundle_dir):
        service = AnnotationService.load(bundle_dir)
        assert service.policy == RuntimePolicy()
        service.close()


# --------------------------------------------------------------------------- #
# the fault matrix: sharded retrieval path
# --------------------------------------------------------------------------- #
@pytest.mark.chaos
class TestShardDegradation:
    """Injected shard faults: identical search results via the local fallback."""

    @pytest.fixture()
    def queries(self, serve_tables):
        cells = [str(cell) for table in serve_tables[:2]
                 for column in table.columns for cell in column.cells[:2]]
        return cells[:8]

    def _sharded(self, bundle_dir, plan, policy=CHAOS_POLICY):
        backend = ServiceBundle.load(bundle_dir).backend
        faulty = FaultyExecutor(create_executor("serial"), plan,
                                sleep=lambda s: None)
        return backend, ShardedBackend(backend, num_shards=3, executor=faulty,
                                       policy=policy)

    def test_shard_timeout_once_is_retried(self, bundle_dir, queries):
        plan = FaultPlan().fail(TimeoutError("hang"), times=1,
                                match=lambda task: task[0] == 1)
        inner, sharded = self._sharded(bundle_dir, plan)
        assert sharded.search_batch(queries, top_k=5) == inner.search_batch(
            queries, top_k=5)
        stats = sharded.resilience_stats()
        assert stats["counters"]["retries"] == 1
        assert stats["breakers"] == {"0": "closed", "1": "closed", "2": "closed"}

    def test_dead_shard_falls_back_locally(self, bundle_dir, queries):
        plan = FaultPlan().fail(RuntimeError("shard 1 down"), times=None,
                                match=lambda task: task[0] == 1)
        inner, sharded = self._sharded(bundle_dir, plan)
        # Twice: first opens the breaker, second skips dispatch entirely.
        for _ in range(2):
            assert (sharded.search_batch(queries, top_k=5)
                    == inner.search_batch(queries, top_k=5))
        stats = sharded.resilience_stats()
        assert stats["counters"]["fallbacks"] == 2
        assert stats["breakers"]["1"] == "open"
        assert stats["breakers"]["0"] == "closed"
        assert stats["breaker_trips"] == 1

    def test_shard_unavailable_when_fallback_fails_too(self, bundle_dir,
                                                       queries, monkeypatch):
        plan = FaultPlan().fail(RuntimeError("down"), times=None,
                                match=lambda task: task[0] == 0)
        _, sharded = self._sharded(bundle_dir, plan)
        monkeypatch.setattr(
            sharded._shard_set, "shard",
            lambda index: (_ for _ in ()).throw(OSError("state gone")),
        )
        with pytest.raises(ShardUnavailable, match="shard 0"):
            sharded.search_batch(queries, top_k=5)

    def test_service_degrades_on_shard_faults(self, bundle_dir, serve_tables,
                                              expected):
        plan = FaultPlan().fail(RuntimeError("shard 2 down"), times=None,
                                match=lambda task: task[0] == 2)
        bundle = ServiceBundle.load(bundle_dir)
        bundle.backend = ShardedBackend(
            bundle.backend, num_shards=3,
            executor=FaultyExecutor(create_executor("serial"), plan,
                                    sleep=lambda s: None),
            policy=CHAOS_POLICY,
        )
        with AnnotationService(bundle) as service:
            assert service.annotate_batch(serve_tables) == expected
            stats = service.stats()
            assert stats.fallbacks >= 1
            health = service.health()
            assert health.status == "degraded"
            assert health.breakers.get("shard:2") == "open"

    def test_bare_policy_none_keeps_the_fast_path(self, bundle_dir, queries):
        inner, sharded = self._sharded(bundle_dir, FaultPlan(), policy=None)
        assert (sharded.search_batch(queries, top_k=5)
                == inner.search_batch(queries, top_k=5))
        assert sharded.resilience_stats() == {
            "counters": {}, "breakers": {}, "breaker_trips": 0,
        }
