"""Bundle validation and service-lifecycle tests.

A bundle that fails validation raises
:class:`~repro.core.errors.BundleCorrupted` naming the offending file or
manifest field, before any array is parsed; a closed service refuses work
with :class:`~repro.core.errors.ServiceClosed` and reports ``failed``.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.core.errors import BundleCorrupted, ServiceClosed
from repro.data.corpus import TableCorpus
from repro.serve import AnnotationService, ServiceBundle

TINY_CONFIG = KGLinkConfig(
    epochs=1, batch_size=4, learning_rate=1e-3, pretrain_steps=2,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=5, max_tokens_per_column=12, vocab_size=900,
    max_position_embeddings=140, max_feature_tokens=8,
)

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

    @pytest.mark.parametrize("name", ["model.npz", "index.npz"])
    def test_truncated_archive_without_integrity_record_named(self, bundle_dir,
                                                              tmp_path, name):
        # Format 2 has no integrity record, so no size check catches the
        # truncation: the archive's own parse must fail typed and named.
        clone = _clone_bundle(bundle_dir, tmp_path / "truncated-v2")
        manifest = json.loads((clone / "manifest.json").read_text())
        manifest["format_version"] = 2
        del manifest["artifacts"]
        (clone / "manifest.json").write_text(json.dumps(manifest))
        archive = clone / name
        archive.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])
        with pytest.raises(BundleCorrupted, match=name):
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

    def test_load_restores_the_garbage_collector(self, bundle_dir, tmp_path):
        # The load pauses the cyclic collector; it must come back on after a
        # clean load and after a failed one, and stay off if it was off.
        clone = _clone_bundle(bundle_dir, tmp_path / "gc")
        (clone / "index.npz").unlink()
        assert gc.isenabled()
        ServiceBundle.load(bundle_dir)
        assert gc.isenabled()
        with pytest.raises(BundleCorrupted):
            ServiceBundle.load(clone)
        assert gc.isenabled()
        gc.disable()
        try:
            ServiceBundle.load(bundle_dir)
            assert not gc.isenabled()
        finally:
            gc.enable()

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
        assert len(ServiceBundle.load(clone).backend) > 0

    def test_linker_config_naming_the_engine_still_loads(self, bundle_dir,
                                                        serve_tables, tmp_path):
        # Bundles written while the retrieval engine was selectable carry
        # ``"backend": "bm25"`` in their linker config; BM25 is the only
        # engine, so the key is dropped and the bundle answers unchanged.
        expected = AnnotationService.load(bundle_dir).annotate_batch(serve_tables)
        clone = _clone_bundle(bundle_dir, tmp_path / "engine-key")
        manifest = json.loads((clone / "manifest.json").read_text())
        assert "backend" not in manifest["linker_config"]
        assert manifest["backend"]["name"] == "bm25"
        manifest["linker_config"]["backend"] = "bm25"
        (clone / "manifest.json").write_text(json.dumps(manifest))
        bundle = ServiceBundle.load(clone)
        assert bundle.linker_config == ServiceBundle.load(bundle_dir).linker_config
        with AnnotationService(bundle) as service:
            assert service.annotate_batch(serve_tables) == expected

    @pytest.mark.parametrize("field, corrupt", [
        ("config", lambda m: m["config"].update(no_such_knob=1)),
        ("linker_config", lambda m: m.update(linker_config="bm25")),
        ("linker_config", lambda m: m["linker_config"].pop("bm25")),
        ("backend", lambda m: m.update(backend="bm25")),
        ("backend", lambda m: m["backend"].update(name="char_ngram")),
        ("artifacts", lambda m: m.update(artifacts=["model.npz"])),
        ("label_vocabulary", lambda m: m.update(label_vocabulary=7)),
    ], ids=["config-unknown-key", "linker-config-not-object",
            "linker-config-without-bm25", "backend-string", "backend-unknown-engine",
            "artifacts-list", "label-vocabulary-int"])
    def test_malformed_manifest_field_is_typed_and_named(self, bundle_dir,
                                                        tmp_path, field,
                                                        corrupt):
        clone = _clone_bundle(bundle_dir, tmp_path / "malformed")
        manifest = json.loads((clone / "manifest.json").read_text())
        corrupt(manifest)
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleCorrupted, match=f"'{field}'"):
            ServiceBundle.load(clone)

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
