"""Tests of the serving layer: bundles and the annotation service.

The central guarantee: a bundle saved from a fitted annotator serves
*bitwise-identical* predictions from a process that holds no
:class:`~repro.kg.graph.KnowledgeGraph` and performs no index rebuild.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro.core.annotator import KGLinkAnnotator, KGLinkConfig
from repro.core.errors import ServiceClosed
from repro.data.corpus import TableCorpus
from repro.kg.graph import KnowledgeGraph
from repro.kg.snapshot import KGSnapshot
from repro.serve import AnnotationService, ServiceBundle

TINY_CONFIG = KGLinkConfig(
    epochs=1, batch_size=4, learning_rate=1e-3, pretrain_steps=2,
    hidden_size=32, num_layers=1, num_heads=2, intermediate_size=48,
    top_k_rows=5, max_tokens_per_column=12, vocab_size=900,
    max_position_embeddings=140, max_feature_tokens=8,
)


@pytest.fixture(scope="module")
def fitted(graph, linker, semtab_splits):
    train = TableCorpus("train", semtab_splits.train.tables[:10],
                        semtab_splits.train.label_vocabulary)
    annotator = KGLinkAnnotator(graph, TINY_CONFIG, linker=linker)
    annotator.fit(train)
    return annotator


@pytest.fixture(scope="module")
def serve_tables(semtab_splits):
    return semtab_splits.test.tables[:7]


@pytest.fixture(scope="module")
def bundle_dir(fitted, tmp_path_factory):
    return ServiceBundle.from_annotator(fitted).save(
        tmp_path_factory.mktemp("bundles") / "svc"
    )


class TestKGSnapshot:
    def test_matches_graph_surface(self, graph):
        snapshot = KGSnapshot.from_graph(graph)
        assert len(snapshot) == len(graph)
        entity = next(iter(graph.entities()))
        probe = entity.entity_id
        assert probe in snapshot
        assert snapshot.entity(probe).label == entity.label
        assert snapshot.entity(probe).schema == entity.schema
        assert snapshot.one_hop_neighbors(probe) == graph.one_hop_neighbors(probe)
        assert (snapshot.neighborhood_with_predicates(probe)
                == graph.neighborhood_with_predicates(probe))

    def test_payload_round_trip(self, graph):
        snapshot = KGSnapshot.from_graph(graph)
        payload = json.loads(json.dumps(snapshot.to_payload()))
        restored = KGSnapshot.from_payload(payload)
        assert len(restored) == len(snapshot)
        for entity in list(snapshot.entities())[:25]:
            probe = entity.entity_id
            assert restored.entity(probe) == entity
            assert (restored.neighborhood_with_predicates(probe)
                    == snapshot.neighborhood_with_predicates(probe))

    def test_from_graph_idempotent_on_snapshot(self, graph):
        snapshot = KGSnapshot.from_graph(graph)
        assert KGSnapshot.from_graph(snapshot) is snapshot


class TestServiceBundle:
    def test_unfitted_annotator_rejected(self, graph):
        with pytest.raises(RuntimeError):
            ServiceBundle.from_annotator(KGLinkAnnotator(graph, TINY_CONFIG))

    def test_save_writes_versioned_layout(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert manifest["backend"]["name"] == "bm25"
        assert (bundle_dir / "model.npz").exists()
        assert (bundle_dir / "index.npz").exists()
        assert (bundle_dir / "graph.json").exists()

    def test_load_restores_components(self, bundle_dir, fitted):
        bundle = ServiceBundle.load(bundle_dir)
        assert bundle.config == fitted.config
        assert bundle.label_vocabulary == fitted.label_vocabulary
        assert bundle.tokenizer.vocab_size == fitted.tokenizer.vocab_size
        assert len(bundle.backend) == len(fitted.linker.index)
        assert bundle.linker_config == fitted.linker.config
        assert bundle.metadata["graph_entities"] == len(fitted.graph)

    def test_custom_linker_config_round_trips(self, graph, semtab_splits, tmp_path):
        from repro.kg.linker import EntityLinker, LinkerConfig

        linker_config = LinkerConfig(max_candidates=3, link_numbers_and_dates=True)
        annotator = KGLinkAnnotator(graph, TINY_CONFIG,
                                    linker=EntityLinker(graph, linker_config))
        train = TableCorpus("train", semtab_splits.train.tables[:6],
                            semtab_splits.train.label_vocabulary)
        annotator.fit(train)
        directory = ServiceBundle.from_annotator(annotator).save(tmp_path / "svc")
        service = AnnotationService.load(directory)
        # The served linker keeps the *trained* retrieval settings, not the
        # defaults KGLinkConfig would reconstruct.
        assert service.linker.config == linker_config
        tables = semtab_splits.test.tables[:3]
        assert (service.annotate_batch(tables)
                == [annotator.annotate(table) for table in tables])

    def test_unsupported_format_rejected(self, bundle_dir, tmp_path):
        clone = tmp_path / "clone"
        clone.mkdir()
        for item in bundle_dir.iterdir():
            (clone / item.name).write_bytes(item.read_bytes())
        manifest = json.loads((clone / "manifest.json").read_text())
        manifest["format_version"] = 99
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            ServiceBundle.load(clone)


def _assert_no_knowledge_graph(service):
    assert not isinstance(service.bundle.graph_view, KnowledgeGraph)
    assert not isinstance(service.extractor.graph, KnowledgeGraph)
    assert service.linker.graph is None


class TestAnnotationService:
    def test_round_trip_predictions_bitwise_equal(self, bundle_dir, fitted,
                                                  serve_tables):
        service = AnnotationService.load(bundle_dir)
        _assert_no_knowledge_graph(service)
        expected = [fitted.annotate(table) for table in serve_tables]
        assert service.annotate_batch(serve_tables) == expected
        assert [service.annotate(table) for table in serve_tables] == expected

    def test_into_service_matches_loaded_service(self, bundle_dir, fitted,
                                                 serve_tables):
        in_process = fitted.into_service()
        loaded = AnnotationService.load(bundle_dir)
        assert (in_process.annotate_batch(serve_tables)
                == loaded.annotate_batch(serve_tables))

    @pytest.mark.parametrize("max_batch", [1, 2, 3, 5, 7, 50])
    def test_ordering_under_ragged_batches(self, bundle_dir, serve_tables,
                                           max_batch):
        service = AnnotationService.load(bundle_dir, max_batch=max_batch)
        expected = [service.annotate(table) for table in serve_tables]
        assert service.annotate_batch(serve_tables) == expected

    def test_annotate_batch_empty(self, bundle_dir):
        service = AnnotationService.load(bundle_dir)
        assert service.annotate_batch([]) == []

    def test_invalid_max_batch_rejected(self, bundle_dir):
        with pytest.raises(ValueError):
            AnnotationService.load(bundle_dir, max_batch=0)

    def test_cache_is_bounded_and_counts(self, bundle_dir, serve_tables):
        service = AnnotationService.load(bundle_dir, cache_size=2)
        service.annotate_batch(serve_tables)
        stats = service.stats()
        assert stats.cache_size <= 2
        assert stats.cache_misses == len(serve_tables)
        service.annotate(serve_tables[-1])  # most recent entry: a hit
        assert service.stats().cache_hits >= 1

    def test_editing_an_answer_leaves_the_cached_answer_alone(self, bundle_dir,
                                                              serve_tables):
        service = AnnotationService.load(bundle_dir)
        table = serve_tables[0]
        first = service.annotate(table)
        expected = list(first)
        first[0] = "edited"
        assert service.annotate(table) == expected
        assert service.stats().cache_hits == 1

    def test_stats_telemetry(self, bundle_dir, serve_tables):
        service = AnnotationService.load(bundle_dir)
        service.annotate_batch(serve_tables)
        stats = service.stats()
        assert stats.requests == 1
        assert stats.tables == len(serve_tables)
        assert stats.part1_seconds > 0.0
        assert stats.encode_seconds > 0.0
        assert stats.batches >= 1
        assert 0.0 < stats.bucket_fill <= 1.0
        assert stats.useful_tokens > 0
        payload = stats.to_dict()
        assert payload["bucket_fill"] == stats.bucket_fill


def _clone_bundle(bundle_dir, target):
    target.mkdir()
    for item in bundle_dir.iterdir():
        (target / item.name).write_bytes(item.read_bytes())
    return target, json.loads((target / "manifest.json").read_text())


class TestBundleCompatibility:
    """Manifests written by older formats load and answer unchanged."""

    def test_manifest_carries_no_shard_plan(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        assert "shard_plan" not in manifest
        assert "runtime_policy" not in manifest
        assert not {"num_shards", "executor"} & set(manifest["linker_config"])

    def test_format_2_bundles_load_unchanged(self, bundle_dir, serve_tables,
                                             tmp_path):
        expected = AnnotationService.load(bundle_dir).annotate_batch(serve_tables)
        clone, manifest = _clone_bundle(bundle_dir, tmp_path / "v2")
        # Reconstruct what a format-2 writer produced: no integrity record,
        # no post-v2 config knobs.
        manifest["format_version"] = 2
        manifest.pop("artifacts")
        manifest["config"].pop("length_bucketed_training")
        (clone / "manifest.json").write_text(json.dumps(manifest))
        service = AnnotationService(ServiceBundle.load(clone))
        assert service.annotate_batch(serve_tables) == expected

    def test_format_3_shard_plan_bundles_load_unsharded(self, bundle_dir,
                                                        serve_tables, tmp_path):
        # A format-3 manifest written while index sharding existed: a
        # 2-shard process plan, the matching linker-config keys and the
        # service's runtime policy as metadata.  Sharding never changed an
        # answer, so the plan is ignored and the index serves unsharded.
        expected = AnnotationService.load(bundle_dir).annotate_batch(serve_tables)
        clone, manifest = _clone_bundle(bundle_dir, tmp_path / "v3-sharded")
        assert manifest["format_version"] == 3
        manifest["shard_plan"] = {"num_shards": 2, "executor": "process"}
        manifest["linker_config"].update(num_shards=2, executor="process")
        manifest["runtime_policy"] = {"timeout_s": 30.0, "max_retries": 2}
        (clone / "manifest.json").write_text(json.dumps(manifest))

        bundle = ServiceBundle.load(clone)
        assert bundle.linker_config == ServiceBundle.load(bundle_dir).linker_config
        assert "shard_plan" not in bundle.metadata
        assert "runtime_policy" not in bundle.metadata
        with AnnotationService(bundle) as service:
            assert type(service.linker.index) is type(bundle.backend)
            assert service.annotate_batch(serve_tables) == expected
            resaved = json.loads(
                (service.save(tmp_path / "resaved") / "manifest.json").read_text()
            )
        assert "shard_plan" not in resaved
        assert "runtime_policy" not in resaved

    def test_archives_are_written_stored(self, bundle_dir):
        for name in ("model.npz", "index.npz"):
            with zipfile.ZipFile(bundle_dir / name) as archive:
                kinds = {info.compress_type for info in archive.infolist()}
            assert kinds == {zipfile.ZIP_STORED}, name

    def test_deflated_archives_load_unchanged(self, bundle_dir, serve_tables,
                                              tmp_path):
        # Every bundle written before the archives were stored has both
        # archives deflated (np.savez_compressed); they load and answer
        # bitwise-identically to the stored original.
        original = ServiceBundle.load(bundle_dir)
        expected = AnnotationService(original).annotate_batch(serve_tables)
        clone, manifest = _clone_bundle(bundle_dir, tmp_path / "deflated")
        for name in ("model.npz", "index.npz"):
            with np.load(clone / name) as archive:
                arrays = {key: archive[key] for key in archive.files}
            np.savez_compressed(clone / name, **arrays)
            with zipfile.ZipFile(clone / name) as archive:
                assert {info.compress_type for info in archive.infolist()} == {
                    zipfile.ZIP_DEFLATED}
            data = (clone / name).read_bytes()
            manifest["artifacts"][name] = {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
            }
        (clone / "manifest.json").write_text(json.dumps(manifest))

        bundle = ServiceBundle.load(clone)
        loaded = bundle.model.state_dict()
        for name, value in original.model.state_dict().items():
            assert loaded[name].dtype == value.dtype
            assert np.array_equal(loaded[name], value), name
        with AnnotationService(bundle) as service:
            assert service.annotate_batch(serve_tables) == expected

    def test_manifest_with_processed_cache_size_loads(self, bundle_dir,
                                                      serve_tables, tmp_path):
        # Older writers saved the annotator's Part-1 cache size in the config;
        # that cache is gone, so the key is dropped at load.
        expected = AnnotationService.load(bundle_dir).annotate_batch(serve_tables)
        clone, manifest = _clone_bundle(bundle_dir, tmp_path / "cache-size")
        assert "processed_cache_size" not in manifest["config"]
        manifest["config"]["processed_cache_size"] = 4096
        (clone / "manifest.json").write_text(json.dumps(manifest))

        bundle = ServiceBundle.load(clone)
        assert bundle.config == ServiceBundle.load(bundle_dir).config
        with AnnotationService(bundle) as service:
            assert service.annotate_batch(serve_tables) == expected


class TestContentKeying:
    """Part-1 results are keyed by table content, never by ``table_id``."""

    def test_duplicate_tables_in_one_request(self, bundle_dir, serve_tables):
        with AnnotationService.load(bundle_dir) as service:
            table = serve_tables[0]
            first, second = service.annotate_batch([table, table])
            assert first == second
            # The duplicate rode along with the first copy: one Part-1 run.
            assert service.stats().cache_misses == 1

    def test_colliding_table_ids_with_cache_disabled(self, bundle_dir,
                                                     serve_tables):
        # cache_size=0 stores nothing but still keys in-flight work by
        # content, so two *different* tables that happen to share an id must
        # each get their own predictions — not the first table's.
        a, b = serve_tables[0], serve_tables[1]
        b_clone = dataclasses.replace(b, table_id=a.table_id)
        service = AnnotationService.load(bundle_dir, cache_size=0)
        expected_a = service.annotate(a)
        expected_b = service.annotate(b)
        assert service.annotate_batch([a, b_clone]) == [expected_a, expected_b]


class TestConcurrentAnnotate:
    def test_concurrent_requests_for_one_table_prepare_it_once(self, bundle_dir,
                                                               serve_tables):
        # cache_size=0 stores nothing, so only single-flight can spare the
        # second request its Part-1 run: it joins the first one's flight.
        import threading
        import time as _time

        shared = serve_tables[0]
        with AnnotationService.load(bundle_dir) as reference:
            expected = reference.annotate(shared)
        with AnnotationService.load(bundle_dir, cache_size=0) as service:
            prepared: list[int] = []
            release = threading.Event()
            original = service._prepare

            def gated(tables):
                prepared.append(len(tables))
                assert release.wait(10.0)
                return original(tables)

            service._prepare = gated
            results: list = []
            threads = [threading.Thread(
                target=lambda: results.append(service.annotate_batch([shared])))
                for _ in range(2)]
            give_up = _time.monotonic() + 10.0
            threads[0].start()
            while not prepared:
                assert _time.monotonic() < give_up, "first request never led"
                _time.sleep(0.001)
            threads[1].start()
            while service.cache.stats()["coalesced"] < 1:
                assert _time.monotonic() < give_up, "second request never joined"
                _time.sleep(0.001)
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert results == [[expected], [expected]]
            assert prepared == [1]
            stats = service.stats()
            assert (stats.cache_misses, stats.cache_hits) == (1, 1)

    def test_deadline_expiring_in_a_lead_fails_its_joiner_then_next_call_leads(
            self, bundle_dir, serve_tables):
        # The Part-1 deadline check runs inside the lead's computation, so a
        # lead that runs out of budget fails its flight: the joined request
        # gets the lead's DeadlineExceeded, and the next call leads afresh.
        import threading
        import time as _time

        from repro.core.errors import DeadlineExceeded

        shared = serve_tables[0]
        with AnnotationService.load(bundle_dir, cache_size=0) as reference:
            expected = reference.annotate(shared)
        with AnnotationService.load(bundle_dir) as service:
            entered, release = threading.Event(), threading.Event()
            original = service._prepare

            def gated(tables):
                entered.set()
                assert release.wait(10.0)
                return original(tables)

            service._prepare = gated
            errors: list = []

            def call(budget_s):
                try:
                    service.annotate_batch([shared], budget_s=budget_s)
                except DeadlineExceeded as error:
                    errors.append(error)

            lead = threading.Thread(target=call, args=(0.2,))
            lead.start()
            assert entered.wait(10.0)
            joiner = threading.Thread(target=call, args=(30.0,))
            joiner.start()
            give_up = _time.monotonic() + 10.0
            while service.cache.stats()["coalesced"] < 1:
                assert _time.monotonic() < give_up, "second request never joined"
                _time.sleep(0.001)
            _time.sleep(0.25)  # the lead's budget runs out inside its compute
            release.set()
            lead.join(timeout=30.0)
            joiner.join(timeout=30.0)
            assert len(errors) == 2 and errors[0] is errors[1]
            assert "after Part-1 prepare" in str(errors[0])
            assert service.stats().encode_seconds == 0.0  # Part 2 never ran
            service._prepare = original
            assert service.annotate(shared) == expected
            stats = service.cache.stats()
            assert (stats["misses"], stats["coalesced"], stats["size"]) == (2, 1, 1)

    def test_stats_counters_survive_threaded_annotate(self, bundle_dir,
                                                      serve_tables):
        # Regression test for the counter races: hammer annotate() from many
        # threads; every request/table/hit/miss must be accounted for.
        import threading

        with AnnotationService.load(bundle_dir) as reference:
            expected = [reference.annotate(table) for table in serve_tables]
        service = AnnotationService.load(bundle_dir)

        n_threads, rounds = 8, 5
        failures: list = []

        def hammer():
            try:
                for _ in range(rounds):
                    for table, want in zip(serve_tables, expected, strict=True):
                        if service.annotate(table) != want:
                            raise AssertionError("prediction changed under threads")
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = service.stats()
        total = n_threads * rounds * len(serve_tables)
        assert stats.requests == total
        assert stats.tables == total
        assert stats.cache_hits + stats.cache_misses == total


class TestStatsSerialization:
    def test_stats_to_dict_is_json_safe(self, bundle_dir, serve_tables):
        with AnnotationService.load(bundle_dir) as service:
            service.annotate_batch(serve_tables[:2])
            payload = service.stats().to_dict()
        # Straight through json: no numpy scalars, no dataclass leftovers.
        assert json.loads(json.dumps(payload)) == payload
        assert payload["requests"] == 1
        assert payload["tables"] == 2
        assert 0.0 <= payload["bucket_fill"] <= 1.0
        assert 0.0 <= payload["cache_hit_rate"] <= 1.0
        for name, value in payload.items():
            assert type(value) in (int, float), (name, type(value))

    def test_health_to_dict_is_json_safe(self, bundle_dir):
        with AnnotationService.load(bundle_dir) as service:
            payload = service.health().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload == {"status": "healthy", "reasons": []}


class TestAnnotateBudget:
    """``budget_s`` turns annotate calls into deadline-bounded work."""

    def test_generous_budget_changes_nothing(self, bundle_dir, serve_tables):
        with AnnotationService.load(bundle_dir) as service:
            expected = service.annotate_batch(serve_tables)
            assert service.annotate_batch(serve_tables, budget_s=60.0) == expected
            assert service.annotate(serve_tables[0], budget_s=60.0) == expected[0]

    def test_exhausted_budget_raises_at_admission(self, bundle_dir, serve_tables):
        from repro.core.errors import DeadlineExceeded

        with AnnotationService.load(bundle_dir) as service:
            with pytest.raises(DeadlineExceeded):
                service.annotate_batch(serve_tables, budget_s=0.0)
            with pytest.raises(DeadlineExceeded):
                service.annotate(serve_tables[0], budget_s=-1.0)
            # The failed calls left no in-flight registration behind: the
            # service still answers, and close() will not wedge.
            assert service.annotate(serve_tables[0]) is not None

    def test_tiny_budget_fails_typed_never_hangs(self, bundle_dir, serve_tables):
        from repro.core.errors import DeadlineExceeded

        # Smaller than any real stage: whichever boundary notices first must
        # raise the typed error rather than letting the request run long.
        with AnnotationService.load(bundle_dir, cache_size=0) as service:
            with pytest.raises(DeadlineExceeded):
                service.annotate_batch(serve_tables, budget_s=1e-7)


class TestCloseRace:
    """close() must drain in-flight annotate calls before touching pools."""

    def test_close_blocks_until_in_flight_work_finishes(self, bundle_dir,
                                                        serve_tables):
        import threading
        import time as _time

        service = AnnotationService.load(bundle_dir)
        started = threading.Event()
        release = threading.Event()
        original = service._prepare

        def gated(tables):
            started.set()
            assert release.wait(10.0)
            return original(tables)

        service._prepare = gated
        results: list = []
        annotator = threading.Thread(
            target=lambda: results.append(service.annotate_batch(serve_tables[:3]))
        )
        annotator.start()
        assert started.wait(10.0)
        closer = threading.Thread(target=service.close)
        closer.start()
        _time.sleep(0.2)
        # The drain is real: close() is still waiting on the in-flight batch.
        assert closer.is_alive()
        release.set()
        annotator.join(timeout=30.0)
        closer.join(timeout=30.0)
        assert not closer.is_alive() and not annotator.is_alive()
        assert results and len(results[0]) == 3  # the riders got answers
        with pytest.raises(ServiceClosed):
            service.annotate(serve_tables[0])  # and the service is now closed

    def test_concurrent_annotate_and_close_never_crashes(self, bundle_dir,
                                                         serve_tables):
        import threading

        service = AnnotationService.load(bundle_dir)
        outcomes: list = []
        lock = threading.Lock()

        def annotate():
            try:
                predictions = service.annotate_batch(serve_tables[:2])
                with lock:
                    outcomes.append(("ok", len(predictions)))
            except ServiceClosed:
                with lock:
                    outcomes.append(("closed", None))
            except BaseException as error:  # noqa: BLE001 - the regression
                with lock:
                    outcomes.append(("crash", repr(error)))

        threads = [threading.Thread(target=annotate) for _ in range(6)]
        for thread in threads:
            thread.start()
        service.close()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(outcomes) == 6
        # Every caller either got answers or the typed refusal — a pool
        # never died underneath an admitted request.
        assert all(kind in ("ok", "closed") for kind, _ in outcomes), outcomes


class TestLifecycleLockDiscipline:
    """``_closed`` is guarded-by ``_lifecycle``: every reader takes the lock.

    Pins the REP101 fixes — ``_ensure_open`` and ``health()`` used to read
    ``_closed`` without the lifecycle lock, so a reader could observe the
    flag mid-flip while ``close()`` was draining.
    """

    def test_ensure_open_and_health_acquire_the_lifecycle_lock(self, bundle_dir):
        service = AnnotationService.load(bundle_dir)
        inner = service._lifecycle
        acquisitions = []

        class RecordingCondition:
            def __enter__(self):
                acquisitions.append(1)
                return inner.__enter__()

            def __exit__(self, *exc_info):
                return inner.__exit__(*exc_info)

            def __getattr__(self, name):
                return getattr(inner, name)

        service._lifecycle = RecordingCondition()  # type: ignore[assignment]
        try:
            service._ensure_open()
            assert len(acquisitions) == 1
            service.health()
            assert len(acquisitions) == 2
        finally:
            service._lifecycle = inner
            service.close()

    def test_ensure_open_is_reentrant_under_the_lifecycle_lock(self, bundle_dir):
        import threading

        # _track() calls _ensure_open() while already holding _lifecycle;
        # Condition's default RLock makes the nested acquire legal.  Probe
        # from a thread so a regression to a plain Lock fails the test
        # instead of hanging the suite.
        with AnnotationService.load(bundle_dir) as service:
            done = threading.Event()

            def probe() -> None:
                with service._lifecycle:
                    service._ensure_open()
                done.set()

            thread = threading.Thread(target=probe, daemon=True)
            thread.start()
            assert done.wait(10.0), (
                "_ensure_open deadlocked while the lifecycle lock was held"
            )
