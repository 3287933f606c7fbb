"""Seeded inputs, their digests, and the serving bundle every workload loads.

All tables come from one synthetic world (``KGWorldConfig().scaled(1.0)`` in
the full profile) through the VizNet-style generator, so they mix numeric and
string columns.  Each role (stream, pool, training corpus) is one generator
call with its own ``name``, so table ids are unique within a run and are sent
exactly as the generator made them.

The SHA-256 of each workload's tables (canonical JSON) is recorded per seed
in ``manifest.json`` and checked on every run: a change to the ``repro.data``
generators fails the run instead of silently changing the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from common import CACHE_DIR, MANIFEST, SRC, child_env

BUNDLE_SEED = 0


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile (``full`` is measured, ``smoke`` tests)."""

    name: str
    world_scale: float
    cold_stream: int      # batch-cold: never-seen tables, annotated in consecutive passes
    cold_pass: int        # batch-cold: tables per pass, each pass in a fresh service
    check_stride: int     # batch-cold: every check_stride-th stream table is checked
    hot_pool: int         # http-hot: pool cycled round-robin (< 1024-entry LRU)
    fleet_hot: int        # fleet-mixed: repeated tables (results-cache reads)
    fleet_cold: int       # fleet-mixed: never-seen tables (results-cache writes)
    warmup: int           # never-seen tables used to warm code paths, untimed
    fleet_warmup: int     # fleet-mixed: never-seen tables that warm the replicas' caches
    fleet_check_cold: int  # fleet-mixed: leading cold tables always answered
    setup_repeats: int    # deployments started per run; setup_s is their median
    inproc_setup_repeats: int  # in-process set-ups per run at least; setup_s is their median
    train_tables: int
    epochs: int
    pretrain_steps: int


FULL = Profile("full", world_scale=1.0, cold_stream=4096, cold_pass=512,
               check_stride=8, hot_pool=512,
               fleet_hot=256, fleet_cold=2048, warmup=32, fleet_warmup=512,
               fleet_check_cold=256, setup_repeats=5, inproc_setup_repeats=9,
               train_tables=400, epochs=4, pretrain_steps=12)
SMOKE = Profile("smoke", world_scale=0.25, cold_stream=64, cold_pass=16,
                check_stride=2, hot_pool=12,
                fleet_hot=6, fleet_cold=32, warmup=4, fleet_warmup=8,
                fleet_check_cold=6, setup_repeats=2, inproc_setup_repeats=2,
                train_tables=40, epochs=1, pretrain_steps=2)
PROFILES = {profile.name: profile for profile in (FULL, SMOKE)}

CHUNK = 16  # batch-cold: tables per annotate_batch call
# Train/validation/test shares of the training corpus.  The held-out share is
# large so that test accuracy rests on enough columns to vary little by seed.
SPLIT = (0.3, 0.05, 0.65)


def kglink_config(profile: Profile, seed: int):
    """The seeded training recipe: the train workload times it, and the
    serving bundle is its result for ``BUNDLE_SEED``."""
    from repro.core import KGLinkConfig

    return KGLinkConfig(
        epochs=profile.epochs, batch_size=16, learning_rate=1e-3,
        pretrain_steps=profile.pretrain_steps, top_k_rows=10,
        max_tokens_per_column=16, max_position_embeddings=160,
        max_feature_tokens=12, seed=seed,
    )


def build_world(profile: Profile):
    from repro.kg import KGWorldConfig, build_default_kg

    return build_default_kg(KGWorldConfig().scaled(profile.world_scale))


def generate(world, name: str, num_tables: int, seed: int) -> list:
    from repro.data import VizNetConfig, VizNetGenerator

    config = VizNetConfig(num_tables=num_tables, seed=seed, name=name)
    return VizNetGenerator(world, config).generate().tables


def _generator_seed(seed: int, role: int) -> int:
    return 7919 * seed + 101 * role + 1


def training_splits(world, profile: Profile, seed: int):
    from repro.data import TableCorpus, stratified_split

    tables = generate(world, "train", profile.train_tables, _generator_seed(seed, 4))
    return stratified_split(TableCorpus("train", tables), proportions=SPLIT)


def workload_tables(world, profile: Profile, workload: str, seed: int) -> dict[str, list]:
    """The named table groups a workload runs on, all derived from ``seed``."""
    if workload == "batch-cold":
        return {
            "stream": generate(world, "batch-cold", profile.cold_stream,
                               _generator_seed(seed, 0)),
            "warmup": generate(world, "batch-cold-warmup", profile.warmup,
                               _generator_seed(seed, 5)),
        }
    if workload == "http-hot":
        return {"pool": generate(world, "http-hot", profile.hot_pool,
                                 _generator_seed(seed, 1))}
    if workload == "fleet-mixed":
        return {
            "hot": generate(world, "fleet-hot", profile.fleet_hot,
                            _generator_seed(seed, 2)),
            "cold": generate(world, "fleet-cold", profile.fleet_cold,
                             _generator_seed(seed, 3)),
            "warmup": generate(world, "fleet-warmup", profile.fleet_warmup,
                               _generator_seed(seed, 5)),
        }
    if workload == "train":
        splits = training_splits(world, profile, seed)
        return {"train": splits.train.tables, "validation": splits.validation.tables,
                "test": splits.test.tables}
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------------- #
def table_json(table) -> dict:
    """A table as the request body the gateway accepts (id sent unchanged)."""
    return {
        "table_id": table.table_id,
        "columns": [{"name": column.name, "cells": list(column.cells)}
                    for column in table.columns],
    }


def digest(groups: dict[str, list]) -> str:
    """SHA-256 over canonical JSON of every table, labels included."""
    canonical = {
        name: [dict(table_json(table), source=table.source,
                    labels=[column.label for column in table.columns])
               for table in tables]
        for name, tables in sorted(groups.items())
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def recipe_digest(world, profile: Profile) -> str:
    """Digest of the seed-independent corpus the serving bundle is trained on."""
    splits = training_splits(world, profile, BUNDLE_SEED)
    return digest({"train": splits.train.tables, "validation": splits.validation.tables,
                   "test": splits.test.tables})


def check_digests(profile: Profile, workload: str, seed: int, groups: dict,
                  recipe_digest: str) -> dict:
    """Compare this run's inputs with the recorded digests.

    The training-recipe corpus is seed-independent and always recorded, so
    every run checks the generators even for a seed outside the table.
    """
    with open(MANIFEST, encoding="utf-8") as handle:
        recorded = json.load(handle)["digests"][profile.name]
    workload_digest = digest(groups)
    expected = recorded["workloads"][workload].get(str(seed))
    report = {
        "recipe": "ok" if recipe_digest == recorded["recipe"] else "mismatch",
        "workload": ("unrecorded" if expected is None
                     else "ok" if expected == workload_digest else "mismatch"),
        "workload_sha256": workload_digest,
    }
    report["ok"] = report["recipe"] == "ok" and report["workload"] != "mismatch"
    return report


# --------------------------------------------------------------------------- #
# the serving bundle
# --------------------------------------------------------------------------- #
def _source_hash() -> str:
    """Hash of the program's sources and this recipe, so either change retrains."""
    sha = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def train_bundle(profile: Profile, directory: str) -> None:
    """Fit the recipe at ``BUNDLE_SEED`` and save the serving bundle."""
    from repro.core import KGLinkAnnotator

    world = build_world(profile)
    splits = training_splits(world, profile, BUNDLE_SEED)
    annotator = KGLinkAnnotator(world.graph, kglink_config(profile, BUNDLE_SEED))
    annotator.fit(splits.train, splits.validation)
    annotator.into_service().save(directory)


def ensure_bundle(profile: Profile) -> str:
    """Path of the trained bundle for this source tree, training it once.

    Training runs in a child process so it never shows in the measured
    process's peak memory.
    """
    target = CACHE_DIR / f"bundle-{profile.name}-{_source_hash()}"
    if not target.is_dir():
        CACHE_DIR.mkdir(exist_ok=True)
        scratch = CACHE_DIR / f"tmp-bundle-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(MANIFEST.parent / "run.py"), "--build-bundle",
             str(scratch), "--profile", profile.name],
            env=child_env(), check=True, timeout=600,
        )
        os.replace(scratch, target)
    return str(target)
