"""Experiment profiles and shared resources (world, corpora, splits, linker).

Three profiles are provided:

* ``smoke`` — very small corpora and few epochs; used by the test suite and the
  benchmark harness so the whole suite completes in minutes on CPU.
* ``default`` — the profile behind ``EXPERIMENTS.md``, which
  ``scripts/generate_experiments_md.py`` generates from a run's JSON reports
  (the file is not committed); still CPU-friendly but large enough for the
  relative ordering of the methods to be stable.
* ``paper`` — documents the original settings of the paper (BERT-base on a
  V100, 50/20 epochs, the real corpora).  It is not runnable in this offline
  environment and exists so the scaling decisions are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines.base import PLMBaselineConfig
from repro.core.annotator import KGLinkConfig
from repro.core.pipeline import Part1Config
from repro.data.corpus import CorpusSplits, TableCorpus, stratified_split
from repro.data.semtab import SemTabConfig, SemTabGenerator
from repro.data.viznet import VizNetConfig, VizNetGenerator
from repro.kg.builder import KGWorld, KGWorldConfig, build_default_kg
from repro.kg.linker import EntityLinker, LinkerConfig

__all__ = ["ExperimentProfile", "SharedResources", "get_profile", "load_resources", "PROFILES"]


@dataclass(frozen=True)
class ExperimentProfile:
    """All scaled-down knobs of one experiment configuration."""

    name: str
    kg_scale: float
    semtab_tables: int
    viznet_tables: int
    epochs: int
    batch_size: int
    learning_rate: float
    pretrain_steps: int
    top_k_rows: int
    hidden_size: int = 64
    num_layers: int = 2
    seed: int = 0
    description: str = ""

    # ------------------------------------------------------------------ #
    def kglink_config(self, **overrides) -> KGLinkConfig:
        """KGLink configuration for this profile (overridable per experiment)."""
        base = KGLinkConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            pretrain_steps=self.pretrain_steps,
            top_k_rows=self.top_k_rows,
            hidden_size=self.hidden_size,
            num_layers=self.num_layers,
            seed=self.seed,
        )
        return replace(base, **overrides) if overrides else base

    def baseline_config(self, **overrides) -> PLMBaselineConfig:
        """Shared PLM-baseline configuration for this profile."""
        base = PLMBaselineConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            pretrain_steps=self.pretrain_steps,
            max_rows=self.top_k_rows,
            hidden_size=self.hidden_size,
            num_layers=self.num_layers,
            seed=self.seed,
        )
        return replace(base, **overrides) if overrides else base

    def part1_config(self, **overrides) -> Part1Config:
        base = Part1Config(top_k_rows=self.top_k_rows)
        return replace(base, **overrides) if overrides else base


PROFILES: dict[str, ExperimentProfile] = {
    "smoke": ExperimentProfile(
        name="smoke",
        kg_scale=0.3,
        semtab_tables=60,
        viznet_tables=90,
        epochs=4,
        batch_size=8,
        learning_rate=1e-3,
        pretrain_steps=10,
        top_k_rows=8,
        description="Tiny profile for tests and benchmark harness smoke runs.",
    ),
    "default": ExperimentProfile(
        name="default",
        kg_scale=0.6,
        semtab_tables=200,
        viznet_tables=400,
        epochs=12,
        batch_size=8,
        learning_rate=1e-3,
        pretrain_steps=40,
        top_k_rows=12,
        description=("Profile behind EXPERIMENTS.md, which "
                     "scripts/generate_experiments_md.py generates (not committed)."),
    ),
    "paper": ExperimentProfile(
        name="paper",
        kg_scale=1.0,
        semtab_tables=3048,
        viznet_tables=32265,
        epochs=50,
        batch_size=16,
        learning_rate=3e-5,
        pretrain_steps=0,
        top_k_rows=25,
        hidden_size=768,
        num_layers=12,
        description=(
            "Documents the paper's original settings (BERT-base, V100, real corpora); "
            "not runnable offline."
        ),
    ),
}


def get_profile(name: str = "default") -> ExperimentProfile:
    """Look up a profile by name."""
    try:
        return PROFILES[name]
    except KeyError as error:
        raise KeyError(f"unknown profile {name!r}; available: {sorted(PROFILES)}") from error


@dataclass
class SharedResources:
    """Everything the experiment runners share for one profile."""

    profile: ExperimentProfile
    world: KGWorld
    linker: EntityLinker
    semtab: TableCorpus
    viznet: TableCorpus
    semtab_splits: CorpusSplits
    viznet_splits: CorpusSplits
    # Cache of fitted models / experiment outputs, keyed by the runners.
    cache: dict = field(default_factory=dict)

    def splits(self, dataset: str) -> CorpusSplits:
        """The train/validation/test splits of ``dataset`` ('semtab' or 'viznet')."""
        if dataset == "semtab":
            return self.semtab_splits
        if dataset == "viznet":
            return self.viznet_splits
        raise KeyError(f"unknown dataset {dataset!r}; expected 'semtab' or 'viznet'")

    def corpus(self, dataset: str) -> TableCorpus:
        if dataset == "semtab":
            return self.semtab
        if dataset == "viznet":
            return self.viznet
        raise KeyError(f"unknown dataset {dataset!r}; expected 'semtab' or 'viznet'")


_RESOURCE_CACHE: dict[str, SharedResources] = {}


def load_resources(profile: ExperimentProfile | str = "default",
                   use_cache: bool = True) -> SharedResources:
    """Build (or reuse) the shared world, corpora and splits for a profile."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    if profile.name == "paper":
        raise RuntimeError(
            "the 'paper' profile documents the original settings and cannot be "
            "materialised offline; use 'default' or 'smoke'"
        )
    if use_cache and profile.name in _RESOURCE_CACHE:
        return _RESOURCE_CACHE[profile.name]

    world = build_default_kg(KGWorldConfig(seed=profile.seed + 7).scaled(profile.kg_scale))
    linker = EntityLinker(world.graph, LinkerConfig(max_candidates=10))
    semtab = SemTabGenerator(
        world, SemTabConfig(num_tables=profile.semtab_tables, seed=profile.seed + 101)
    ).generate()
    viznet = VizNetGenerator(
        world, VizNetConfig(num_tables=profile.viznet_tables, seed=profile.seed + 202)
    ).generate()
    resources = SharedResources(
        profile=profile,
        world=world,
        linker=linker,
        semtab=semtab,
        viznet=viznet,
        semtab_splits=stratified_split(semtab, seed=profile.seed + 13),
        viznet_splits=stratified_split(viznet, seed=profile.seed + 13),
    )
    if use_cache:
        _RESOURCE_CACHE[profile.name] = resources
    return resources
