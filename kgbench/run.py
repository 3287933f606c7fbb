#!/usr/bin/env python3
"""End-to-end benchmark of the KGLink reproduction: serving stack and trainer.

Usage (from the repository root)::

    python3 kgbench/run.py --workload batch-cold --seed 1 --seconds 12 --trace 0

Workloads (why each exists is recorded in ``kgbench/manifest.json``):

* ``batch-cold``  in-process ``AnnotationService.annotate_batch`` over
  never-seen tables, in repeated passes that each load a fresh service
  (Part 1 and KG retrieval dominate);
* ``http-hot``    ``python -m repro.gateway`` driven by two keep-alive callers
  cycling a pool that fits the service's Part-1 cache;
* ``fleet-mixed`` ``python -m repro.fleet --replicas 2`` with alternating
  repeated (results-cache reads) and never-seen (writes) tables;
* ``train``       ``KGLinkAnnotator.fit`` + evaluation of the seeded recipe.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
window untraced and half with spans around each layer's public functions,
and prints per-layer metrics.  Every answer is compared with a separate
cache-less service, and the generated inputs are compared with the digests
in ``manifest.json``.
The last line of standard output is the result object; the line before it
carries sample counts and the failure breakdown.

``--profile smoke`` runs tiny sizes (the benchmark's own tests use it);
``--record-digests N`` rewrites the recorded input digests of seeds 0..N-1
(of ``--workload`` alone, if given).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import CACHE_DIR, MANIFEST, PINNED_ENV, SRC, host_ref_loop_ms

os.environ.update(PINNED_ENV)  # before numpy is first imported

END_TO_END = {
    "setup_s": "s",
    "tables_per_s": "tables/s",
    "latency_p50_ms": "ms",
    "accuracy": "share",
    "weighted_f1": "share",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["batch-cold", "http-hot", "fleet-mixed", "train"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", choices=["full", "smoke"], default="full")
    parser.add_argument("--build-bundle", metavar="DIR",
                        help="train the serving bundle into DIR and exit")
    parser.add_argument("--record-digests", type=int, metavar="N_SEEDS",
                        help="record input digests for seeds 0..N_SEEDS-1 and exit")
    args = parser.parse_args(argv)
    if not (args.workload or args.build_bundle or args.record_digests):
        parser.error("--workload is required")
    return args


def record_digests(profile, n_seeds: int, only: str | None = None) -> None:
    """Record input digests of every workload, or of ``only`` that one."""
    from inputs import build_world, digest, recipe_digest, workload_tables
    from workloads import WORKLOADS

    world = build_world(profile)
    recorded = {
        name: {str(seed): digest(workload_tables(world, profile, name, seed))
               for seed in range(n_seeds)}
        for name in WORKLOADS if only in (None, name)
    }
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    entry = manifest.setdefault("digests", {}).setdefault(profile.name, {})
    entry["recipe"] = recipe_digest(world, profile)
    entry.setdefault("workloads", {}).update(recorded)
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"kgbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from inputs import (
        PROFILES,
        build_world,
        check_digests,
        ensure_bundle,
        recipe_digest,
        train_bundle,
        workload_tables,
    )
    from layers import PER_LAYER
    from workloads import WORKLOADS, Run

    profile = PROFILES[args.profile]
    if args.build_bundle:
        train_bundle(profile, args.build_bundle)
        return 0
    if args.record_digests:
        record_digests(profile, args.record_digests, args.workload)
        return 0

    probe_before = host_ref_loop_ms()
    bundle = ensure_bundle(profile)
    world = build_world(profile)
    groups = workload_tables(world, profile, args.workload, args.seed)
    inputs = check_digests(profile, args.workload, args.seed, groups,
                           recipe_digest(world, profile))
    del world

    run = Run(args.workload, profile, args.seed, args.seconds, bundle, groups,
              traced=bool(args.trace))
    outcome = WORKLOADS[args.workload](run)
    probe_after = host_ref_loop_ms()

    if args.trace:
        traces = CACHE_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        outcome.tracer.dump(traces / f"{args.workload}-seed{args.seed}.jsonl")
        values = dict(outcome.detail.pop("trace"))
        values["host.ref_loop_ms"] = (probe_before + probe_after) / 2
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = inputs["ok"] and outcome.failed == 0 and outcome.checked > 0
    if not inputs["ok"]:
        print(f"kgbench: generated inputs differ from the recorded digests: {inputs}",
              file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "profile": profile.name,
        "trace": args.trace, "inputs": inputs, "checked": outcome.checked,
        "failures": dict(outcome.failures),
        "host.ref_loop_ms": {"before": probe_before, "after": probe_after},
        "end_to_end": outcome.metrics, **outcome.detail,
    }, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
