"""Shared plumbing of the benchmark: paths, statistics, host probe, memory.

Importing this module has no side effects beyond reading constants; the
thread-count environment is pinned by ``run.py`` before numpy is imported.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Everything the benchmark writes (trained bundles, traces) lives here; the
# directory is git-ignored, so a fresh checkout rebuilds it from source.
CACHE_DIR = ROOT / ".kgbench_cache"
MANIFEST = BENCH_DIR / "manifest.json"

# One BLAS thread per process: numpy otherwise starts one OpenBLAS thread per
# core in every process, and fleet-mixed runs four processes on two cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark launches."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie strictly beyond the nearest-rank percentile."""
    return len(samples) - max(1, math.ceil(q * len(samples)))


def metric(value: float, unit: str, samples: int, **extra) -> dict:
    """One reported metric with the sample count it rests on."""
    return {"value": float(value), "unit": unit, "samples": int(samples), **extra}


# --------------------------------------------------------------------------- #
# host speed probe
# --------------------------------------------------------------------------- #
def host_ref_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop plus a small GEMM.

    The work never changes, so this reads the host's speed at the moment: a
    slow run with a slow probe is a slow host, not a slow program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)).astype(np.float32)
    b = rng.standard_normal((96, 96)).astype(np.float32)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        for _ in range(40):
            a @ b
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


# --------------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------------- #
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for child in children.get(parent, []):
            found.append(child)
            frontier.append(child)
    return found


def tree_hwm_mb(pid: int) -> float:
    """Summed ``VmHWM`` of ``pid`` and all its descendants."""
    return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in descendants(pid))
