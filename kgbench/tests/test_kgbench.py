"""Smoke tests of the benchmark itself: every workload, both modes, tiny sizes.

Run from the repository root::

    python3 -m pytest kgbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ["batch-cold", "http-hot", "fleet-mixed", "train"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "kgbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    done = bench("--profile", "smoke", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units_and_sample_counts(workload):
    detail, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    for name, reported in detail["end_to_end"].items():
        assert reported["samples"] >= 1, name
        assert reported["value"] > 0, name
    for name in ("latency_p90_ms", "latency_p99_ms"):
        assert detail[name]["unit"] == "ms" and detail[name]["samples"] >= 1
        assert detail[name]["beyond"] >= 0
    # The answer check and the input-digest check both ran.
    assert detail["checked"] > 0
    assert detail["inputs"] == {**detail["inputs"], "ok": True, "recipe": "ok",
                                "workload": "ok"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = smoke(workload, 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    shares = sum(metrics[name]["value"] for name in metrics if name.endswith(".self_share"))
    total = shares + metrics["trace.unaccounted_share"]["value"]
    assert total == pytest.approx(1.0, abs=1e-6)
    assert metrics["trace.overhead"]["value"] > 0
    assert metrics["host.ref_loop_ms"]["value"] > 0


def test_accuracy_is_identical_across_runs_of_one_seed():
    first = smoke("http-hot", 0)[1]["metrics"]
    second = smoke("http-hot", 0)[1]["metrics"]
    for name in ("accuracy", "weighted_f1"):
        assert first[name]["value"] == second[name]["value"]


def test_changed_inputs_fail_the_digest_check(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src")
    shutil.copytree(BENCH, copy / "kgbench", ignore=shutil.ignore_patterns("__pycache__"))
    manifest = copy / "kgbench" / "manifest.json"
    recorded = json.loads(manifest.read_text())
    recorded["digests"]["smoke"]["workloads"]["train"]["1"] = "0" * 64
    manifest.write_text(json.dumps(recorded))
    done = bench("--profile", "smoke", "--workload", "train", "--seed", "1",
                 "--seconds", "1", cwd=copy)
    assert done.returncode == 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
    assert "differ from the recorded digests" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "kgbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "batch-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
