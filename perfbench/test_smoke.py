"""Smoke tests for the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload, traced and untraced, must print every metric BENCHMARK.json
names with its unit and pass its correctness gate; outside a source checkout
the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ORACLE_LAYERS = ("oracle.retrain_ms", "oracle.true_risk_ms",
                 "oracle.surrogate_risk_ms", "evaluation.mia_ms")


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())

    report = json.loads(report_line)["report"]
    assert report["end_to_end"]["failed_frac"] == 0
    assert report["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["blas_threads"] in (1, None)
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in wanted)
        return
    assert report["trace"]["absent"] == []
    assert report["trace"]["hook_errors"] == {}
    oracle_called = [metrics[name]["value"] > 0 for name in ORACLE_LAYERS]
    assert all(oracle_called) if workload == "oracle-preset" else not any(oracle_called)
    freezes = metrics["engine.exhausted_classes"]["value"]
    assert freezes == (1 if workload == "mlp-class-stream" else 0)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
