"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# layers a workload never reaches, and layers it must reach
ZERO_CALLS = {
    "train-k1024": ["tree.data.parse", "flat.data.parse", "tree.model_io.load", "tree.cli.self"],
    "predict-k4096": ["tree.tree.candidates", "tree.tree.entropy", "tree.linear.learn",
                      "flat.linear.learn"],
    "online-k64-wide": ["tree.data.parse", "flat.data.parse", "tree.model_io.load"],
}
SOME_CALLS = {
    "train-k1024": ["tree.tree.candidates", "tree.linear.learn", "flat.oaa.self"],
    "predict-k4096": ["tree.data.parse", "tree.model_io.load", "tree.cli.self", "flat.oaa.self"],
    "online-k64-wide": ["tree.evaluation.self", "tree.linear.learn", "flat.evaluation.self"],
}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _assert_printed(lines: list[str], result: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    _assert_printed(lines, result, DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("info machine ") for line in lines)
    assert any(line.startswith("info tree_ex_per_s/flat_ex_per_s") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_shows_where_layers_work(workload):
    lines, result = _run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    _assert_printed(lines, result, DECLARED["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ZERO_CALLS[workload]:
        assert metrics[f"{layer}.calls_per_ex"] == 0, layer
    for layer in SOME_CALLS[workload]:
        assert metrics[f"{layer}.calls_per_ex"] > 0, layer
    assert metrics["trace.tree_ex_per_s_traced"] > 0
    assert not any(line.startswith("info not measured") for line in lines)
