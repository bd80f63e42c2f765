"""Every workload runs end to end on its reduced job list, untraced and traced.

Same code path as the full benchmark (perfbench/run.py in a subprocess,
fresh workers), with the short job lists of workloads.REDUCED.
Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.per_layer_metrics()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines)
    ratio = [line.split() for line in lines if line.split()[:1] == ["failed_ratio"]]
    assert len(ratio) == 1
    assert ratio[0][:3] == ["failed_ratio", "0.0000", "ratio"]
    assert ratio[0][3:] == ["0", "of", str(result["attempted"]), "jobs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    lines, result = _run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["cli.smallscale.calls"]["value"] == (
        2 if workload == "dense" else 0
    )
