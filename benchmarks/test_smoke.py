"""Smoke test for the benchmark: every workload at minimal length.

Run with ``python3 -m pytest benchmarks/test_smoke.py`` from the repository
root (a few minutes; the tier-1 suite does not collect it).  Checks that each
result line carries exactly the metrics BENCHMARK.json names, with their
units, and that the traced run's counters repeat exactly across two runs.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "keypoints.count",
    "matching.inliers",
    "registration.iterations",
    "registration.estep_pairs",
)
SEED = 3


def run(workload: str, trace: int) -> dict:
    # --seconds 0 runs exactly one op
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    plain = run(workload, 0)
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    first, second = run(workload, 1), run(workload, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
