"""The benchmark's view of the library, in tier-1.

`benchmarks/workloads.py` builds features, keypoints, frames and descriptors
and runs the per-keypoint stage functions in its traced path, but the
benchmark's own smoke test is not collected here.  These tests import its
workloads (writing nothing under benchmarks/) and make, on op 0 of seed 1,
the comparisons `benchmarks/run.py --trace 1` makes between the plain and
the staged run of an op.
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    """The benchmark's workloads and tracing modules, imported without bytecode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(ROOT / "benchmarks"))
        return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_workloads_are_those_benchmark_json_names(bench):
    workloads, _ = bench
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("name", ["register_dense", "phantom64"])
def test_an_op_gives_one_result_plain_and_staged(bench, tmp_path, name):
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    inp = workload.prepare(state, 0)
    plain = workload.op(state, 0, inp, tracing.NullTracer(), False)
    tracer = tracing.Tracer(op=0)
    with tracer.span("op"):
        staged = workload.op(state, 0, inp, tracer, True)
    init = workloads.probe(staged, workload.registration, tracer)
    assert workloads.same_features(plain.moving, staged.moving)
    assert workloads.same_features(plain.fixed, staged.fixed)
    assert plain.stats == staged.stats
    assert workloads.same_transform(plain.result.transform, staged.result.transform)
    assert plain.result.iterations == staged.result.iterations
    assert workloads.same_init(init, staged.result.init)
    assert plain.within_limits
    # every layer the per-layer metrics read was traced
    names = {span.name for span in tracer.spans}
    assert {"registration.register", "matching.hough_init", "kernels.kernel_matrix"} <= names
