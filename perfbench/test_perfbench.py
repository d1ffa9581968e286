"""Tests of the benchmark itself, in small mode (levels <= 2).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from spans import Span, self_times  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    worker.import_carpetlab()
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def small_run(name: str, reference: dict, work, trace: bool = False) -> dict:
    return worker.run_workload(name, seed=5, seconds=0.0, trace=trace, small=True,
                               reference=reference, work=str(work))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {d["name"]: d["unit"] for d in declared})
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload, path, factor", [
    ("constants", ("constants", "carpet26_n2", "lambda"), 1.001),
    ("build", ("graphs", "carpet26_n2", "edges"), 2),
])
def test_wrong_reference_raises_fail_frac(reference, tmp_path, workload, path, factor):
    wrong = copy.deepcopy(reference)
    section, key, field = path
    wrong[section][key][field] *= factor
    result = small_run(workload, wrong, tmp_path, trace=True)
    assert result["per_layer"]["fail_frac"] > 0
    assert small_run(workload, reference, tmp_path, trace=True)["per_layer"]["fail_frac"] == 0


def test_seed_alone_drives_the_inputs(reference):
    import workloads

    assert workloads.draw_inputs(1, False) == workloads.draw_inputs(1, False)
    assert workloads.draw_inputs(1, False) != workloads.draw_inputs(2, False)


def test_trace_self_times_add_up_to_the_pass(reference, tmp_path):
    result = small_run("walk", reference, tmp_path, trace=True)
    spans = [Span(**s) for s in result["spans"]]
    selfs = self_times(spans)
    roots = [s for s in spans if s.name == "bench.pass"]
    assert roots
    for root in roots:
        members = [s for s in spans if s.run == root.run]
        assert len(members) > 1
        assert sum(selfs[s.id] for s in members) == pytest.approx(root.end - root.start,
                                                                 rel=1e-9)


def test_self_time_subtracts_nested_children():
    spans = [Span(0, "root", "r", None, 0.0, 10.0),
             Span(1, "a", "r", 0, 1.0, 4.0),
             Span(2, "a.inner", "r", 1, 2.0, 3.0),
             Span(3, "b", "r", 0, 5.0, 6.0)]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
