"""Smoke test of the benchmark itself, at tiny scale (under a minute).

    python3 -m pytest perfbench/smoke_test.py -q

Checks, for every workload, that an untraced and a traced run print exactly
the metrics BENCHMARK.json names, with its units; that shifting one
reference by more than its bound fails the run loudly; and that the runner
refuses to run without the library source next to it.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the thread pools before numpy loads)
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny_run(name, trace):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.run_workload(name, seed=7, seconds=0, trace=trace,
                                max_ops=1, setup_repeats=1)
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), err.getvalue()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(name, trace):
    code, doc, err = _tiny_run(name, trace)
    assert code == 0, err
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in doc["metrics"].items()}
    for key, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), key
        if not trace:
            assert m["value"] > 0, key


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_gate_trips_on_a_shifted_reference(name, monkeypatch):
    real_gate = workloads.gate
    shifted = []

    def gate(label, value, error_estimate, converged, reference, rel_tol,
             ref_error=0.0):
        if not shifted:
            bound = max(error_estimate, rel_tol * abs(reference)) + ref_error
            reference += 2.0 * bound
            shifted.append(label)
        return real_gate(label, value, error_estimate, converged, reference,
                         rel_tol, ref_error)

    monkeypatch.setattr(workloads, "gate", gate)
    code, doc, err = _tiny_run(name, 0)
    assert shifted
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == 1
    assert "GATE FAILED" in err and shifted[0] in err


def test_refuses_to_run_without_the_library():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
