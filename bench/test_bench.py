"""Tests of the benchmark itself, at ``--size tiny``.

Each benchmark run is a fresh subprocess, as in real use: the
benchmark re-imports the package and pins BLAS threads, neither of which may
leak into the test process.
"""

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """{(workload, trace): (record, result)}, traced run first."""
    out = {}
    for name in WORKLOADS:
        for trace in (1, 0):
            out[name, trace] = parse(bench(name, trace))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_name(runs, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        _, result = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_then_untraced_run_gives_identical_quality(runs, workload):
    traced, _ = runs[workload, 1]
    untraced, _ = runs[workload, 0]
    # task 0 of both runs solves the same input
    assert traced["tasks"][-1]["quality"] == untraced["tasks"][0]["quality"]
    assert traced["tasks"][0]["quality"] == traced["tasks"][-1]["quality"]


def test_self_times_of_children_stay_within_the_parent(runs):
    for name in WORKLOADS:
        with open(ROOT / ".bench_work" / f"spans-{name}-3.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["name"] for r in rows} <= set(spans.LAYERS)
        duration = [float(r["end_s"]) - float(r["start_s"]) for r in rows]
        children = [0.0] * len(rows)
        for r, d in zip(rows, duration):
            if int(r["parent"]) >= 0:
                children[int(r["parent"])] += d
        for idx, d in enumerate(duration):
            assert children[idx] <= d + 1e-9, rows[idx]


def test_recorder_self_time_subtracts_child_spans():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.01)

    def parent():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = rec.wrap(leaf, "leaf")
    rec.wrap(parent, "parent")()
    totals = rec.layer_totals()
    calls, busy, self_s = totals["parent"]
    assert calls == 1 and totals["leaf"][0] == 2
    assert self_s == pytest.approx(busy - totals["leaf"][1], abs=1e-12)
    assert 0.0 < self_s < busy


def test_install_restores_every_patched_name():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import cpcomplete
    import cpcomplete.cli

    owners = (
        cpcomplete.completion, cpcomplete.completion.CPScalingOperator, cpcomplete.factor_updates,
        cpcomplete.hybrid_l1, cpcomplete.mor, cpcomplete.cli, cpcomplete.fileio,
    )
    before = [dict(vars(owner)) for owner in owners]
    rec = spans.Recorder()
    try:
        spans.install(rec, cpcomplete)
        assert hasattr(cpcomplete.completion.mm_update, "__wrapped__")
        assert hasattr(cpcomplete.completion.CPScalingOperator.matvec, "__wrapped__")
    finally:
        rec.restore()
    assert [dict(vars(owner)) for owner in owners] == before

    sampler = reference.Sampler()
    try:
        sampler.install(cpcomplete)
        assert cpcomplete.completion.masked_copy is not before[0]["masked_copy"]
    finally:
        sampler.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_fails_without_the_package_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
