"""Tests of the benchmark itself, at the tiny workload sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import checks
import layers
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# layers each workload must exercise, and layers it bypasses (count 0)
EXERCISED = {
    "rb-fast": ["rb.pulse_shots", "noise.area_factor_calls", "cliffords.recovery_calls"],
    "rb-fit": ["fitting.mle_calls", "fitting.bootstrap_s"],
    "rb-full": ["pulsesim.propagator_calls", "noise.depth_at_calls"],
    "characterize": ["calibration.run_train_calls", "calibration.cal_steps", "filterfunc.chi_calls",
                     "budget.table_s"],
}
BYPASSED = {
    "rb-fast": ["pulsesim.propagator_calls", "calibration.run_train_calls", "filterfunc.chi_calls"],
    "rb-fit": ["rb.pulse_shots", "noise.area_factor_calls", "pulsesim.propagator_calls"],
    "rb-full": ["rb.pulse_shots", "noise.area_factor_calls", "calibration.run_train_calls"],
    # only the idle-rates command reaches the idle estimator, and no workload runs it
    "characterize": ["rb.run_rb_calls", "rb.pulse_shots", "pulsesim.propagator_calls", "fitting.mle_calls",
                     "budget.idle_estimate_s"],
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_run(workload: str, trace: bool, refs: dict | None = None) -> dict:
    env, result = run.run_benchmark(workload, seed=1, seconds=0.0, trace=trace, size="tiny", refs=refs)
    args = Namespace(workload=workload, seed=1, trace=int(trace))
    return run.report(args, "tiny", env, result)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
    assert sorted(WORKLOADS) == sorted(run.workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = tiny_run(workload, trace=False)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    out = tiny_run(workload, trace=True)
    # a traced output that differs from the untraced one counts as failed
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name
    assert metrics["trace.wall_s"]["value"] > 0


def test_corrupted_error_count_is_counted_as_failed():
    refs = json.loads((run.HERE / "refs" / "tiny.json").read_text())
    doc = refs["rb-fast"][str(run.workloads.cli_seed(1))][0]
    doc["dataset"]["records"][0]["errors"] += 1
    out = tiny_run("rb-fast", trace=False, refs=refs)
    assert not out["correct"]
    assert out["failed"] == 1 and out["failed"] / out["attempted"] > 0


def test_error_count_above_shots_fails_the_check():
    cmd = ["rb", "--lengths", "5", "--sequences", "1", "--shots", "3"]
    doc = {"dataset": {"records": [{"length": 5, "seq_id": 0, "errors": 4, "shots": 3}]}}
    problems = checks.check_output(cmd, json.dumps(doc).encode(), doc, b"")
    assert problems and "errors <= shots" in problems[0]


def test_floats_are_compared_with_relative_tolerance():
    assert checks.check_output(["budget"], b'{"x": 1.0000000000001}', {"x": 1.0}, b"") == []
    assert checks.check_output(["budget"], b'{"x": 1.000001}', {"x": 1.0}, b"") != []
    assert checks.check_output(["budget"], b'{"n": 2}', {"n": 3}, b"") != []


def test_traced_output_must_match_the_untraced_output():
    table = (ROOT / "tests" / "data" / "clifford_table.json").read_bytes()
    plain = run.Invocation(["clifford-table"], 0, 1.0, 0.5, 1.0, 80.0, table, "", None)
    traced = run.Invocation(["clifford-table"], 0, 1.0, 0.5, 1.0, 80.0, table + b" ", "", {})
    assert run.problems_of(plain, None, table, None) == []
    assert run.problems_of(traced, None, table, plain)


def test_self_time_excludes_child_spans():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "run": "r", "attrs": None}

    trace = {"counts": {}, "spans": [
        span("rb.a", 0.0, 10.0, None), span("rb.b", 1.0, 4.0, 0), span("noise.d", 2.0, 3.0, 1),
        span("rb.c", 5.0, 6.0, 0),
    ]}
    stats, _ = layers.span_stats([trace])
    assert stats["rb.a"].self_s == pytest.approx(6.0)
    assert stats["rb.b"].self_s == pytest.approx(2.0)
    assert stats["rb.a"].total_s == pytest.approx(10.0)
    assert stats["noise.d"].self_s == pytest.approx(1.0)


def test_scipy_import_share_counts_only_outermost_scipy_modules():
    importtime = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.optimize._x",
        "import time:        15 |         20 |   scipy.optimize",
        "import time:        40 |         90 | qubitbench.fitting",
        "import time:         7 |          7 | numpy",
    ])
    assert layers.scipy_import_s(importtime) == pytest.approx(50e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rb-fast", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
