"""The acceptance verdict that ``scripts/bench_pairs.py`` writes per workload and metric,
and what it reports and keeps when a benchmark run fails.

The script is loaded from its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


BASE = [3.0, 3.1, 2.9, 3.0, 3.2, 2.8, 3.0, 3.1, 2.9, 3.0]


def judge(bench_pairs, change, better="lower", bound=0.25, base=BASE):
    return bench_pairs.verdict(bench_pairs.summary(base), bench_pairs.summary(change), better, bound)


def test_a_win_in_every_pair_beyond_the_base_spread_is_resolved(bench_pairs):
    v = judge(bench_pairs, [b - 1.0 for b in BASE])
    assert v["pairs_won"] == 10
    assert v["gain_resolved"] and not v["beyond_bound"] and not v["unresolved"]
    assert v["median_change"] == pytest.approx(-1.0 / 3.0)


def test_eight_wins_in_ten_do_not_resolve_a_gain(bench_pairs):
    change = [b - 1.0 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
    v = judge(bench_pairs, change)
    assert v["pairs_won"] == 8
    assert not v["gain_resolved"]


def test_ties_count_for_neither_side(bench_pairs):
    v = judge(bench_pairs, list(BASE))
    assert v["pairs_won"] == 0
    assert not v["gain_resolved"] and not v["beyond_bound"]


def test_a_worse_median_beyond_the_bound_is_flagged(bench_pairs):
    assert judge(bench_pairs, [b * 1.3 for b in BASE])["beyond_bound"]
    assert not judge(bench_pairs, [b * 1.2 for b in BASE])["beyond_bound"]


def test_higher_is_better_reverses_every_comparison(bench_pairs):
    v = judge(bench_pairs, [b - 1.0 for b in BASE], better="higher")
    assert v["pairs_won"] == 0
    assert v["beyond_bound"] and not v["gain_resolved"]


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    assert judge(bench_pairs, [b * 1.001 for b in BASE], bound=0.01)["unresolved"]
    # unless every run of the change beats every run of the base
    assert not judge(bench_pairs, [b - 1.0 for b in BASE], bound=0.01)["unresolved"]


def test_outcome_collects_the_verdicts_and_claims(bench_pairs):
    entries = {
        "fast": {"verdict": {"wall_s": judge(bench_pairs, [b - 1.0 for b in BASE])}, "more_failures": False},
        "slow": {"verdict": {"wall_s": judge(bench_pairs, [b * 1.3 for b in BASE])}, "more_failures": True},
    }
    outcome = bench_pairs.outcome(entries, ["fast:wall_s", "slow:wall_s", "absent:wall_s"])
    assert outcome["beyond_bound"] == ["slow:wall_s"]
    assert outcome["more_failures"] == ["slow"]
    assert outcome["claims_resolved"] == {"fast:wall_s": True, "slow:wall_s": False, "absent:wall_s": None}


# a stand-in for perfbench/run.py: prints the lines the script reads, or, for
# the seeds in FAIL_SEEDS, writes to stderr and exits 1
FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in FAIL_SEEDS:
    print("run.py: seed", seed, "broke", file=sys.stderr)
    sys.exit(1)
print("env " + json.dumps({"python": "x"}))
metrics = {name: {"value": 1.0 + seed} for name in ("wall_s", "setup_s", "peak_rss_mb")}
print(json.dumps({"metrics": metrics, "failed": 0, "attempted": 1}))
"""


def _checkout(root, fail_seeds):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.replace("FAIL_SEEDS", repr(set(fail_seeds))))
    rules = [{"name": m, "better": "lower", "bound": 0.25} for m in ("wall_s", "setup_s", "peak_rss_mb")]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": rules}))
    return root


def test_a_failed_run_is_reported_and_the_pairs_run_so_far_are_kept(bench_pairs, tmp_path, capsys):
    base, change = _checkout(tmp_path / "base", []), _checkout(tmp_path / "change", [1])
    out = tmp_path / "out.json"
    code = bench_pairs.main(["--base", str(base), "--change", str(change), "--out", str(out),
                             "--pairs", "w=3", "--seconds", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(change) in err and "perfbench/run.py --workload w --seed 1" in err
    assert "exit code: 1" in err and "run.py: seed 1 broke" in err
    doc = json.loads(out.read_text())
    assert doc["failure"]["returncode"] == 1 and doc["failure"]["checkout"] == str(change)
    # pair 1 runs the change first, so only pair 0 is complete
    runs = doc["incomplete"]["runs"]
    assert doc["incomplete"]["workload"] == "w"
    assert [r["wall_s"] for r in runs["base"]] == [r["wall_s"] for r in runs["change"]] == [1.0]
