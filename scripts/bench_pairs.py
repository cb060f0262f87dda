"""Alternating base/change runs of the benchmark, summarized as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``perfbench/`` and ``src/``):

    python3 scripts/bench_pairs.py --base ../parent --change . --out BENCH.json \\
        --pairs rb-fit=10 rb-fast=3 rb-full=3 characterize=3 --traced rb-fit \\
        --claim rb-fit:wall_s

Pair ``i`` of a workload runs ``python3 perfbench/run.py --workload W --seed i
--seconds 30 --trace 0`` once in each checkout, the base first on even pairs
and the change first on odd ones, so that slow drift of a shared host falls
on both sides.  The file holds every run's end-to-end metrics and their
median and quartiles per side.  ``--traced`` adds one ``--trace 1`` run per
side (seed 0) with all of its metrics, the layer metrics among them.

Each workload's ``verdict`` applies the benchmark's acceptance rule to every
end-to-end metric, with the direction and bound read from the base checkout's
``BENCHMARK.json``:

* ``median_change``: change median over base median, minus 1;
* ``base_iqr`` and ``pairs_won`` (pairs in which the change did better);
* ``beyond_bound``: the change median is worse than the base median by more
  than the metric's bound, relative to the base median;
* ``gain_resolved``: the change did better in at least 90% of the pairs and
  its median beats the base median by more than the base IQR;
* ``unresolved``: the base IQR is wider than the bound allows, and not every
  change run beats every base run, so no bound verdict can be read.

``more_failures`` says whether a larger share of the change's invocations
failed.  ``--claim WORKLOAD:METRIC`` names a claimed gain; the top-level
``outcome`` lists the bounds exceeded, the unresolved metrics, the workloads
with more failures and whether each claim is resolved.

A ``--pairs`` entry needs N >= 2 (quartiles need two runs a side), and a
``--claim`` names a workload of ``--pairs`` and one of ``METRICS``; anything
else is a usage error (exit 2) before any run.

If a ``perfbench/run.py`` run exits non-zero, the script prints its checkout,
command, exit code and stderr, writes the file with the workloads done so
far, the complete pairs of the workload under way (``incomplete``) and the
failed run (``failure``), and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


class RunFailed(Exception):
    """A ``perfbench/run.py`` run that exited non-zero; ``report`` says which and why."""

    def __init__(self, report: dict):
        super().__init__(
            f"perfbench/run.py failed in {report['checkout']}\ncommand: {' '.join(report['command'])}\n"
            f"exit code: {report['returncode']}\nstderr:\n{report['stderr']}"
        )
        self.report = report


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its metric values, ``failed``/``attempted`` and ``env`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed({"checkout": str(checkout), "command": cmd, "returncode": proc.returncode,
                         "stderr": proc.stderr})
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    result = {name: metric["value"] for name, metric in final["metrics"].items()}
    result.update(failed=final["failed"], attempted=final["attempted"])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def _pair(text: str) -> tuple[str, int]:
    """``WORKLOAD=N`` as ``(WORKLOAD, N)``, N at least 2."""
    workload, _, n = text.partition("=")
    if not (workload and n.isdigit() and int(n) >= 2):
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD=N with N >= 2")
    return workload, int(n)


def _claim(text: str) -> str:
    """``WORKLOAD:METRIC`` with METRIC one of ``METRICS``."""
    workload, _, metric = text.partition(":")
    if not (workload and metric in METRICS):
        raise argparse.ArgumentTypeError(f"{text!r} is not WORKLOAD:METRIC with METRIC one of {', '.join(METRICS)}")
    return text


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(base: dict, change: dict, better: str, bound: float) -> dict:
    """The acceptance rule on one metric, from the two sides' summaries."""
    sign = 1.0 if better == "lower" else -1.0
    # positive where the change is better
    gain = sign * (base["median"] - change["median"])
    base_iqr = base["q3"] - base["q1"]
    won = sum(sign * (b - c) > 0 for b, c in zip(base["runs"], change["runs"]))
    every_run_better = max(sign * c for c in change["runs"]) < min(sign * b for b in base["runs"])
    return {
        "median_change": change["median"] / base["median"] - 1.0,
        "base_iqr": base_iqr,
        "pairs_won": won,
        "beyond_bound": -gain > bound * abs(base["median"]),
        "gain_resolved": won >= 0.9 * len(base["runs"]) and gain > base_iqr,
        "unresolved": base_iqr > bound * abs(base["median"]) and not every_run_better,
    }


def outcome(entries: dict, claims: list[str]) -> dict:
    """Bounds exceeded, workloads with more failures, and each claim's state."""
    resolved = {}
    for claim in claims:
        workload, metric = claim.split(":")
        entry = entries.get(workload)
        resolved[claim] = None if entry is None else entry["verdict"][metric]["gain_resolved"]
    return {
        "beyond_bound": [f"{w}:{m}" for w, e in entries.items() for m, v in e["verdict"].items()
                         if v["beyond_bound"]],
        "unresolved": [f"{w}:{m}" for w, e in entries.items() for m, v in e["verdict"].items()
                       if v["unresolved"]],
        "more_failures": [w for w, e in entries.items() if e["more_failures"]],
        "claims_resolved": resolved,
    }


def run_pairs(args: argparse.Namespace, rules: dict, doc: dict) -> None:
    """Fill `doc` with every workload's pairs and verdicts and the traced runs,
    writing ``--out`` after each workload."""
    for workload, n in args.pairs:
        sides = {"base": [], "change": []}
        # the complete pairs so far, kept in the file if a run fails
        doc["incomplete"] = {"workload": workload, "runs": sides}
        for i in range(n):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                pair[side] = run(getattr(args, side), workload, seed, args.seconds, 0)
                print(workload, seed, side, {m: pair[side][m] for m in METRICS}, file=sys.stderr)
            for side, result in pair.items():
                sides[side].append(result)
        del doc["incomplete"]
        entry = {"pairs": n, "seeds": [args.first_seed + i for i in range(n)]}
        for side, results in sides.items():
            entry[side] = {m: summary([r[m] for r in results]) for m in METRICS}
            entry[side]["failed"] = sum(r["failed"] for r in results)
            entry[side]["attempted"] = sum(r["attempted"] for r in results)
            doc.setdefault("env", {})[side] = results[0]["env"]
        entry["verdict"] = {
            m: verdict(entry["base"][m], entry["change"][m], rules[m]["better"], rules[m]["bound"])
            for m in METRICS
        }
        entry["more_failures"] = (entry["change"]["failed"] / entry["change"]["attempted"]
                                  > entry["base"]["failed"] / entry["base"]["attempted"])
        doc["workloads"][workload] = entry
        doc["outcome"] = outcome(doc["workloads"], args.claim)
        args.out.write_text(_dumps(doc))
    for workload in args.traced:
        doc["traced"][workload] = {side: run(getattr(args, side), workload, 0, args.seconds, 1)
                                   for side in ("base", "change")}
    args.out.write_text(_dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", nargs="+", required=True, type=_pair, help="WORKLOAD=N, N >= 2")
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", nargs="*", default=[], type=_claim, help="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    paired = {workload for workload, _ in args.pairs}
    if unpaired := [c for c in args.claim if c.partition(":")[0] not in paired]:
        parser.error(f"--claim {' '.join(unpaired)}: no such workload in --pairs")
    rules = {m["name"]: m for m in json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]}

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {},
        "traced": {},
    }
    try:
        run_pairs(args, rules, doc)
    except RunFailed as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        doc["failure"] = exc.report
        args.out.write_text(_dumps(doc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
