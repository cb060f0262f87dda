"""Alternating base/change runs of the benchmark, summarized as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``perfbench/`` and ``src/``):

    python3 scripts/bench_pairs.py --base ../parent --change . --out BENCH.json \\
        --pairs rb-fast=10 rb-fit=3 rb-full=3 characterize=3 --traced rb-fast

Pair ``i`` of a workload runs ``python3 perfbench/run.py --workload W --seed i
--seconds 30 --trace 0`` once in each checkout, the base first on even pairs
and the change first on odd ones, so that slow drift of a shared host falls
on both sides.  The file holds every run's end-to-end metrics, their median
and quartiles per side, and in how many pairs the change had the lower
``wall_s``.  ``--traced`` adds one ``--trace 1`` run per side (seed 0) with
all of its metrics, the layer metrics among them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its metric values, ``failed``/``attempted`` and ``env`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    final = json.loads(lines[-1])
    result = {name: metric["value"] for name, metric in final["metrics"].items()}
    result.update(failed=final["failed"], attempted=final["attempted"])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", nargs="+", required=True, help="WORKLOAD=N")
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {},
        "traced": {},
    }
    for spec in args.pairs:
        workload, n = spec.split("=")
        sides = {"base": [], "change": []}
        for i in range(int(n)):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run(getattr(args, side), workload, seed, args.seconds, 0)
                sides[side].append(result)
                print(workload, seed, side, {m: result[m] for m in METRICS}, file=sys.stderr)
        entry = {"pairs": int(n), "seeds": [args.first_seed + i for i in range(int(n))]}
        for side, results in sides.items():
            entry[side] = {m: summary([r[m] for r in results]) for m in METRICS}
            entry[side]["failed"] = sum(r["failed"] for r in results)
            entry[side]["attempted"] = sum(r["attempted"] for r in results)
            doc.setdefault("env", {})[side] = results[0]["env"]
        base_wall = [r["wall_s"] for r in sides["base"]]
        change_wall = [r["wall_s"] for r in sides["change"]]
        entry["change_faster_pairs"] = sum(c < b for b, c in zip(base_wall, change_wall))
        doc["workloads"][workload] = entry
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for workload in args.traced:
        doc["traced"][workload] = {side: run(getattr(args, side), workload, 0, args.seconds, 1)
                                   for side in ("base", "change")}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
