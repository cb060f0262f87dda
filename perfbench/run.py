"""qubitbench benchmark: CLI time to result on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rb-fast --seed 0 --seconds 30 --trace 0

One client runs the workload's CLI invocations one after another, each in a
fresh interpreter (a closed loop), and repeats the whole session until the
next repetition would overrun ``--seconds``.  Every invocation's output is
checked (``checks.py``).  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics, each the median over repetitions:

* ``wall_s``: spawn to exit, summed over the session's invocations;
* ``setup_s``: the part of ``wall_s`` before each command starts work
  (interpreter start, ``import qubitbench.cli``, argument parsing);
* ``peak_rss_mb``: the highest max-RSS among the session's invocations.

``failed`` / ``attempted`` counts invocations that exited non-zero or failed
their check: that ratio is ``failed_frac``.  With ``--trace 1`` each
repetition is an untraced session followed by a traced one, and the last
line holds the per-layer metrics of ``layers.py``; a traced output must be
byte-identical to the untraced one.  Lines before the last describe the run
for a human reader.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
CLIFFORD_TABLE = Path("tests/data/clifford_table.json")
CLI_SOURCE = Path("src/qubitbench/cli.py")
# children still running this long after start are killed, so that the
# benchmark always ends within its 180 s limit
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Invocation:
    cmd: list[str]
    returncode: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes
    stderr: str
    trace: dict | None


class Spawner:
    """Starts invocations from the checkout root and waits for each to end."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.kill_at = started + HARD_LIMIT_S
        self.env = workloads.cli_env()
        self.count = 0

    def _wait(self, argv: list[str], stdout, stderr) -> tuple[int, object]:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env)
        watchdog = threading.Timer(max(self.kill_at - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def environment(self) -> dict:
        """Versions of the interpreter stack; also warms byte-code caches."""
        out = self.work / "env.json"
        with open(out, "wb") as fo:
            code, _ = self._wait([sys.executable, str(HERE / "runner.py"), "--env"], fo, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("cannot import qubitbench from src/")
        return json.loads(out.read_text())

    def invoke(self, cmd: list[str], trace: bool) -> Invocation:
        self.count += 1
        base = self.work / f"inv{self.count}"
        marks, spans = base.with_suffix(".marks"), base.with_suffix(".spans")
        argv = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "runner.py"), str(marks),
                *(["--trace", str(spans)] if trace else []), "--", *cmd]
        with open(base.with_suffix(".out"), "wb") as fo, open(base.with_suffix(".err"), "wb") as fe:
            spawned = time.monotonic()
            code, usage = self._wait(argv, fo, fe)
            ended = time.monotonic()
        parsed = json.loads(marks.read_text()).get("parsed", ended) if marks.exists() else ended
        return Invocation(
            cmd=cmd,
            returncode=code,
            wall_s=ended - spawned,
            setup_s=parsed - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
            stdout=base.with_suffix(".out").read_bytes(),
            stderr=base.with_suffix(".err").read_text(errors="replace"),
            trace=json.loads(spans.read_text()) if trace and spans.exists() else None,
        )


def session_metrics(invs: list[Invocation]) -> dict[str, float]:
    return {
        "wall_s": sum(i.wall_s for i in invs),
        "setup_s": sum(i.setup_s for i in invs),
        "peak_rss_mb": max(i.rss_mib for i in invs),
    }


def problems_of(inv: Invocation, reference, clifford_table: bytes, untraced: Invocation | None) -> list[str]:
    if inv.returncode != 0:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {inv.returncode}: {tail[0]}"]
    problems = checks.check_output(inv.cmd, inv.stdout, reference, clifford_table)
    if untraced is not None and inv.stdout != untraced.stdout:
        problems.append("traced output differs from the untraced output")
    return problems


def summarize(samples: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    """Median, sample count and range of each metric over repetitions."""
    return {
        name: {
            "median": statistics.median(s[name] for s in samples),
            "n": len(samples),
            "min": min(s[name] for s in samples),
            "max": max(s[name] for s in samples),
        }
        for name in samples[0]
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, refs: dict,
            spawner: Spawner, clifford_table: bytes) -> dict:
    """Run repetitions of the workload for ``seconds`` and check every output."""
    deadline = time.monotonic() + seconds
    longest = 0.0
    e2e, layer, failures = [], [], []
    attempted = failed = 0
    for rep in itertools.count():
        # successive repetitions take successive CLI seeds, so that a run's
        # median spans several inputs rather than the work of one seed
        cmds = workloads.commands(workload, size, seed + rep)
        references = refs[workload][str(workloads.cli_seed(seed + rep))]
        began = time.monotonic()
        plain = [spawner.invoke(cmd, trace=False) for cmd in cmds]
        traced = [spawner.invoke(cmd, trace=True) for cmd in cmds] if trace else []
        longest = max(longest, time.monotonic() - began)
        checked = [(inv, ref, None) for inv, ref in zip(plain, references)]
        checked += [(inv, ref, twin) for inv, ref, twin in zip(traced, references, plain)]
        for inv, ref, twin in checked:
            problems = problems_of(inv, ref, clifford_table, twin)
            attempted += 1
            failed += bool(problems)
            label = ("traced " if twin else "") + " ".join(inv.cmd)
            failures += [f"{label}: {p}" for p in problems]
        e2e.append(session_metrics(plain))
        if trace and all(inv.trace is not None for inv in traced):
            layer.append(
                layers.layer_metrics(
                    [inv.trace for inv in traced],
                    [inv.stderr for inv in traced],
                    traced_wall_s=sum(i.wall_s for i in traced),
                    untraced_wall_s=e2e[-1]["wall_s"],
                    untraced_cpu_s=sum(i.cpu_s for i in plain),
                )
            )
        if time.monotonic() + longest > deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": summarize(e2e),
        "per_layer": summarize(layer) if layer else {},
    }


def host() -> dict:
    """Where the run happened: CPU, thread settings and commit, if known."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        target = Path(".git") / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
    }


def report(args, size: str, env: dict, result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    units = {**END_TO_END, **{name: unit for name, (unit, _) in layers.PER_LAYER.items()}}
    section = "per_layer" if args.trace else "end_to_end"
    stats = result[section]
    reps = result["end_to_end"]["wall_s"]["n"]
    print(f"perfbench {args.workload} size={size} seed={args.seed} "
          f"first_cli_seed={workloads.cli_seed(args.seed)} trace={args.trace} repetitions={reps}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, st in {**result["end_to_end"], **stats}.items():
        print(f"{name:<36} {st['median']:>14.6g} {units[name]:<6} median of {st['n']}, "
              f"range {st['min']:.6g} .. {st['max']:.6g}")
    print(f"{'failed_frac':<36} {result['failed'] / result['attempted']:>14.6g} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']} invocations")
    for line in result["failures"][:20]:
        print("FAIL " + line)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": st["median"], "unit": units[name]} for name, st in stats.items()},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str,
                  refs: dict | None = None) -> tuple[dict, dict]:
    """Measure one workload from the checkout root; returns (environment, result)."""
    started = time.monotonic()
    if refs is None:
        refs = json.loads((HERE / "refs" / f"{size}.json").read_text())
    work_root = Path(".perfbench_work")
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        spawner = Spawner(work, started)
        env = {**spawner.environment(), **host()}
        result = measure(workload, seed, seconds, trace, size, refs, spawner, CLIFFORD_TABLE.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return env, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qubitbench CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CLI_SOURCE.is_file() and CLIFFORD_TABLE.is_file()):
        print(f"perfbench: {CLI_SOURCE} or {CLIFFORD_TABLE} is missing; "
              "run from the root of a qubitbench checkout", file=sys.stderr)
        return 2
    env, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(report(args, "full", env, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
