"""Byte-for-byte comparison of the CLI documents of two checkouts.

Run from anywhere, with two checkouts of the repository (each needs ``src/``):

    python3 scripts/same_docs.py --base ../parent [--change .] [--size full] [--seeds 16]

Both checkouts write the same documents: every invocation of the benchmark's
workloads (``perfbench.workloads.WORKLOADS`` at ``--size``) for each of the
first ``--seeds`` of its ``N_SEEDS`` CLI seeds, then the ``EXTRAS``, which
the workloads do not write, at the CLI's default seed.  At the full size and
all 16 seeds that is 128 workload documents and 6 extras.

Each checkout runs its documents in one fresh interpreter, in the checkout and
with the benchmark's environment (``cli_env``), one ``qubitbench.cli.main``
call per document; the two checkouts run side by side.  The script prints
each document whose stdout or exit code differs and exits 1 if any does, or
if a checkout's interpreter fails.  It imports ``perfbench.workloads`` from
its own checkout, and nothing of ``qubitbench``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import N_SEEDS, SIZES, WORKLOADS, cli_env, commands  # noqa: E402

# documents the workloads do not write: the other formats and commands
EXTRAS = [
    ["idle-rates"],
    ["budget", "--curve", "1"],
    ["irmb", "--delays", "0,1e-5", "--lengths", "10,100", "--sequences", "2", "--shots", "10"],
    ["rb", "--lengths", "20,60", "--sequences", "3", "--shots", "20", "--format", "csv"],
    ["calibrate", "--format", "jsonl"],
    ["walsh"],
]

# takes a JSON list of argument lists; writes one {"stdout", "rc"} per list
CHILD = """
import contextlib, io, json, sys
from qubitbench import cli
docs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    docs.append({"stdout": out.getvalue(), "rc": rc})
json.dump(docs, sys.stdout)
"""


def invocations(size: str, seeds: int) -> list[list[str]]:
    """Every document's arguments: the workloads' for each seed, then the extras."""
    return [cmd for seed in range(seeds) for workload in WORKLOADS for cmd in commands(workload, size, seed)] + EXTRAS


def start(checkout: Path, argvs: list[list[str]]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(argvs)], cwd=checkout, env=cli_env(),
                            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--seeds", type=int, choices=range(1, N_SEEDS + 1), default=N_SEEDS, metavar="1..16")
    args = parser.parse_args(argv)

    argvs = invocations(args.size, args.seeds)
    checkouts = (args.base, args.change)
    procs = [start(checkout, argvs) for checkout in checkouts]
    outputs = [proc.communicate() for proc in procs]
    for checkout, proc, (_, err) in zip(checkouts, procs, outputs):
        if proc.returncode != 0:
            print(f"same_docs: the documents of {checkout} failed (exit {proc.returncode}):\n{err}", file=sys.stderr)
            return 1
    base, change = (json.loads(out) for out, _ in outputs)
    differ = [(cmd, b, c) for cmd, b, c in zip(argvs, base, change) if b != c]
    for cmd, b, c in differ:
        print(f"differs: qubitbench {' '.join(cmd)} (exit {b['rc']} -> {c['rc']})")
    print(f"{len(argvs)} documents compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
