"""Write the reference outputs the benchmark checks every invocation against.

Run from the repository root:

    python3 perfbench/make_refs.py            # both sizes
    python3 perfbench/make_refs.py tiny       # one size

The references pin the program's outputs for every CLI seed the benchmark
ships.  They were generated once at the commit that introduced the
benchmark; regenerate them only in a change whose purpose is to alter
outputs, never in one that claims a speed-up.  ``clifford-table`` has no
entry here: its output is compared byte for byte with
``tests/data/clifford_table.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import N_SEEDS, SIZES, WORKLOADS, cli_env, commands

REF_DIR = Path(__file__).resolve().parent / "refs"


def reference(cmd: list[str]) -> object:
    if cmd[0] == "clifford-table":
        return None
    out = subprocess.run(
        [sys.executable, "-m", "qubitbench.cli", *cmd],
        env=cli_env(), check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(sizes: list[str]) -> None:
    for size in sizes:
        refs: dict = {}
        for workload in WORKLOADS:
            refs[workload] = {}
            for seed in range(N_SEEDS):
                cmds = commands(workload, size, seed)
                refs[workload][cmds[0][-1]] = [reference(cmd) for cmd in cmds]
                print(f"{size} {workload} seed {seed}", file=sys.stderr, flush=True)
        REF_DIR.mkdir(exist_ok=True)
        text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
        (REF_DIR / f"{size}.json").write_text(text + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(SIZES))
