"""Workload definitions: the CLI sessions the benchmark times.

A workload is a list of CLI invocations run one after another, each in a
fresh interpreter, because every CLI user pays the interpreter start and the
``qubitbench`` import.  ``full`` is the measured size; ``tiny`` keeps every
code path of the full size but finishes in about a second per invocation,
for the benchmark's own tests.

The benchmark seed picks one of ``N_SEEDS`` CLI seeds.  References for every
one of them were generated at the seed commit (``make_refs.py``), so every
output the benchmark produces can be checked against a known-good document.
The first CLI seed is the CLI's own default.
"""

from __future__ import annotations

import os

SEED_BASE = 20260825  # the CLI's default --seed
N_SEEDS = 16

# kept small so that a 30 s run holds several sessions: each invocation
# pays about a second of interpreter start and import
CHARACTERIZE_FULL = [
    ["calibrate", "--kind", "both", "--n-max", "256"],
    ["walsh", "--max-order", "7", "--n-pulses", "128", "--shots", "500", "--sweep", "4,16,64,128"],
    ["phase-noise", "--irmb-delays", "0,2e-6,5e-6,1e-5"],
    ["budget"],
    ["clifford-table"],
]

CHARACTERIZE_TINY = [
    ["calibrate", "--kind", "both", "--n-max", "16", "--shots", "100"],
    ["walsh", "--max-order", "2", "--n-pulses", "16", "--shots", "200", "--sweep", "4,16"],
    ["phase-noise", "--taus", "1,10", "--irmb-delays", "0,1e-5"],
    ["budget"],
    ["clifford-table"],
]

# workload -> size -> commands (without --seed)
WORKLOADS: dict[str, dict[str, list[list[str]]]] = {
    # fast survival engine: per-pulse rotation and motional area factor
    "rb-fast": {
        "full": [["rb", "--lengths", "300,950,1500", "--sequences", "30", "--shots", "100"]],
        "tiny": [["rb", "--lengths", "20,60", "--sequences", "3", "--shots", "20"]],
    },
    # no coherent noise: the engine is bypassed, bootstrap refits dominate
    "rb-fit": {
        "full": [["rb", "--noise", "depol", "--depol", "1.5e-7",
                  "--lengths", "100,300,1000,3000,10000", "--sequences", "30",
                  "--shots", "100", "--bootstrap", "200"]],
        "tiny": [["rb", "--noise", "depol", "--depol", "1e-3", "--lengths", "10,100,1000",
                  "--sequences", "3", "--shots", "50", "--bootstrap", "20"]],
    },
    # the only path into pulsesim; the detuning makes error counts non-zero
    "rb-full": {
        "full": [["rb", "--tier", "full", "--lengths", "8,24", "--sequences", "2",
                  "--shots", "2", "--detuning-hz", "2e4"]],
        "tiny": [["rb", "--tier", "full", "--lengths", "2", "--sequences", "1",
                  "--shots", "2", "--detuning-hz", "2e4"]],
    },
    # calibration testbed, filter functions, budget and the start-up-bound commands
    "characterize": {"full": CHARACTERIZE_FULL, "tiny": CHARACTERIZE_TINY},
}

SIZES = ("full", "tiny")


def cli_seed(seed: int) -> int:
    """CLI ``--seed`` used for benchmark seed ``seed``."""
    return SEED_BASE + seed % N_SEEDS


def commands(workload: str, size: str, seed: int) -> list[list[str]]:
    """The workload's invocations with the CLI seed appended."""
    return [cmd + ["--seed", str(cli_seed(seed))] for cmd in WORKLOADS[workload][size]]


def cli_env() -> dict[str, str]:
    """Environment of a CLI invocation: ``src`` on the path, no seed or worker
    overrides, and the thread settings of the caller left as they are."""
    env = {k: v for k, v in os.environ.items() if k not in ("QUBITBENCH_SEED", "QUBITBENCH_WORKERS")}
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
