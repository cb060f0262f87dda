"""Output checks applied to every benchmarked invocation.

An invocation passes when it exits 0, prints JSON that parses, keeps the
record invariants of an RB dataset and matches the reference document
generated at the seed commit, with ROADMAP aim 2's tolerances:

* RB error counts, calibration integers and booleans: identical;
* RB fit floats (epsilon, its CI, the amplitude): 1e-6 relative;
* every other float (calibration, Walsh, filter functions, budget): 1e-9
  relative;
* ``clifford-table``: byte-identical to ``tests/data/clifford_table.json``.

The ``run`` stamp's ``config_hash`` and ``version`` are not compared: they
change when a parameter is added to a command, which does not change a
result.
"""

from __future__ import annotations

import json
import math

RB_RTOL = 1e-6
RTOL = 1e-9
UNCOMPARED = {("run", "config_hash"), ("run", "version")}
MAX_PROBLEMS = 5


def _flag(cmd: list[str], name: str) -> str:
    return cmd[cmd.index(name) + 1]


def _rb_invariants(cmd: list[str], doc: dict) -> list[str]:
    lengths = {int(x) for x in _flag(cmd, "--lengths").split(",")}
    sequences, shots = int(_flag(cmd, "--sequences")), int(_flag(cmd, "--shots"))
    records = doc["dataset"]["records"]
    problems = []
    if len(records) != len(lengths) * sequences:
        problems.append(f"{len(records)} records, expected {len(lengths)} lengths x {sequences} sequences")
    if {r["length"] for r in records} != lengths:
        problems.append("record lengths differ from --lengths")
    for r in records:
        if r["shots"] != shots or not 0 <= r["errors"] <= shots:
            problems.append(f"record {r}: need shots == {shots} and 0 <= errors <= shots")
    return problems


def _compare(got, want, rtol: float, path: tuple = ()) -> list[str]:
    where = "/".join(map(str, path)) or "document"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ from the reference"]
        problems = []
        for key in sorted(want):
            if path + (key,) not in UNCOMPARED:
                problems += _compare(got[key], want[key], rtol, path + (key,))
        return problems
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items, reference has {len(want)}"]
        problems = []
        for i, (g, w) in enumerate(zip(got, want)):
            problems += _compare(g, w, rtol, path + (i,))
        return problems
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} differs from reference {want!r} by more than {rtol:g} relative"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} differs from reference {want!r}"]
    return []


def check_output(cmd: list[str], stdout: bytes, reference, clifford_table: bytes) -> list[str]:
    """Problems with one invocation's output; empty when it passes."""
    if cmd[0] == "clifford-table":
        if stdout != clifford_table:
            return ["clifford-table output differs from tests/data/clifford_table.json"]
        return []
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if cmd[0] == "rb":
        try:
            problems += _rb_invariants(cmd, doc)
        except (KeyError, TypeError) as exc:
            problems.append(f"malformed RB document: {exc!r}")
    problems += _compare(doc, reference, RB_RTOL if cmd[0] == "rb" else RTOL)
    return problems[:MAX_PROBLEMS]
