"""``scripts/same_docs.py`` at the tiny size: a checkout matches itself, and a
copy whose operating point moved does not."""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_docs.py"


def same_docs(base, change):
    return subprocess.run(
        [sys.executable, "-B", str(SCRIPT), "--base", str(base), "--change", str(change), "--size", "tiny",
         "--seeds", "1"],
        capture_output=True, text=True,
    )


def test_a_checkout_matches_itself():
    proc = same_docs(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "14 documents compared, 0 differ"


def test_a_moved_operating_point_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    presets = tmp_path / "src" / "qubitbench" / "presets.py"
    text = presets.read_text()
    assert text.count("\nSPAM = 1.1e-3\n") == 1
    presets.write_text(text.replace("\nSPAM = 1.1e-3\n", "\nSPAM = 1.2e-3\n"))

    proc = same_docs(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [line for line in proc.stdout.splitlines() if line.startswith("differs: ")]
    # the default noise, the testbed and idle-rates read SPAM; the depolarizing
    # rb, the budget and the Clifford table do not
    assert any("qubitbench calibrate" in line for line in differ)
    assert any("qubitbench idle-rates" in line for line in differ)
    assert not any("qubitbench clifford-table" in line for line in differ)
    assert proc.stdout.splitlines()[-1] == f"14 documents compared, {len(differ)} differ"
