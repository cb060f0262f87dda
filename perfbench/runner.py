"""Child-side entry point for one benchmarked CLI invocation.

    python perfbench/runner.py MARKS [--trace SPANS] -- <qubitbench args>

behaves like ``python -m qubitbench.cli <qubitbench args>`` and in addition
writes to MARKS, as JSON, the ``time.monotonic()`` instants at which
``import qubitbench.cli`` began and ended and at which argument parsing
returned.  On Linux that clock is shared by all processes, so the parent
can subtract its own spawn instant to get the set-up time.

With ``--trace`` the public functions of every qubitbench module are wrapped
in spans (see ``tracer.py``) and the spans are written to SPANS at exit.

    python perfbench/runner.py --env

prints the interpreter, numpy, scipy and BLAS versions as JSON; the
benchmark runs it once before timing so that byte-code caches are warm.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    import qubitbench.cli  # noqa: F401  (warms the byte-code cache)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment(), sort_keys=True))
        return 0
    marks_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    marks: dict[str, float] = {}
    parse_args = argparse.ArgumentParser.parse_args

    def stamped_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        marks.setdefault("parsed", time.monotonic())
        return namespace

    argparse.ArgumentParser.parse_args = stamped_parse_args
    marks["import_start"] = time.monotonic()
    import qubitbench.cli as cli

    marks["imported"] = time.monotonic()
    recorder = None
    if spans_path is not None:
        from tracer import Recorder

        recorder = Recorder(run=Path(spans_path).stem)
        recorder.install()
    try:
        return cli.main(rest)
    finally:
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)
        if recorder is not None:
            recorder.dump(spans_path, marks["import_start"], marks["imported"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
