"""The traced benchmark wraps qubitbench functions by name; check those names exist.

``perfbench/tracer.py`` resolves each module's ``__all__`` functions plus its
``EXTRA`` methods and private engine functions when a traced run starts, so a
rename in ``src`` would otherwise fail only there.  The module is loaded from
its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


@pytest.fixture(scope="module")
def wrapped(tracer):
    """(layer, qualified name) of every function the tracer would wrap."""
    return {(layer, fn.__qualname__) for layer, _, _, fn in tracer._targets()}


def test_every_extra_name_resolves(tracer, wrapped):
    missing = [
        (layer, name) for layer, names in tracer.EXTRA.items() for name in names if (layer, name) not in wrapped
    ]
    assert not missing


def test_full_tier_functions_are_wrapped(wrapped):
    # the rb-full workload's pulsesim metrics read this span
    assert ("pulsesim", "pulse_propagator") in wrapped
