"""Span recorder for the traced benchmark run.

``Recorder.install`` wraps the public functions of each qubitbench module
(its ``__all__``), plus the few methods and private engine functions the
per-layer metrics need, and rebinds every module attribute that refers to a
wrapped function: ``cli`` and ``rb`` import names with ``from ... import``,
so patching only the defining module would miss their calls.

A span is ``{name, start, end, parent, run, attrs}``: ``name`` is
``<module>.<qualname>``, times are ``time.monotonic()`` seconds, ``parent``
is the index of the enclosing span in the same invocation (``None`` at top
level) and ``run`` names the invocation.  ``attrs`` holds counters taken at
the same boundary, such as the pulses x shots of a testbed train.  Spans are
kept in memory and written as JSON when the invocation ends.

Functions called hundreds of thousands of times per run, where a span would
cost more than the work, are counted without a span (``COUNT_ONLY``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "cliffords", "noise", "rb", "pulsesim", "fitting", "calibration", "filterfunc", "budget")

# wrapped in addition to each module's __all__ functions
EXTRA = {
    "cli": ("main",),
    "noise": ("MotionalMode.mean_area_factor", "MotionalMode.depth_at"),
    "rb": ("_coherent_survival_fast", "_coherent_survival_full"),
    "calibration": ("SimulatedQubitTestbed.run_train",),
}
COUNT_ONLY = frozenset({"noise.MotionalMode.depth_at"})


def _argument(fn, name):
    """Getter for argument ``name`` of ``fn`` from a call's args and kwargs."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _engine_counts(plan, length: int, group) -> dict:
    """Useful pulses and masked-step slots of one fast-engine call.

    The fast engine pads every sequence to the longest one and steps all of
    them ``p_max`` times; a step is useful only where the sequence still has
    a pulse.  Recomputed from the plan after the run, outside any span.
    """
    pulses = np.array([e.pulse_count for e in group.elements])
    per_seq = []
    for s in range(plan.n_sequences):
        idx = plan.clifford_indices(length, s, group)
        recovery = group.inverse(group.fold(idx))
        per_seq.append(int(pulses[idx].sum() + pulses[recovery]))
    return {
        "useful_pulses": sum(per_seq),
        "pulse_slots": max(per_seq) * plan.n_sequences,
        "pulse_shots": sum(per_seq) * plan.shots_per_sequence,
    }


def _notes(name: str, fn):
    """Counter callback for span ``name``: (args, kwargs, result) -> attrs."""
    if name == "cliffords.recovery_gate":
        cliffords = _argument(fn, "cliffords")
        return lambda a, kw, r: {"cliffords": len(cliffords(a, kw))}
    if name == "fitting.mle_fit":
        return lambda a, kw, r: {"nonconverged": int(not r.converged)}
    if name == "fitting.bootstrap_ci":
        resamples = _argument(fn, "n_resamples")
        return lambda a, kw, r: {"resamples": resamples(a, kw), "estimates": len(r[2])}
    if name == "calibration.SimulatedQubitTestbed.run_train":
        phases, shots = _argument(fn, "phases"), _argument(fn, "shots")
        return lambda a, kw, r: {"pulse_shots": len(phases(a, kw)) * shots(a, kw)}
    if name == "rb._coherent_survival_fast":
        plan, length, group = (_argument(fn, n) for n in ("plan", "length", "group"))
        # evaluated after the run: recomputing the plan inside a span would
        # charge the benchmark's own work to the parent layer
        return lambda a, kw, r: functools.partial(
            _engine_counts, plan(a, kw), length(a, kw), group(a, kw)
        )
    return None


def _targets():
    """(layer, owner, attribute, function) for everything to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"qubitbench.{layer}")
        names = [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n))]
        for dotted in (*names, *EXTRA.get(layer, ())):
            *path, attr = dotted.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            if fn.__module__ == module.__name__:  # re-exports belong to their own module
                yield layer, owner, attr, fn


class Recorder:
    """In-memory spans and counters for one CLI invocation."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qubitbench" or n.startswith("qubitbench.")]
        for layer, owner, attr, fn in list(_targets()):
            name = f"{layer}.{fn.__qualname__}"
            if name in COUNT_ONLY:
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn, _notes(name, fn))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str, import_start: float, import_end: float) -> None:
        """Restore the originals, evaluate deferred counters and write JSON."""
        self.uninstall()
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run,
             "attrs": attrs() if callable(attrs) else attrs}
            for name, start, end, parent, attrs in self.spans
        ]
        spans.append(
            {"name": "cli.import", "start": import_start, "end": import_end, "parent": None, "run": self.run, "attrs": None}
        )
        with open(path, "w") as fh:
            json.dump({"run": self.run, "counts": self.counts, "spans": spans}, fh)
