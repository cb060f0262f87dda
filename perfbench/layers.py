"""Per-layer metrics from the spans of one traced workload run.

The layers are the qubitbench modules (``presets`` holds only constants and
has none).  Each metric is computed from the spans that ``tracer.py``
recorded in every invocation of the run, plus ``-X importtime`` output for
the scipy share of the import.  Self time is a span's duration minus the
time its child spans cover; a layer's self time sums that over its spans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "cli.cpu_per_wall": ("ratio", "lower"),
    "cliffords.table_calls": ("count", "lower"),
    "cliffords.table_s": ("s", "lower"),
    "cliffords.recovery_calls": ("count", "lower"),
    "cliffords.recovery_ns_per_clifford": ("ns", "lower"),
    "cliffords.self_s": ("s", "lower"),
    "noise.rng_stream_calls": ("count", "lower"),
    "noise.rng_stream_s": ("s", "lower"),
    "noise.area_factor_calls": ("count", "lower"),
    "noise.area_factor_s": ("s", "lower"),
    "noise.depth_at_calls": ("count", "lower"),
    "noise.self_s": ("s", "lower"),
    "rb.run_rb_calls": ("count", "lower"),
    "rb.self_s": ("s", "lower"),
    "rb.pulse_shots": ("count", "lower"),
    "rb.ns_per_pulse_shot": ("ns", "lower"),
    "rb.step_efficiency": ("ratio", "higher"),
    "pulsesim.propagator_calls": ("count", "lower"),
    "pulsesim.ms_per_propagator": ("ms", "lower"),
    "pulsesim.evolve_sequence_s": ("s", "lower"),
    "pulsesim.self_s": ("s", "lower"),
    "fitting.mle_calls": ("count", "lower"),
    "fitting.ms_per_fit": ("ms", "lower"),
    "fitting.bootstrap_s": ("s", "lower"),
    "fitting.bootstrap_fail_frac": ("ratio", "lower"),
    "fitting.nonconverged_frac": ("ratio", "lower"),
    "fitting.self_s": ("s", "lower"),
    "calibration.run_train_calls": ("count", "lower"),
    "calibration.pulse_shots": ("count", "lower"),
    "calibration.ns_per_pulse_shot": ("ns", "lower"),
    "calibration.cal_steps": ("count", "lower"),
    "calibration.freq_step_self_s": ("s", "lower"),
    "calibration.walsh_fit_s": ("s", "lower"),
    "calibration.self_s": ("s", "lower"),
    "filterfunc.chi_calls": ("count", "lower"),
    "filterfunc.ms_per_chi": ("ms", "lower"),
    "filterfunc.predict_t2_s": ("s", "lower"),
    "filterfunc.self_s": ("s", "lower"),
    "budget.table_s": ("s", "lower"),
    "budget.idle_estimate_s": ("s", "lower"),
    "budget.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
}

SELF_TIMED = ("cliffords", "noise", "rb", "pulsesim", "fitting", "calibration", "filterfunc", "budget")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(float))


def span_stats(traces: list[dict]) -> tuple[dict[str, SpanStats], dict[str, int]]:
    """Per span name: calls, inclusive and self time, summed attributes."""
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    counts: dict[str, int] = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child_s in zip(spans, covered):
            st = stats[span["name"]]
            st.calls += 1
            st.total_s += span["end"] - span["start"]
            st.self_s += span["end"] - span["start"] - child_s
            for key, value in (span["attrs"] or {}).items():
                st.attrs[key] += value
        for name, n in trace["counts"].items():
            counts[name] += n
    return stats, counts


def scipy_import_s(importtime: str) -> float:
    """Cumulative ``-X importtime`` seconds of scipy modules not imported by scipy itself."""
    # lines are printed children first; walking them backwards visits each
    # parent before its children, so a stack of open ancestors suffices
    stack: list[tuple[int, bool]] = []
    total_us = 0
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        level = len(name_field) - len(name_field.lstrip())
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside_scipy:
            total_us += int(cumulative)
        stack.append((level, inside_scipy or is_scipy))
    return total_us * 1e-6


def _per(total: float, count: float, scale: float) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(traces: list[dict], importtimes: list[str], traced_wall_s: float,
                  untraced_wall_s: float, untraced_cpu_s: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced workload run.

    ``traces`` and ``importtimes`` hold one entry per traced invocation; the
    CPU figures come from the untraced run of the same commands, because
    tracing adds CPU time of its own.
    """
    st, counts = span_stats(traces)
    layer_self = defaultdict(float)
    for name, s in st.items():
        layer_self[name.split(".")[0]] += s.self_s

    def calls(name: str) -> int:
        return st[name].calls

    def total(name: str) -> float:
        return st[name].total_s

    def attr(name: str, key: str) -> float:
        return st[name].attrs.get(key, 0.0)

    fast = "rb._coherent_survival_fast"
    pulse_shots = attr(fast, "pulse_shots")
    train = "calibration.SimulatedQubitTestbed.run_train"
    train_pulse_shots = attr(train, "pulse_shots")
    resamples = attr("fitting.bootstrap_ci", "resamples")
    metrics = {
        "cli.import_s": total("cli.import"),
        "cli.import_scipy_s": sum(scipy_import_s(t) for t in importtimes),
        "cli.self_s": st["cli.main"].self_s,
        "cli.cpu_s": untraced_cpu_s,
        "cli.cpu_per_wall": untraced_cpu_s / untraced_wall_s,
        "cliffords.table_calls": calls("cliffords.build_clifford_table"),
        "cliffords.table_s": total("cliffords.build_clifford_table"),
        "cliffords.recovery_calls": calls("cliffords.recovery_gate"),
        "cliffords.recovery_ns_per_clifford": _per(
            total("cliffords.recovery_gate"), attr("cliffords.recovery_gate", "cliffords"), 1e9
        ),
        "noise.rng_stream_calls": calls("noise.rng_stream"),
        "noise.rng_stream_s": total("noise.rng_stream"),
        "noise.area_factor_calls": calls("noise.MotionalMode.mean_area_factor"),
        "noise.area_factor_s": total("noise.MotionalMode.mean_area_factor"),
        "noise.depth_at_calls": counts.get("noise.MotionalMode.depth_at", 0),
        "rb.run_rb_calls": calls("rb.run_rb"),
        "rb.pulse_shots": pulse_shots,
        "rb.ns_per_pulse_shot": _per(total(fast), pulse_shots, 1e9),
        "rb.step_efficiency": _per(attr(fast, "useful_pulses"), attr(fast, "pulse_slots"), 1.0),
        "pulsesim.propagator_calls": calls("pulsesim.pulse_propagator"),
        "pulsesim.ms_per_propagator": _per(total("pulsesim.pulse_propagator"), calls("pulsesim.pulse_propagator"), 1e3),
        "pulsesim.evolve_sequence_s": total("pulsesim.evolve_sequence"),
        "fitting.mle_calls": calls("fitting.mle_fit"),
        "fitting.ms_per_fit": _per(total("fitting.mle_fit"), calls("fitting.mle_fit"), 1e3),
        "fitting.bootstrap_s": total("fitting.bootstrap_ci"),
        "fitting.bootstrap_fail_frac": _per(resamples - attr("fitting.bootstrap_ci", "estimates"), resamples, 1.0),
        "fitting.nonconverged_frac": _per(attr("fitting.mle_fit", "nonconverged"), calls("fitting.mle_fit"), 1.0),
        "calibration.run_train_calls": calls(train),
        "calibration.pulse_shots": train_pulse_shots,
        "calibration.ns_per_pulse_shot": _per(total(train), train_pulse_shots, 1e9),
        "calibration.cal_steps": calls("calibration.amplitude_cal_step") + calls("calibration.frequency_cal_step"),
        "calibration.freq_step_self_s": st["calibration.frequency_cal_step"].self_s,
        "calibration.walsh_fit_s": total("calibration.walsh_fit"),
        "filterfunc.chi_calls": calls("filterfunc.chi_overlap"),
        "filterfunc.ms_per_chi": _per(total("filterfunc.chi_overlap"), calls("filterfunc.chi_overlap"), 1e3),
        "filterfunc.predict_t2_s": total("filterfunc.predict_t2"),
        "budget.table_s": total("budget.budget_table"),
        "budget.idle_estimate_s": total("budget.estimate_idle_rates"),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.overhead_frac": (traced_wall_s - untraced_wall_s) / untraced_wall_s,
        "trace.unaccounted_frac": 1.0 - sum(layer_self.values()) / traced_wall_s,
    }
    for layer in SELF_TIMED:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return {name: float(metrics[name]) for name in PER_LAYER}
