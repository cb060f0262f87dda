"""Analytic error budget for randomized-benchmarking gate errors.

Each contribution is a closed-form estimate of the average error per group
element (per "gate" in benchmarking terms), parameterized on the measured
hardware quantities.  ``mu`` denotes the average number of pi/2 pulses
compiled per group element, ``MEAN_PULSES_PER_CLIFFORD`` = 52/24 for the
minimal-length compilation used here.

Estimates:

* decoherence — slow dephasing costs ``t_gate / (3 T2)``, the 1/3 coming
  from averaging the dephasing axis over the twirled Bloch sphere;
* idle and leakage errors — the state-twirled combination of per-second
  idle rates, ``1/2 eps_bright + 1/4 (c0 + c1) + flip`` per second;
* shot-to-shot amplitude noise — ``mu sigma_rel^2 / 2``;
* residual harmonic motion — sinusoidal Rabi-rate modulation of depth
  ``m = 2 eta sqrt(n_bar + 1/2)`` at frequency ``omega_m`` contributes
  ``mu C eta^2 (n_bar + 1/2) / (omega_m t_half_pi)^2`` with phase-averaged
  envelope coefficient ``C = 4``; the single-pulse worst-case convention
  ``C = (3 pi / 4)^2`` is also available;
* slow amplitude drift — the time average of ``mu x(t)^2 / 2`` over a
  recorded relative-offset trace;
* amplitude resolution — worst-case rounding by half a least-significant
  bit of the waveform generator, ``mu (2^-(bits+1) / a)^2 / 6``;
* residual drive-induced frequency shift — an uncompensated shift
  ``Delta`` acting for each pulse gives ``mu (2 pi Delta t_half_pi)^2 / 6``
  (states-averaged); a worst-case convention with 1/4 is available.

Bounds (spectator transitions, pulse ramping, the counter-rotating drive
term) are carried as fixed upper limits, cross-checkable with the
pulse-level simulators.

The module also inverts the shelving-assisted idle-error measurements:
three readout schemes (no shelving; shelving the state orthogonal to the
expected one; shelving the expected state) for each preparation give
linear-in-time error probabilities whose slopes separate the bright-state
error rate, the spin-flip rate, and the combined dark+leakage rate of
each preparation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import presets
from .noise import IdleRates, MotionalMode
from .presets import HARMONIC_COEFFICIENTS, MEAN_PULSES_PER_CLIFFORD, ZEEMAN_CONVENTIONS

__all__ = [
    "BudgetInput",
    "BudgetRow",
    "BudgetTable",
    "err_decoherence",
    "err_idle_leakage",
    "err_amp_noise",
    "err_harmonic",
    "err_amp_drift",
    "err_awg",
    "err_zeeman",
    "mean_n_bar",
    "budget_table",
    "budget_curve",
    "idle_scheme_error_prob",
    "IdleRatesEstimate",
    "estimate_idle_rates",
    "IDLE_SCHEMES",
]


# ---------------------------------------------------------------------------
# Closed-form contributions
# ---------------------------------------------------------------------------


def err_decoherence(gate_time: float, t2: float) -> float:
    """Dephasing error per element from a coherence time t2."""
    return gate_time / (3.0 * t2)


def err_idle_leakage(rates: IdleRates, gate_time: float) -> float:
    """Idle-rate error accumulated over one element's duration."""
    return rates.rb_error_rate_per_s() * gate_time


def err_amp_noise(sigma_rel: float) -> float:
    """Per-element error from quasi-static relative amplitude noise."""
    return 0.5 * MEAN_PULSES_PER_CLIFFORD * sigma_rel**2


def err_harmonic(eta: float, omega_m: float, n_bar: float, t_half_pi: float, coefficient: str = "rb") -> float:
    """Per-element error from sinusoidal Rabi-rate modulation."""
    try:
        c = HARMONIC_COEFFICIENTS[coefficient]
    except KeyError:
        raise ValueError(f"coefficient must be one of {sorted(HARMONIC_COEFFICIENTS)}")
    return MEAN_PULSES_PER_CLIFFORD * c * eta**2 * (n_bar + 0.5) / (omega_m * t_half_pi) ** 2


def err_amp_drift(times: np.ndarray, rel_offsets: np.ndarray) -> float:
    """Time-averaged per-element error of a relative amplitude-offset trace.

    The trace is interpolated piecewise-linearly; each segment contributes
    its exact mean square ``(a^2 + a b + b^2) / 3``.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(rel_offsets, dtype=float)
    if len(times) != len(x) or len(times) < 2:
        raise ValueError("need matching times and offsets with at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    dt = np.diff(times)
    a, b = x[:-1], x[1:]
    mean_sq = float(np.sum(dt * (a**2 + a * b + b**2) / 3.0) / np.sum(dt))
    return 0.5 * MEAN_PULSES_PER_CLIFFORD * mean_sq


def err_awg(amp_fraction: float, bits: int = presets.AWG_BITS) -> float:
    """Worst-case quantization error of the waveform-generator amplitude."""
    if not 0 < amp_fraction <= 1:
        raise ValueError("amp_fraction must lie in (0, 1]")
    half_lsb_rel = 2.0 ** -(bits + 1) / amp_fraction
    return MEAN_PULSES_PER_CLIFFORD * half_lsb_rel**2 / 6.0


def err_zeeman(residual_hz: float, t_half_pi: float, convention: str = "twirl") -> float:
    """Per-element error from an uncompensated drive-induced shift.

    The shift acts as a z rotation by ``2 pi residual_hz t_half_pi`` per
    pulse.  'twirl' averages the resulting infidelity over the Bloch
    sphere (coefficient 1/6); 'worst_case' uses 1/4.
    """
    try:
        c = ZEEMAN_CONVENTIONS[convention]
    except KeyError:
        raise ValueError(f"convention must be one of {sorted(ZEEMAN_CONVENTIONS)}")
    theta = 2 * np.pi * residual_hz * t_half_pi
    return MEAN_PULSES_PER_CLIFFORD * c * theta**2


def mean_n_bar(n_bar0: float, heating_rate: float, sequence_duration: float) -> float:
    """Occupation averaged over a sequence heating linearly from n_bar0."""
    return n_bar0 + 0.5 * heating_rate * sequence_duration


# ---------------------------------------------------------------------------
# Budget assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetInput:
    """The hardware quantities a budget varies; the rest of the operating
    point is read from ``presets`` where each row is formed."""

    gate_time: float = presets.GATE_TIME
    t2: float = presets.T2_STAR_STAR
    sigma0_rel: float = presets.SIGMA0_REL
    zeeman_residual_hz: float = presets.ZEEMAN_RESIDUAL_HZ
    zeeman_convention: str = "twirl"
    harmonic_coefficient: str = "rb"

    def __post_init__(self):
        if self.gate_time <= 0 or self.t2 <= 0:
            raise ValueError("gate_time and t2 must be positive")

    @property
    def t_half_pi(self) -> float:
        return self.gate_time / MEAN_PULSES_PER_CLIFFORD


@dataclass(frozen=True)
class BudgetRow:
    name: str
    value: float
    kind: str  # "estimate" or "bound"
    uncertainty: float | None = None
    note: str = ""


@dataclass(frozen=True)
class BudgetTable:
    rows: tuple[BudgetRow, ...]
    gate_time: float

    def __getitem__(self, name: str) -> BudgetRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def total(self) -> float:
        return float(sum(r.value for r in self.rows))

    def total_uncertainty(self) -> float:
        return float(
            np.sqrt(sum((r.uncertainty or 0.0) ** 2 for r in self.rows))
        )

    def as_dict(self) -> dict:
        return {
            "gate_time": self.gate_time,
            "rows": [
                {
                    "name": r.name,
                    "value": r.value,
                    "kind": r.kind,
                    "uncertainty": r.uncertainty,
                    "note": r.note,
                }
                for r in self.rows
            ],
            "total": self.total(),
            "total_uncertainty": self.total_uncertainty(),
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "value", "uncertainty", "kind", "note"])
        for r in self.rows:
            w.writerow([r.name, repr(r.value), "" if r.uncertainty is None else repr(r.uncertainty), r.kind, r.note])
        w.writerow(["total", repr(self.total()), repr(self.total_uncertainty()), "", ""])
        return buf.getvalue()


def budget_table(inputs: BudgetInput | None = None) -> BudgetTable:
    """Assemble the per-element error budget at the configured gate time."""
    inp = inputs or BudgetInput()
    mode = MotionalMode()
    n_bar = mean_n_bar(mode.n_bar0, mode.heating_rate, max(presets.RB_LENGTHS) * inp.gate_time)
    idle = IdleRates(
        bright_per_s=presets.BRIGHT_PER_S,
        dark_plus_leak_prep0_per_s=presets.DARK_PLUS_LEAK_PREP0_PER_S,
        dark_plus_leak_prep1_per_s=presets.DARK_PLUS_LEAK_PREP1_PER_S,
    )

    a = err_decoherence(inp.gate_time, inp.t2)
    rows = [
        BudgetRow(
            "decoherence",
            a,
            "estimate",
            uncertainty=a * presets.T2_UNC / inp.t2,
            note="slow dephasing, t_gate / (3 T2)",
        ),
        BudgetRow(
            "idle_and_leakage",
            err_idle_leakage(idle, inp.gate_time),
            "estimate",
            note="state-twirled idle error rates over one element",
        ),
        BudgetRow(
            "amplitude_noise",
            err_amp_noise(inp.sigma0_rel),
            "estimate",
            note="shot-to-shot Rabi-rate fluctuations",
        ),
        BudgetRow(
            "harmonic_motion",
            err_harmonic(mode.eta, mode.omega_m, n_bar, inp.t_half_pi, inp.harmonic_coefficient),
            "estimate",
            note="residual sinusoidal Rabi-rate modulation, sequence-averaged occupation",
        ),
        BudgetRow(
            "amplitude_drift",
            err_amp_drift(*presets.default_drift_trace()),
            "estimate",
            note="slow drift between calibrations, trace-averaged",
        ),
        BudgetRow(
            "awg_resolution",
            err_awg(presets.AWG_FRACTION, presets.AWG_BITS),
            "estimate",
            note="half-LSB amplitude rounding",
        ),
        BudgetRow(
            "zeeman_residual",
            err_zeeman(inp.zeeman_residual_hz, inp.t_half_pi, inp.zeeman_convention),
            "estimate",
            note="uncompensated drive-induced frequency shift",
        ),
        # ceilings that the pulse-level simulators are checked against
        BudgetRow("spectator_transitions", 1e-9, "bound"),
        BudgetRow("pulse_ramping", 1e-9, "bound"),
        BudgetRow("counter_rotating", 1e-10, "bound"),
    ]
    return BudgetTable(rows=tuple(rows), gate_time=inp.gate_time)


def budget_curve(
    inputs: BudgetInput | None = None, gate_times: Sequence[float] | None = None
) -> dict:
    """Budget rows and totals across a range of gate durations."""
    inp = inputs or BudgetInput()
    if gate_times is None:
        gate_times = np.linspace(presets.CURVE_GATE_TIME_MIN, presets.CURVE_GATE_TIME_MAX, presets.CURVE_POINTS)
    tables = [budget_table(replace(inp, gate_time=float(t))) for t in gate_times]
    names = [r.name for r in tables[0].rows]
    return {
        "gate_time": [float(t) for t in gate_times],
        "total": [t.total() for t in tables],
        **{name: [tab[name].value for tab in tables] for name in names},
    }


# ---------------------------------------------------------------------------
# Idle-rate experiments
# ---------------------------------------------------------------------------

IDLE_SCHEMES = ("none", "other", "expected")


def idle_scheme_error_prob(
    scheme: str,
    prepared: int,
    duration: float,
    rates: IdleRates,
    spam: float = 0.0,
) -> float:
    """Exact error probability of one shelving-assisted idle measurement.

    Both qubit states live in the ground manifold and read bright; an
    optional shelving operation at readout moves one chosen state to a
    dark level.  Leaked population stays outside the qubit and reads
    bright.  ``scheme`` selects what is shelved: 'none' (expected outcome
    bright), 'other' (expected outcome bright), or 'expected' (expected
    outcome dark).
    """
    if scheme not in IDLE_SCHEMES:
        raise ValueError(f"scheme must be one of {IDLE_SCHEMES}")
    if prepared not in (0, 1):
        raise ValueError("prepared must be 0 or 1")
    eb = rates.probability(rates.bright_per_s, duration)
    ed = rates.probability(rates.dark_per_s(prepared), duration)
    q_leak = rates.probability(rates.leak_per_s(prepared), duration)
    ft = rates.probability(rates.flip_per_s, duration)

    if scheme == "none":
        p = (1 - q_leak) * eb + q_leak * eb
    elif scheme == "other":
        p = (1 - q_leak) * ((1 - ft) * eb + ft * (1 - ed)) + q_leak * eb
    else:  # expected
        p = (1 - q_leak) * ((1 - ft) * ed + ft * (1 - eb)) + q_leak * (1 - eb)
    return float(p * (1 - 2 * spam) + spam)


@dataclass(frozen=True)
class IdleRatesEstimate:
    rates: IdleRates
    sigma_bright: float
    sigma_flip: float
    sigma_combo: tuple[float, float]
    flip_consistent: bool


def _wls_slope(durations: np.ndarray, errors: np.ndarray, shots: np.ndarray) -> tuple[float, float]:
    """Weighted straight-line fit (free intercept); returns (slope, sigma)."""
    from .fitting import binomial_variance, weighted_line

    shots = np.asarray(shots, dtype=float)
    p = np.asarray(errors, dtype=float) / shots
    slope, _, sxx = weighted_line(durations, p, 1.0 / binomial_variance(p, shots))
    return float(slope), float(np.sqrt(1.0 / sxx))


_FLIP_SIGNIFICANCE = 3.0  # combined standard deviations


def estimate_idle_rates(
    data: dict[tuple[str, int], tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> IdleRatesEstimate:
    """Invert shelving-scheme measurements into idle error rates.

    ``data`` maps ``(scheme, prepared)`` to ``(durations_s, error_counts,
    shots)``.  Requires the 'none' and 'other' schemes for at least one
    preparation and the 'expected' scheme for both preparations.  The
    spin-flip rate has one estimate per preparation (slope difference of
    'other' and 'none'); ``flip_consistent`` is False when the two
    disagree by more than three combined standard deviations.
    """
    from .fitting import inverse_variance_mean

    slopes = {key: _wls_slope(*vals) for key, vals in data.items()}

    eb_parts = [v for (s, _), v in slopes.items() if s == "none"]
    if not eb_parts:
        raise ValueError("need at least one 'none' scheme measurement")
    eps_b, sigma_b = inverse_variance_mean(*zip(*eb_parts))

    flips, flip_sigs = [], []
    for p in (0, 1):
        if ("other", p) in slopes and ("none", p) in slopes:
            s_o, g_o = slopes[("other", p)]
            s_n, g_n = slopes[("none", p)]
            flips.append(s_o - s_n)
            flip_sigs.append(np.hypot(g_o, g_n))
    if flips:
        flip, sigma_f = inverse_variance_mean(flips, flip_sigs)
        if len(flips) == 2:
            diff = abs(flips[0] - flips[1])
            consistent = diff <= _FLIP_SIGNIFICANCE * float(np.hypot(*flip_sigs))
        else:
            consistent = True
    else:
        flip, sigma_f, consistent = 0.0, 0.0, True
    flip = max(flip, 0.0)

    combos, combo_sigs = [], []
    for p in (0, 1):
        if ("expected", p) not in slopes:
            raise ValueError("need the 'expected' scheme for both preparations")
        s_e, g_e = slopes[("expected", p)]
        combos.append(max(s_e - flip, 0.0))
        combo_sigs.append(np.hypot(g_e, sigma_f))

    rates = IdleRates(
        bright_per_s=max(eps_b, 0.0),
        dark_plus_leak_prep0_per_s=combos[0],
        dark_plus_leak_prep1_per_s=combos[1],
        flip_per_s=flip,
    )
    return IdleRatesEstimate(
        rates=rates,
        sigma_bright=sigma_b,
        sigma_flip=sigma_f,
        sigma_combo=(float(combo_sigs[0]), float(combo_sigs[1])),
        flip_consistent=bool(consistent),
    )
