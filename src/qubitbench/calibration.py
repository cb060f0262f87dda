"""Closed-loop calibration and Walsh-modulated drift spectroscopy.

The calibration primitives talk to a simulated testbed that behaves like
the real control stack: amplitude settings pass through the fixed-point
resolution of the waveform generator, every shot advances a wall clock,
and slow drift plus shot-to-shot noise corrupt the applied pulses.

Amplitude errors are measured with trains of ``4N + 1`` equal-phase pi/2
pulses: the first ``4N`` ideally compose to full revolutions, the final
pulse biases the readout to the steep point of the fringe, and a relative
amplitude error ``x`` shifts the bright-state probability to
``(1 - sin(2 c x)) / 2`` with ``c = (4N + 1) pi / 4``.  Frequency errors
are measured with ``N`` detuning-sensitive pulse pairs of opposite phase
followed by one quadrature pulse; the exact two-level propagator of the
pair is inverted numerically.  Both loops grow ``N`` geometrically until
an error is resolved against shot noise, then feed the correction back
through the quantized hardware setting.

Walsh modulation generalizes the amplitude train: flipping the sign of
blocks of pulses according to a Walsh function makes the accumulated
rotation angle proportional to the corresponding Walsh coefficient of the
amplitude-drift time series, and balanced (non-constant) Walsh orders are
immune to the static offset and to shot-to-shot noise.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .cliffords import apply_ab, pulse_ab
from .fitting import _levenberg_marquardt, binomial_variance, inverse_variance_mean
from .noise import LANE_CAL, QuantizerConfig, rng_stream
from .presets import AWG_FRACTION, CAL_N_MAX, CAL_SHOTS, GAP_TIME, SIGMA0_REL, SPAM, T_HALF_PI
from .presets import WALSH_MAX_ORDER, WALSH_N_PULSES, WALSH_SHOTS, WALSH_SWEEP

__all__ = [
    "SimulatedQubitTestbed",
    "CalLoopConfig",
    "CalRecord",
    "amplitude_cal_step",
    "amplitude_cal_loop",
    "frequency_cal_step",
    "frequency_cal_loop",
    "walsh_function",
    "walsh_sign_train",
    "walsh_coefficient",
    "modulated_train_p_zero",
    "constant_train_p_zero_gaussian",
    "measure_walsh_coefficient",
    "walsh_fit",
    "WalshEstimate",
    "records_to_jsonl",
]


# ---------------------------------------------------------------------------
# Simulated hardware
# ---------------------------------------------------------------------------

# dead time of one shot beyond its pulses, s
_SHOT_OVERHEAD = 5e-3


class SimulatedQubitTestbed:
    """Pulse-train hardware emulator with drift, noise, and quantization.

    Parameters
    ----------
    master_seed:
        Seed for the testbed's RNG lane.
    t_half_pi:
        Pulse timing; pulses are modelled as rectangles of duration
        ``t_half_pi`` separated by ``GAP_TIME``.
    amp_fraction:
        Full-scale fraction of the waveform generator used at the nominal
        setting; the quantization step relative to the pulse amplitude is
        ``quantizer.step / amp_fraction``.
    sigma0_rel:
        Shot-to-shot relative amplitude noise (quasi-static per shot).
    spam:
        Symmetric readout flip probability.
    amp_drift, freq_drift:
        Callables of wall-clock time giving the relative amplitude offset
        and the qubit-frequency offset (rad/s).  ``None`` means no drift.

    Every shot adds the dead time ``_SHOT_OVERHEAD`` to the wall clock.
    """

    def __init__(
        self,
        master_seed: int,
        t_half_pi: float = T_HALF_PI,
        amp_fraction: float = AWG_FRACTION,
        quantizer: QuantizerConfig | None = QuantizerConfig(),
        sigma0_rel: float = SIGMA0_REL,
        spam: float = SPAM,
        amp_drift: Callable[[np.ndarray], np.ndarray] | None = None,
        freq_drift: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not 0 < amp_fraction <= 1:
            raise ValueError("amp_fraction must lie in (0, 1]")
        self.master_seed = int(master_seed)
        self.t_half_pi = float(t_half_pi)
        self.gap_time = GAP_TIME
        self.amp_fraction = float(amp_fraction)
        self.quantizer = quantizer
        self.sigma0_rel = float(sigma0_rel)
        self.spam = float(spam)
        self.amp_drift = amp_drift
        self.freq_drift = freq_drift

        self.clock = 0.0
        self.amp_setting = 1.0
        self.detuning_setting = 0.0  # drive-frequency offset, rad/s
        self._run_counter = 0

    # -- hardware model ----------------------------------------------------

    @property
    def omega_nominal(self) -> float:
        return (np.pi / 2) / self.t_half_pi

    def programmed_amp_multiplier(self) -> float:
        """Amplitude multiplier actually produced for the current setting."""
        if self.quantizer is None:
            return self.amp_setting
        word = self.quantizer.quantize(self.amp_setting * self.amp_fraction)
        return word / self.amp_fraction

    def true_relative_error(self, t: float) -> float:
        """Relative rotation-angle error of a pi/2 pulse played at time t."""
        drift = float(self.amp_drift(np.asarray(t))) if self.amp_drift else 0.0
        return self.programmed_amp_multiplier() * (1.0 + drift) - 1.0

    def _detunings(self, times: np.ndarray) -> np.ndarray:
        qubit = (
            np.asarray(self.freq_drift(times), dtype=float)
            if self.freq_drift is not None
            else np.zeros_like(times)
        )
        return self.detuning_setting - qubit  # drive minus qubit

    def run_train(self, phases: Sequence[float], shots: int) -> int:
        """Play a pulse train `shots` times; return the bright-outcome count.

        ``phases`` are effective pulse phases (sign flips folded in as a
        pi offset).  Each shot advances the wall clock by the sequence
        duration plus the per-shot overhead.  Raises ``ValueError`` unless
        ``shots >= 1``.
        """
        if shots < 1:
            raise ValueError(f"shots must be at least 1, got {shots}")
        phases = np.asarray(phases, dtype=float)
        n_pulses = len(phases)
        duration = n_pulses * (self.t_half_pi + self.gap_time)
        rng = rng_stream(self.master_seed, LANE_CAL, self._run_counter)
        self._run_counter += 1

        times = self.clock + np.arange(shots) * (duration + _SHOT_OVERHEAD)
        self.clock = float(times[-1] + duration + _SHOT_OVERHEAD)

        drift = (
            np.asarray(self.amp_drift(times), dtype=float)
            if self.amp_drift is not None
            else np.zeros(shots)
        )
        mult = self.programmed_amp_multiplier() * (
            1.0 + drift + self.sigma0_rel * rng.standard_normal(shots)
        )
        delta = self._detunings(times)

        a, b = pulse_ab(self.omega_nominal * mult, -delta, self.t_half_pi)
        # the z rotation over the following gap folds into each pulse
        g = np.exp(0.5j * delta * self.gap_time)
        a, b = g * a, np.conj(g) * b
        b_of = {phase: b * np.exp(1j * phase) for phase in set(phases.tolist())}
        alpha = np.ones(shots, dtype=complex)
        beta = np.zeros(shots, dtype=complex)
        for phase in phases:
            apply_ab(a, b_of[phase], alpha, beta)
        p_zero = np.abs(alpha) ** 2

        bright = rng.random(shots) < p_zero
        if self.spam:
            bright ^= rng.random(shots) < self.spam
        return int(bright.sum())


# ---------------------------------------------------------------------------
# Calibration steps and loops
# ---------------------------------------------------------------------------


# a loop corrects an estimate beyond this many standard deviations
_SIGNIFICANCE = 3.0
# a reading is inverted only within this fraction of its fringe's peak
# distance from the steep point
_LINEAR_FRACTION = 0.7
# steps of one loop at most
_MAX_STEPS = 40


@dataclass(frozen=True)
class CalLoopConfig:
    """Shared knobs for the closed-loop calibration routines.

    Both loops start at N = 1, so that each reading's branch of its fringe
    is picked by the shorter reading before it.
    """

    n_max: int = CAL_N_MAX
    shots: int = CAL_SHOTS

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.shots < 10:
            raise ValueError("shots must be at least 10")


@dataclass(frozen=True)
class CalRecord:
    """One measure/decide/correct step of a calibration loop."""

    kind: str
    step: int
    time: float
    n_group: int
    shots: int
    p_zero: float
    estimate: float
    sigma: float
    linear_ok: bool
    significant: bool
    corrected: bool
    setting_after: float


def records_to_jsonl(records: Sequence[CalRecord]) -> str:
    return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records)


def _fringe(
    testbed: SimulatedQubitTestbed, phases: np.ndarray, gain: float, shots: int
) -> tuple[float, float, float]:
    """Play ``phases`` plus one phase-0 bias pulse and invert the fringe.

    The bright fraction is ``p = (1 - sin(gain x)) / 2``; returns
    ``(p, x, sigma_x)``.
    """
    p = testbed.run_train(np.concatenate([phases, [0.0]]), shots) / shots
    arg = np.clip(1.0 - 2.0 * p, -1.0, 1.0)
    slope = gain * np.sqrt(max(1.0 - arg**2, 1e-2))  # |dP(-2)/dx| guard
    return p, float(np.arcsin(arg) / gain), float(2 * np.sqrt(binomial_variance(p, shots)) / slope)


def amplitude_cal_step(
    testbed: SimulatedQubitTestbed, n_group: int, shots: int
) -> tuple[float, float, float, bool]:
    """Measure the relative amplitude error with a 4N+1 pulse train.

    Returns (p_zero, estimate, sigma, linear_ok); `linear_ok` holds when
    ``|p_zero - 1/2| <= 0.7 * 1/2 = 0.35``, the fringe's peak being 1/2.
    """
    p, estimate, sigma = _fringe(testbed, np.zeros(4 * n_group), (4 * n_group + 1) * np.pi / 2, shots)
    return p, estimate, sigma, abs(p - 0.5) <= _LINEAR_FRACTION * 0.5


def _freq_model_p_zero(
    delta: float, n_pairs: int, omega: float, t_pulse: float, gap: float
) -> float:
    """Exact bright probability of the N-pair + quadrature-pulse train."""
    a, b0 = pulse_ab(omega, -delta, t_pulse)

    def step(phase: float) -> np.ndarray:
        b = b0 * np.exp(1j * phase)
        u = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
        if gap:
            g = np.exp(0.5j * delta * gap)
            u = np.diag([g, np.conj(g)]) @ u
        return u

    pair = step(np.pi) @ step(0.0)
    total = step(np.pi / 2) @ np.linalg.matrix_power(pair, n_pairs)
    return float(abs(total[0, 0]) ** 2)


@functools.lru_cache(maxsize=None)
def _freq_fringe_peak(n_pairs: int, omega: float, t_pulse: float, gap: float) -> float:
    """Largest ``|p_zero - 1/2|`` of the N-pair train's fringe over detunings
    within ``+-omega / (2 N)``, read on 17 points.

    Off-resonant pulses lose contrast, so the peak stays below 1/2: at the
    default pulse it is 0.257, 0.322, 0.343, 0.348 and 0.349 for N = 1, 4,
    16, 64 and 256.
    """
    deltas = np.linspace(-0.5, 0.5, 17) * omega / n_pairs
    return max(abs(_freq_model_p_zero(d, n_pairs, omega, t_pulse, gap) - 0.5) for d in deltas)


def frequency_cal_step(
    testbed: SimulatedQubitTestbed, n_pairs: int, shots: int
) -> tuple[float, float, float, bool]:
    """Measure the drive-qubit detuning with N opposite-phase pulse pairs.

    The final quadrature pulse converts the pair-accumulated z-rotation
    into a population signal.  Returns (p_zero, estimate, sigma,
    linear_ok) as ``amplitude_cal_step`` does; the estimate is the detuning
    in rad/s, found by Newton inversion of the exact propagator model.
    `linear_ok` holds when ``|p_zero - 1/2|`` is at most 0.7 times the
    fringe's peak (``_freq_fringe_peak``), the amplitude step's rule.
    """
    phases = np.concatenate([np.tile([0.0, np.pi], n_pairs), [np.pi / 2]])
    bright = testbed.run_train(phases, shots)
    p = bright / shots
    omega = testbed.omega_nominal
    peak = _freq_fringe_peak(n_pairs, omega, testbed.t_half_pi, testbed.gap_time)
    linear_ok = abs(p - 0.5) <= _LINEAR_FRACTION * peak

    def model(d: float) -> float:
        return _freq_model_p_zero(d, n_pairs, omega, testbed.t_half_pi, testbed.gap_time)

    def slope(d: float) -> float:
        return (model(d + h) - model(d - h)) / (2 * h)

    # Newton iteration on the exact model, starting from the small-signal
    # linearization
    h = 0.02 * omega / max(n_pairs, 1)
    delta = 0.0
    for _ in range(60):
        dp = slope(delta)
        if abs(dp) < 1e-12:
            break
        step_d = (p - model(delta)) / dp
        delta += step_d
        if abs(step_d) < 1e-9 * omega:
            break
    dp = slope(delta)
    sigma = float(np.sqrt(binomial_variance(p, shots)) / max(abs(dp), 1e-12))
    return p, float(delta), sigma, linear_ok


def _run_loop(
    testbed: SimulatedQubitTestbed,
    config: CalLoopConfig,
    kind: str,
    measure: Callable[[int, int], tuple[float, float, float, bool]],
    apply_correction: Callable[[float], float],
) -> list[CalRecord]:
    records: list[CalRecord] = []
    n = 1
    for step in range(_MAX_STEPS):
        t = testbed.clock
        p, estimate, sigma, linear_ok = measure(n, config.shots)
        significant = abs(estimate) > _SIGNIFICANCE * sigma
        corrected = converged = False
        if not linear_ok:
            # outside the invertible fringe region: shorten the train
            n = max(n // 2, 1)
        elif significant:
            apply_correction(estimate)
            corrected = True
        elif n >= config.n_max:
            converged = True
        else:
            n = min(2 * n, config.n_max)
        records.append(
            CalRecord(
                kind=kind,
                step=step,
                time=t,
                n_group=n,
                shots=config.shots,
                p_zero=p,
                estimate=estimate,
                sigma=sigma,
                linear_ok=linear_ok,
                significant=significant,
                corrected=corrected,
                setting_after=apply_correction(0.0),
            )
        )
        if converged:
            return records
    # a warning, not a document key: a new key would change every calibrate document
    message = f"the {kind} loop did not converge in {_MAX_STEPS} steps (last N = {n})"
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    return records


def amplitude_cal_loop(
    testbed: SimulatedQubitTestbed, config: CalLoopConfig | None = None
) -> list[CalRecord]:
    """Iteratively null the relative amplitude error.

    The train length grows geometrically from N = 1 until the estimate is
    significant at three binomial standard deviations, corrections divide
    the amplitude setting by ``1 + estimate`` (rounded by the hardware
    quantizer), and the loop ends once the longest train resolves no error.
    A loop that has not ended after 40 steps warns (``RuntimeWarning``).
    """
    config = config or CalLoopConfig()

    def correct(x: float) -> float:
        if x:
            testbed.amp_setting = testbed.amp_setting / (1.0 + x)
        return testbed.amp_setting

    return _run_loop(
        testbed,
        config,
        "amplitude",
        lambda n, shots: amplitude_cal_step(testbed, n, shots),
        correct,
    )


def frequency_cal_loop(
    testbed: SimulatedQubitTestbed, config: CalLoopConfig | None = None
) -> list[CalRecord]:
    """Iteratively steer the drive frequency onto the qubit, by the steps
    of ``amplitude_cal_loop``."""
    config = config or CalLoopConfig()

    def correct(d: float) -> float:
        if d:
            testbed.detuning_setting = testbed.detuning_setting - d
        return testbed.detuning_setting

    return _run_loop(
        testbed,
        config,
        "frequency",
        lambda n, shots: frequency_cal_step(testbed, n, shots),
        correct,
    )


# ---------------------------------------------------------------------------
# Walsh-modulated probes
# ---------------------------------------------------------------------------


def walsh_function(order: int, x: np.ndarray) -> np.ndarray:
    """Walsh function of the given order on [0, 1), Paley (binary) ordering.

    Order ``2**j`` is the square wave with ``2**(j+1)`` equal segments;
    general orders are products over the set bits of ``order``.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    j = 0
    k = order
    while k:
        if k & 1:
            out = out * (1.0 - 2.0 * (np.floor(x * 2 ** (j + 1)).astype(int) & 1))
        k >>= 1
        j += 1
    return out


def walsh_sign_train(order: int, n_pulses: int) -> np.ndarray:
    """Per-pulse signs sampling the Walsh function at pulse midpoints.

    ``n_pulses`` must be divisible by the number of Walsh segments so that
    sign flips land exactly between pulses.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be positive")
    segments = 2 ** (order.bit_length()) if order > 0 else 1
    if n_pulses % segments:
        raise ValueError(
            f"n_pulses={n_pulses} must be a multiple of {segments} for order {order}"
        )
    mids = (np.arange(n_pulses) + 0.5) / n_pulses
    return walsh_function(order, mids).astype(int)


def walsh_coefficient(values: np.ndarray, order: int) -> float:
    """Walsh coefficient of a uniformly sampled series (mean of w_k * x)."""
    values = np.asarray(values, dtype=float)
    mids = (np.arange(len(values)) + 0.5) / len(values)
    return float(np.mean(walsh_function(order, mids) * values))


def modulated_train_p_zero(n_pulses: int, coefficient: float) -> float:
    """Bright probability of a sign-balanced train plus one bias pulse.

    ``coefficient`` is the Walsh coefficient of the per-pulse relative
    amplitude errors picked out by the modulation; the accumulated
    rotation-angle error is ``(pi/2) * n_pulses * coefficient``.
    """
    return float(0.5 * (1.0 - np.sin(0.5 * np.pi * n_pulses * coefficient)))


def constant_train_p_zero_gaussian(
    n_pulses: int, mean_rel: float, sigma_rel: float
) -> float:
    """Bright probability of an unmodulated 4N-pulse train under Gaussian noise.

    For ``n_pulses = 4N`` equal-phase pulses with per-shot relative
    amplitude error drawn from N(mean_rel, sigma_rel**2), averaging the
    fringe ``cos^2(pi N x)`` gives

        P = 1/2 + 1/2 cos(pi n_pulses mean / 2) exp(-(pi n_pulses sigma)^2 / 8)
    """
    if n_pulses % 4:
        raise ValueError("n_pulses must be a multiple of 4")
    phi = 0.5 * np.pi * n_pulses
    # solvers may probe huge trial sigmas; the overflowing square still maps
    # to the correct exp(-inf) = 0 limit, so silence only that overflow
    with np.errstate(over="ignore"):
        damp = np.exp(-0.5 * (phi * sigma_rel) ** 2)
    return float(0.5 + 0.5 * np.cos(phi * mean_rel) * damp)


# stage 1 of walsh_fit: six 4N+1 offset trains of N = 256
_MEAN_N_GROUP = 256
_MEAN_REPEATS = 6


@dataclass(frozen=True)
class WalshEstimate:
    order: int
    coefficient: float
    sigma: float
    n_pulses: int
    p_zero: float


def measure_walsh_coefficient(
    testbed: SimulatedQubitTestbed, order: int, n_pulses: int, shots: int
) -> WalshEstimate:
    """Estimate one Walsh coefficient of the amplitude drift.

    The train applies ``n_pulses`` pi/2 pulses whose signs follow the
    Walsh function, plus one unmodulated bias pulse; balanced orders
    cancel both the static amplitude offset and shot-to-shot noise, so
    the fringe shift isolates the chosen coefficient.
    """
    if order == 0:
        raise ValueError("order 0 is the unmodulated train; use amplitude_cal_step")
    phases = np.where(walsh_sign_train(order, n_pulses) > 0, 0.0, np.pi)
    p, coeff, sigma = _fringe(testbed, phases, n_pulses * np.pi / 2, shots)
    return WalshEstimate(order=order, coefficient=coeff, sigma=sigma, n_pulses=n_pulses, p_zero=p)


def walsh_fit(
    testbed: SimulatedQubitTestbed,
    max_order: int = WALSH_MAX_ORDER,
    n_pulses: int = WALSH_N_PULSES,
    shots: int = WALSH_SHOTS,
    n_sweep: Sequence[int] = WALSH_SWEEP,
) -> dict:
    """Hierarchical drift characterization.

    Three stages, from slowest to fastest time scale:

    1. the signed static offset, the inverse-variance mean of six 4N+1
       bias-pulse trains with N = 256.  The sine fringe is linear in the
       offset, and the next stage needs the offset pinned well below the
       period of the longest sweep train, hence the averaging;
    2. the shot-to-shot spread from the contrast decay of unmodulated
       trains swept over length, fit to the Gaussian closed form with the
       offset held fixed (the contrast only collapses once
       ``pi * n * sigma / 2`` approaches one, hence the long trains);
    3. every balanced Walsh order up to ``max_order``, measured directly;
       these isolate within-train amplitude variation and reject both the
       static offset and the shot-to-shot noise.

    Returns a dict with keys ``mean_rel``, ``mean_sigma``, ``sigma_rel``
    and ``coefficients`` (order -> WalshEstimate).  The inputs are checked
    before any train runs: ``n_sweep`` must be a non-empty list of positive
    multiples of 4, ``max_order`` non-negative, and ``n_pulses`` must fit the
    segments of order ``max_order``.
    """
    if not n_sweep or any(n4 <= 0 or n4 % 4 for n4 in n_sweep):
        raise ValueError(f"sweep lengths must be positive multiples of 4, got {list(n_sweep)}")
    if max_order < 0:
        raise ValueError(f"max_order must be non-negative, got {max_order}")
    if max_order > 0:
        walsh_sign_train(max_order, n_pulses)  # the longest period; raises if it does not fit
    _, ests, sigmas, _ = zip(*(amplitude_cal_step(testbed, _MEAN_N_GROUP, shots) for _ in range(_MEAN_REPEATS)))
    mean_rel, mean_sigma = inverse_variance_mean(ests, sigmas)

    ps, ns = [], []
    for n4 in n_sweep:
        bright = testbed.run_train(np.zeros(n4), shots)
        ps.append(bright / shots)
        ns.append(n4)
    ps, ns = np.array(ps), np.array(ns)

    def resid(params):
        # the fit may probe a huge log sigma; exp overflows to inf, whose
        # damping limit of 0 is the right one, so silence only that overflow
        with np.errstate(over="ignore"):
            sigma = np.exp(params[0])
        return np.array([constant_train_p_zero_gaussian(n, mean_rel, sigma) for n in ns]) - ps

    # scipy's least_squares(method="lm") on MINPACK alone: no scipy.optimize import
    with np.errstate(over="ignore"):
        sigma_rel = float(np.exp(_levenberg_marquardt(resid, np.array([np.log(1e-4)]))[0]))
    if not np.isfinite(sigma_rel):
        raise ValueError(f"the shot-to-shot spread fit diverged (sigma_rel = {sigma_rel})")

    coefficients = {}
    for order in range(1, max_order + 1):
        coefficients[order] = measure_walsh_coefficient(testbed, order, n_pulses, shots)
    return {
        "mean_rel": mean_rel,
        "mean_sigma": mean_sigma,
        "sigma_rel": sigma_rel,
        "coefficients": coefficients,
    }
