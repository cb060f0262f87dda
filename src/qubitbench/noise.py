"""Noise channels, hardware imperfections, and deterministic RNG streams.

Every stochastic component draws from a named stream derived from
``(master_seed, lane, *ids)`` through ``numpy.random.SeedSequence``, so runs
are reproducible bit-for-bit and adding shots to one lane never perturbs
another.

Models collected here:

* shot-to-shot Gaussian scaling of the drive amplitude, with an optional
  static miscalibration offset;
* multiplicative sinusoidal modulation of the Rabi rate caused by residual
  harmonic motion (modulation depth grows with the thermal occupation,
  which itself grows linearly with time through a heating rate);
* finite-resolution amplitude quantization of the waveform generator;
* idle-time error rates for bright/dark state preparations, including the
  combined dark+leakage rates that joint measurements cannot separate;
* slow frequency-noise trajectories synthesized from a one-sided power
  spectral density as a superposition of log-spaced tones, plus the
  white-frequency-noise shortcut of Gaussian phase increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .presets import AWG_BITS, ETA, HEATING_RATE, N_BAR0, OMEGA_MOTIONAL

__all__ = [
    "rng_stream",
    "LANE_PLAN",
    "LANE_AMPLITUDE",
    "LANE_MOTIONAL",
    "LANE_DEPHASING",
    "LANE_READOUT",
    "LANE_IDLE",
    "LANE_BOOTSTRAP",
    "LANE_CAL",
    "AmplitudeNoiseModel",
    "MotionalMode",
    "QuantizerConfig",
    "IdleRates",
    "FrequencyNoiseTrajectory",
    "brownian_phase_std",
    "NoiseConfig",
]

LANE_PLAN = 1
LANE_AMPLITUDE = 2
LANE_MOTIONAL = 3
LANE_DEPHASING = 4
LANE_READOUT = 5
LANE_IDLE = 6
LANE_BOOTSTRAP = 7
LANE_CAL = 8


def rng_stream(master_seed: int, lane: int, *ids: int) -> np.random.Generator:
    """Independent generator for (master_seed, lane, *ids).

    The same tuple always yields the same stream; distinct tuples yield
    statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(lane), *map(int, ids))))


# ---------------------------------------------------------------------------
# Amplitude noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplitudeNoiseModel:
    """Quasi-static relative scaling of the Rabi rate.

    Each shot draws one multiplier ``1 + sigma_rel * g`` with ``g`` standard
    normal, held constant for the whole sequence (the noise is slow compared
    to a single sequence).
    """

    sigma_rel: float = 0.0

    def __post_init__(self):
        if self.sigma_rel < 0:
            raise ValueError("sigma_rel must be non-negative")

    def sample_multipliers(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return 1.0 + self.sigma_rel * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# Residual harmonic motion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotionalMode:
    """Sinusoidal Rabi-rate modulation from residual thermal motion.

    The instantaneous Rabi rate is scaled by ``1 + m cos(omega_m t + phi)``
    with modulation depth ``m = 2 * eta * sqrt(n_bar + 1/2)`` and a phase
    ``phi`` that is random shot to shot.  ``n_bar`` increases linearly from
    ``n_bar0`` at ``heating_rate`` quanta per second.
    """

    eta: float = ETA
    omega_m: float = OMEGA_MOTIONAL
    n_bar0: float = N_BAR0
    heating_rate: float = HEATING_RATE

    def n_bar_at(self, t: float) -> float:
        return self.n_bar0 + self.heating_rate * t

    def depth(self, n_bar: float) -> float:
        return 2.0 * self.eta * np.sqrt(n_bar + 0.5)

    def depth_at(self, t: float) -> float:
        return self.depth(self.n_bar_at(t))

    def mean_area_factor(
        self, depth: float | np.ndarray, phase: float | np.ndarray, duration: float
    ) -> np.ndarray:
        """Exact average of the multiplier over a flat top of `duration`.

        This is the factor by which the rotation angle of a rectangular
        pulse is scaled.  The fast tier evaluates it through ``area_phasor``;
        this closed form is kept as the tests' reference for that phasor, and
        the traced benchmark wraps it by name.
        """
        wt = self.omega_m * duration
        return 1.0 + depth * (np.sin(wt + phase) - np.sin(phase)) / wt

    def area_phasor(self, t_start: float | np.ndarray, duration: float) -> np.ndarray:
        """Phasor ``s`` of a pulse starting at `t_start`, independent of the shot:
        ``mean_area_factor(d, phi0 + omega_m t_start, duration) == 1 + d Im(e^{i phi0} s)``."""
        wt = self.omega_m * duration
        return np.exp(1j * self.omega_m * np.asarray(t_start)) * (np.exp(1j * wt) - 1.0) / wt


# ---------------------------------------------------------------------------
# Waveform-generator resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizerConfig:
    """Fixed-point amplitude resolution of the waveform generator."""

    bits: int = AWG_BITS

    def __post_init__(self):
        if not 1 <= self.bits <= 40:
            raise ValueError("bits must be between 1 and 40")

    @property
    def step(self) -> float:
        """Smallest representable amplitude increment (full scale = 1)."""
        return 2.0 ** -self.bits

    def quantize(self, value: float | np.ndarray) -> float | np.ndarray:
        """Round to the nearest representable amplitude.  Idempotent."""
        scaled = np.asarray(value) / self.step
        out = np.round(scaled) * self.step
        if np.ndim(value) == 0:
            return float(out)
        return out


# ---------------------------------------------------------------------------
# Idle-time errors
# ---------------------------------------------------------------------------

# share of each measured dark-plus-leakage rate taken as dark-state error (the
# rest is leakage); joint measurements fix only the sum, so this is a choice
_DARK_FRACTION = 0.5


@dataclass(frozen=True)
class IdleRates:
    """Per-second error rates accumulated while the qubit idles.

    ``bright_per_s`` is the rate at which an expected-bright shot reads
    dark.  The two ``dark_plus_leak_*`` rates are the sums of dark-state
    readout error and leakage out of the qubit manifold for preparations 0
    and 1; joint measurements determine only the sums, so the split is an
    explicit modelling choice (``_DARK_FRACTION``).  Leaked population reads
    bright.  ``flip_per_s`` is the rate of real spin flips.
    """

    bright_per_s: float = 0.0
    dark_plus_leak_prep0_per_s: float = 0.0
    dark_plus_leak_prep1_per_s: float = 0.0
    flip_per_s: float = 0.0

    def __post_init__(self):
        for name in (
            "bright_per_s",
            "dark_plus_leak_prep0_per_s",
            "dark_plus_leak_prep1_per_s",
            "flip_per_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def dark_per_s(self, prepared: int) -> float:
        combo = (
            self.dark_plus_leak_prep0_per_s if prepared == 0 else self.dark_plus_leak_prep1_per_s
        )
        return _DARK_FRACTION * combo

    def leak_per_s(self, prepared: int) -> float:
        combo = (
            self.dark_plus_leak_prep0_per_s if prepared == 0 else self.dark_plus_leak_prep1_per_s
        )
        return (1.0 - _DARK_FRACTION) * combo

    def probability(self, rate_per_s: float, duration: float) -> float:
        """Linearized event probability; rejects durations where it breaks."""
        p = rate_per_s * duration
        if p > 0.5:
            raise ValueError(
                f"idle error probability {p:.3g} exceeds 0.5; the linearized model is invalid"
            )
        return p

    def rb_error_rate_per_s(self) -> float:
        """Benchmarking error per second of idle time per gate.

        Averaging the expected outcome over random final states gives
        bright and dark errors weight 1/2 each, and the two preparations
        weight 1/2 each; the split between dark error and leakage drops
        out.
        """
        return (
            0.5 * self.bright_per_s
            + 0.25 * (self.dark_plus_leak_prep0_per_s + self.dark_plus_leak_prep1_per_s)
            + self.flip_per_s
        )


# ---------------------------------------------------------------------------
# Frequency noise
# ---------------------------------------------------------------------------


class FrequencyNoiseTrajectory:
    """Slow qubit-frequency noise as a superposition of discrete tones.

    Tones are log-spaced (``tones_per_decade`` per decade) between
    ``f_min`` and ``f_max``; each carries power ``S(f_k) * df_k`` from the
    one-sided PSD (rad^2/s^2 per Hz when the PSD describes angular
    frequency) and a uniformly random phase.
    """

    def __init__(self, frequencies: np.ndarray, amplitudes: np.ndarray, phases: np.ndarray):
        self.frequencies = np.asarray(frequencies, dtype=float)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        if not (len(self.frequencies) == len(self.amplitudes) == len(self.phases)):
            raise ValueError("frequencies, amplitudes, phases must have equal length")

    @classmethod
    def from_psd(
        cls,
        psd: Callable[[np.ndarray], np.ndarray],
        f_min: float,
        f_max: float,
        rng: np.random.Generator,
        tones_per_decade: int = 64,
    ) -> "FrequencyNoiseTrajectory":
        if not 0 < f_min < f_max:
            raise ValueError("need 0 < f_min < f_max")
        n_decades = np.log10(f_max / f_min)
        n_tones = max(2, int(np.ceil(n_decades * tones_per_decade)))
        edges = np.logspace(np.log10(f_min), np.log10(f_max), n_tones + 1)
        centers = np.sqrt(edges[:-1] * edges[1:])
        widths = np.diff(edges)
        power = np.asarray(psd(centers)) * widths
        amplitudes = np.sqrt(2.0 * power)
        phases = rng.uniform(0.0, 2 * np.pi, n_tones)
        return cls(centers, amplitudes, phases)

    def detuning(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous frequency offset (same units as sqrt(S*df))."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        args = 2 * np.pi * np.outer(t_arr, self.frequencies) + self.phases
        out = np.cos(args) @ self.amplitudes
        if np.ndim(t) == 0:
            return float(out[0])
        return out

    def variance(self) -> float:
        return float(0.5 * np.sum(self.amplitudes**2))


def brownian_phase_std(duration: float | np.ndarray, t2: float) -> np.ndarray:
    """Std dev of the diffusing phase accumulated during `duration`.

    White frequency noise with coherence time ``t2`` dephases a
    superposition as ``exp(-t / t2)``; the equivalent Gaussian phase
    increment has variance ``2 * duration / t2``.
    """
    if t2 <= 0:
        raise ValueError("t2 must be positive")
    return np.sqrt(2.0 * np.asarray(duration, dtype=float) / t2)


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseConfig:
    """Everything the benchmarking engine needs to corrupt a run.

    Any field left ``None`` is simply skipped.  ``dephasing_t2`` is the
    white-frequency-noise coherence time; ``depolarizing_per_gate`` is a
    plain depolarizing probability applied once per group element, useful
    for fast validation runs; ``spam`` is a symmetric readout flip
    probability applied to every shot.
    """

    amplitude: AmplitudeNoiseModel | None = None
    motional: MotionalMode | None = None
    idle: IdleRates | None = None
    dephasing_t2: float | None = None
    depolarizing_per_gate: float | None = None
    detuning_offset: float = 0.0
    spam: float = 0.0

    def __post_init__(self):
        if self.dephasing_t2 is not None and self.dephasing_t2 <= 0:
            raise ValueError("dephasing_t2 must be positive")
        if self.depolarizing_per_gate is not None and not 0 <= self.depolarizing_per_gate < 1:
            raise ValueError("depolarizing_per_gate must lie in [0, 1)")
        if not 0 <= self.spam < 0.5:
            raise ValueError("spam must lie in [0, 0.5)")
