"""Default operating point and synthetic noise environment.

These constants describe one self-consistent operating point used
throughout the examples and tests: a 13 us average gate assembled from
6 us pi/2 pulses, and noise strengths chosen so that every analytic
budget term lands at a realistic magnitude for a state-of-the-art
trapped-ion single-qubit gate.

This module is the one place where the operating point is written.  Every
default of the budget, the simulators, the testbed and the CLI reads its
names, so it imports nothing from the package at module level; the three
``default_*`` builders import the types they build when they are called.

Derivations of the non-obvious numbers:

* ``SIGMA0_REL`` makes the amplitude-noise budget term
  ``mu sigma^2 / 2`` equal 2.3e-9.
* ``AWG_FRACTION`` makes the 15-bit half-LSB rounding term
  ``mu (2^-16 / a)^2 / 6`` equal 1.5e-10.
* The sub-second idle rates ``BRIGHT_PER_S``, ``DARK_PLUS_LEAK_PREP0_PER_S``
  and ``DARK_PLUS_LEAK_PREP1_PER_S`` scale the directly measured long-delay
  rates (bright 1.6e-2 /s, dark plus leakage 1.3e-2 /s from 0 and
  1.2e-2 /s from 1, no spin flips) by 0.33468 (idle errors grow
  sub-linearly, so short-delay rates are smaller), pinning the idle/leakage
  budget term at 6.2e-9 for a 13 us gate.
* The synthetic local-oscillator phase-noise curve is pure
  1/f^2 at -31.34 dBc/Hz at 1 Hz — exactly white frequency noise with a
  69 s coherence time — plus a -140 dBc/Hz amplifier floor.  It is a
  synthetic stand-in with the right integrated behavior, not a measured
  spectrum.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .filterfunc import PhasePSD, SSBCurve
    from .noise import NoiseConfig

__all__ = [
    "MEAN_PULSES_PER_CLIFFORD", "GATE_TIME", "T_HALF_PI", "RAMP_TIME", "GAP_TIME",
    "SIGMA0_REL", "AWG_BITS", "AWG_FRACTION", "SPAM", "T2_STAR_STAR", "T2_UNC", "RB_LENGTHS",
    "BRIGHT_PER_S", "DARK_PLUS_LEAK_PREP0_PER_S", "DARK_PLUS_LEAK_PREP1_PER_S",
    "ETA", "OMEGA_MOTIONAL", "N_BAR0", "HEATING_RATE", "ZEEMAN_RESIDUAL_HZ",
    "DRIFT_A_INF", "DRIFT_TAU", "CURVE_GATE_TIME_MIN", "CURVE_GATE_TIME_MAX", "CURVE_POINTS",
    "OMEGA_QUBIT", "SPECTATOR_DETUNING", "SPECTATOR_RABI_RATIO", "SPECTATOR_T2",
    "default_noise_config", "default_ssb_curve", "default_phase_psd", "default_drift_trace", "thermal_amp_drift",
    "linear_freq_drift",
]

#: mean minimal word length of the 24-element gate table, without building the table
MEAN_PULSES_PER_CLIFFORD = 52 / 24

GATE_TIME = 13e-6
T_HALF_PI = GATE_TIME / MEAN_PULSES_PER_CLIFFORD  # = 6.0e-6
RAMP_TIME = 40e-9
GAP_TIME = 40e-9

SIGMA0_REL = 1.4571e-4
AWG_BITS = 15
AWG_FRACTION = 0.23675
SPAM = 1.1e-3
T2_STAR_STAR = 69.0
T2_UNC = 7.0  # standard uncertainty of T2_STAR_STAR, s

# the default sequence lengths of rb and irmb; the longest sets the heating
# that the budget's harmonic row averages over
RB_LENGTHS = (300, 950, 3000, 9500, 30000)

BRIGHT_PER_S = 5.3549e-3
DARK_PLUS_LEAK_PREP0_PER_S = 4.3508e-3
DARK_PLUS_LEAK_PREP1_PER_S = 4.0162e-3

ETA = 9.3e-4
OMEGA_MOTIONAL = 2 * np.pi * 5.6e6
N_BAR0 = 2.6
HEATING_RATE = 370.0

ZEEMAN_RESIDUAL_HZ = 2.5

# the qubit transition (rad/s), against which the counter-rotating drive
# term is extrapolated
OMEGA_QUBIT = 2 * np.pi * 3.123e9

# the four off-resonant spectator transitions, averaged: each qubit level
# couples to two spectator levels detuned by +-SPECTATOR_DETUNING (rad/s)
# from the drive, at SPECTATOR_RABI_RATIO times the qubit Rabi rate, and
# SPECTATOR_T2 (s) is their coherence time in the decoherence bound
SPECTATOR_DETUNING = 2 * np.pi * 104e6
SPECTATOR_RABI_RATIO = 1.4
SPECTATOR_T2 = 40e-3

# thermal settling of the drive amplitude (``thermal_amp_drift``)
DRIFT_A_INF = 4.3e-4
DRIFT_TAU = 240.0

# gate durations of the budget's sweep: np.linspace(min, max, points)
CURVE_GATE_TIME_MIN = 4.4e-6
CURVE_GATE_TIME_MAX = 35e-6
CURVE_POINTS = 18


def default_noise_config(include_motional: bool = True) -> NoiseConfig:
    """Realistic fast-tier noise at the default operating point."""
    from .noise import AmplitudeNoiseModel, MotionalMode, NoiseConfig

    return NoiseConfig(
        amplitude=AmplitudeNoiseModel(sigma_rel=SIGMA0_REL),
        motional=MotionalMode() if include_motional else None,
        dephasing_t2=T2_STAR_STAR,
        spam=SPAM,
    )


def default_ssb_curve() -> SSBCurve:
    """Synthetic oscillator phase-noise curve (see module docstring),
    tabulated at 12 points per decade over 1e-4 Hz to 10 MHz."""
    from .filterfunc import SSBCurve

    level_1hz = 10 * np.log10(1.0 / (2 * np.pi**2 * T2_STAR_STAR))
    floor = -140.0
    f = np.logspace(-4.0, 7.0, 11 * 12 + 1)
    lin = 10 ** ((level_1hz - 20 * np.log10(f)) / 10) + 10 ** (floor / 10)
    return SSBCurve(freqs_hz=tuple(f), dbc_per_hz=tuple(10 * np.log10(lin)))


def default_phase_psd() -> PhasePSD:
    from .filterfunc import PhasePSD

    return PhasePSD.from_ssb(default_ssb_curve(), label="synthetic")


def default_drift_trace() -> tuple[np.ndarray, np.ndarray]:
    """Representative slow amplitude wander between calibrations, the budget's
    drift row: +-1.29e-4 relative over three 600 s cycles, sampled every 2.5 s."""
    t = np.linspace(0.0, 1800.0, 721)
    return t, 1.29e-4 * np.cos(2 * np.pi * t / 600.0)


def thermal_amp_drift(a_inf: float = DRIFT_A_INF, tau: float = DRIFT_TAU, sign: float = -1.0):
    """Exponential approach of the relative amplitude to a warmed-up value."""

    def drift(t):
        return sign * a_inf * (1.0 - np.exp(-np.asarray(t, dtype=float) / tau))

    return drift


def linear_freq_drift(rate_hz_per_s: float):
    """Linear qubit-frequency drift in rad/s as a function of wall-clock time."""

    def drift(t):
        return 2 * np.pi * rate_hz_per_s * np.asarray(t, dtype=float)

    return drift
