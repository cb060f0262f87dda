"""Default operating point and synthetic noise environment.

These constants describe one self-consistent operating point used
throughout the examples and tests: a 13 us average gate assembled from
6 us pi/2 pulses, and noise strengths chosen so that every analytic
budget term lands at a realistic magnitude for a state-of-the-art
trapped-ion single-qubit gate.

Derivations of the non-obvious numbers:

* ``SIGMA0_REL`` makes the amplitude-noise budget term
  ``mu sigma^2 / 2`` equal 2.3e-9.
* ``AWG_FRACTION`` makes the 15-bit half-LSB rounding term
  ``mu (2^-16 / a)^2 / 6`` equal 1.5e-10.
* The sub-second idle rates of ``BudgetInput.idle`` scale the directly
  measured long-delay rates (bright 1.6e-2 /s, dark plus leakage 1.3e-2 /s
  from 0 and 1.2e-2 /s from 1, no spin flips) by 0.33468 (idle errors grow
  sub-linearly, so short-delay rates are smaller), pinning the idle/leakage
  budget term at 6.2e-9 for a 13 us gate.
* The synthetic local-oscillator phase-noise curve is pure
  1/f^2 at -31.34 dBc/Hz at 1 Hz — exactly white frequency noise with a
  69 s coherence time — plus a -140 dBc/Hz amplifier floor.  It is a
  synthetic stand-in with the right integrated behavior, not a measured
  spectrum.
"""

from __future__ import annotations

import numpy as np

from .budget import BudgetInput
from .cliffords import MEAN_PULSES_PER_CLIFFORD
from .filterfunc import PhasePSD, SSBCurve
from .noise import AmplitudeNoiseModel, MotionalMode, NoiseConfig

__all__ = [
    "GATE_TIME",
    "T_HALF_PI",
    "RAMP_TIME",
    "GAP_TIME",
    "MEAN_PULSES_PER_CLIFFORD",
    "SIGMA0_REL",
    "AWG_BITS",
    "AWG_FRACTION",
    "SPAM",
    "T2_STAR_STAR",
    "ETA",
    "OMEGA_MOTIONAL",
    "N_BAR0",
    "HEATING_RATE",
    "ZEEMAN_RESIDUAL_HZ",
    "default_noise_config",
    "default_ssb_curve",
    "default_phase_psd",
    "default_budget_input",
    "thermal_amp_drift",
    "linear_freq_drift",
]

GATE_TIME = 13e-6
T_HALF_PI = GATE_TIME / MEAN_PULSES_PER_CLIFFORD  # = 6.0e-6
RAMP_TIME = 40e-9
GAP_TIME = 40e-9

SIGMA0_REL = 1.4571e-4
AWG_BITS = 15
AWG_FRACTION = 0.23675
SPAM = 1.1e-3
T2_STAR_STAR = 69.0

ETA = 9.3e-4
OMEGA_MOTIONAL = 2 * np.pi * 5.6e6
N_BAR0 = 2.6
HEATING_RATE = 370.0

ZEEMAN_RESIDUAL_HZ = 2.5


def default_noise_config(include_motional: bool = True) -> NoiseConfig:
    """Realistic fast-tier noise at the default operating point."""
    return NoiseConfig(
        amplitude=AmplitudeNoiseModel(sigma_rel=SIGMA0_REL),
        motional=MotionalMode(
            eta=ETA, omega_m=OMEGA_MOTIONAL, n_bar0=N_BAR0, heating_rate=HEATING_RATE
        )
        if include_motional
        else None,
        dephasing_t2=T2_STAR_STAR,
        spam=SPAM,
    )


def default_ssb_curve(
    f_min: float = 1e-4, f_max: float = 1e7, points_per_decade: int = 12
) -> SSBCurve:
    """Synthetic oscillator phase-noise curve (see module docstring)."""
    level_1hz = 10 * np.log10(1.0 / (2 * np.pi**2 * T2_STAR_STAR))
    floor = -140.0
    n = int(np.ceil(np.log10(f_max / f_min) * points_per_decade)) + 1
    f = np.logspace(np.log10(f_min), np.log10(f_max), n)
    lin = 10 ** ((level_1hz - 20 * np.log10(f)) / 10) + 10 ** (floor / 10)
    return SSBCurve(freqs_hz=tuple(f), dbc_per_hz=tuple(10 * np.log10(lin)))


def default_phase_psd() -> PhasePSD:
    return PhasePSD.from_ssb(default_ssb_curve(), label="synthetic")


def default_budget_input() -> BudgetInput:
    return BudgetInput()


def thermal_amp_drift(a_inf: float = 4.3e-4, tau: float = 240.0, sign: float = -1.0):
    """Exponential approach of the relative amplitude to a warmed-up value."""

    def drift(t):
        return sign * a_inf * (1.0 - np.exp(-np.asarray(t, dtype=float) / tau))

    return drift


def linear_freq_drift(rate_hz_per_s: float):
    """Linear qubit-frequency drift in rad/s as a function of wall-clock time."""

    def drift(t):
        return 2 * np.pi * rate_hz_per_s * np.asarray(t, dtype=float)

    return drift
