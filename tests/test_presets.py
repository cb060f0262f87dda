"""Tests for the canonical operating-point presets."""

from __future__ import annotations

import numpy as np
import pytest

from qubitbench.presets import (
    default_budget_input,
    default_noise_config,
    default_phase_psd,
    default_ssb_curve,
    linear_freq_drift,
    thermal_amp_drift,
)


class TestNoiseConfig:
    def test_default_values(self):
        cfg = default_noise_config()
        assert cfg.amplitude.sigma_rel == pytest.approx(1.4571e-4)
        assert cfg.amplitude.mean_offset_rel == 0.0
        assert cfg.motional.eta == pytest.approx(9.3e-4)
        assert cfg.motional.omega_m == pytest.approx(2 * np.pi * 5.6e6)
        assert cfg.motional.n_bar0 == 2.6
        assert cfg.motional.heating_rate == 370.0
        assert cfg.dephasing_t2 == 69.0
        assert cfg.spam == pytest.approx(1.1e-3)
        # no RB engine models the waveform quantizer, so the config has no such field
        assert not hasattr(cfg, "quantizer")

    def test_motional_can_be_excluded(self):
        assert default_noise_config(include_motional=False).motional is None


class TestBudgetInput:
    def test_operating_point(self):
        inp = default_budget_input()
        assert inp.gate_time == 13e-6
        assert inp.mu == pytest.approx(52.0 / 24.0)
        assert inp.t2 == 69.0 and inp.t2_unc == 7.0
        assert inp.sigma0_rel == pytest.approx(1.4571e-4)
        assert inp.awg_bits == 15
        assert inp.awg_fraction == pytest.approx(0.23675)
        assert inp.zeeman_residual_hz == 2.5
        assert inp.longest_sequence_gates == 30000

    def test_idle_rates_are_subsecond_scaled(self):
        inp = default_budget_input()
        scale = 0.33468
        assert inp.idle.bright_per_s == pytest.approx(1.6e-2 * scale, rel=1e-4)
        assert inp.idle.dark_plus_leak_prep0_per_s == pytest.approx(1.3e-2 * scale, rel=1e-4)
        assert inp.idle.dark_plus_leak_prep1_per_s == pytest.approx(1.2e-2 * scale, rel=1e-4)

    def test_drift_trace_is_a_sampled_pair(self):
        inp = default_budget_input()
        times, offsets = inp.drift_trace
        assert len(times) == len(offsets)
        assert np.all(np.diff(times) > 0)


class TestDriftShapes:
    def test_thermal_settling_curve(self):
        drift = thermal_amp_drift()
        assert drift(0.0) == pytest.approx(0.0, abs=1e-15)
        assert drift(240.0) == pytest.approx(-4.3e-4 * (1 - np.exp(-1.0)), rel=1e-9)
        assert drift(1e9) == pytest.approx(-4.3e-4, rel=1e-9)

    def test_thermal_sign_flag(self):
        assert thermal_amp_drift(sign=+1.0)(240.0) > 0

    def test_linear_frequency_drift_is_in_angular_units(self):
        drift = linear_freq_drift(0.5)
        assert drift(10.0) == pytest.approx(2 * np.pi * 5.0, rel=1e-12)
        assert drift(0.0) == 0.0


class TestSyntheticSpectrum:
    def test_range_and_floor(self):
        curve = default_ssb_curve()
        assert curve.f_range == (1e-4, 1e7)
        # broadband floor at -140 dBc/Hz
        assert curve.level(1e7) == pytest.approx(-140.0, abs=0.1)

    def test_phase_psd_wraps_the_curve(self):
        psd = default_phase_psd()
        curve = default_ssb_curve()
        assert psd.f_range == curve.f_range
        f = 1.0
        assert psd(f) == pytest.approx(2 * 10 ** (curve.level(f) / 10.0), rel=1e-6)
