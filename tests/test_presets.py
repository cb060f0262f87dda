"""Tests for the canonical operating-point presets."""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from qubitbench import budget, cli, presets, pulsesim
from qubitbench.budget import BudgetInput
from qubitbench.calibration import CalLoopConfig, SimulatedQubitTestbed, walsh_fit
from qubitbench.cliffords import PulseSpec
from qubitbench.noise import MotionalMode, QuantizerConfig
from qubitbench.presets import (
    default_noise_config,
    default_phase_psd,
    default_ssb_curve,
    linear_freq_drift,
    thermal_amp_drift,
)
from qubitbench.pulsesim import DriveParams, ZeemanModel
from qubitbench.rb import RBPlan, RBTiming


class TestNoiseConfig:
    def test_default_values(self):
        cfg = default_noise_config()
        assert cfg.amplitude.sigma_rel == pytest.approx(1.4571e-4)
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
        inp = BudgetInput()
        assert inp.gate_time == 13e-6
        assert inp.t_half_pi == pytest.approx(6e-6)
        assert inp.t2 == 69.0 and presets.T2_UNC == 7.0
        assert inp.sigma0_rel == pytest.approx(1.4571e-4)
        assert presets.AWG_BITS == 15
        assert presets.AWG_FRACTION == pytest.approx(0.23675)
        assert inp.zeeman_residual_hz == 2.5
        assert max(presets.RB_LENGTHS) == 30000

    def test_idle_rates_are_subsecond_scaled(self):
        scale = 0.33468
        assert presets.BRIGHT_PER_S == pytest.approx(1.6e-2 * scale, rel=1e-4)
        assert presets.DARK_PLUS_LEAK_PREP0_PER_S == pytest.approx(1.3e-2 * scale, rel=1e-4)
        assert presets.DARK_PLUS_LEAK_PREP1_PER_S == pytest.approx(1.2e-2 * scale, rel=1e-4)

    def test_drift_trace_is_a_sampled_pair(self):
        times, offsets = presets.default_drift_trace()
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


def _field(cls, name):
    """The default of dataclass field `name`, built if it has a factory."""
    f = {f.name: f for f in dataclasses.fields(cls)}[name]
    return f.default_factory() if f.default is dataclasses.MISSING else f.default


def _arg(func, name):
    return inspect.signature(func).parameters[name].default


def _row(command, option):
    """The default of one option in the CLI's parameter table."""
    return cli._PARAMS[command][option][1]


# where a default is restated -> (its value, the presets name it must be)
RESTATED = {
    "BudgetInput.gate_time": (_field(BudgetInput, "gate_time"), "GATE_TIME"),
    "budget mu": (budget.MEAN_PULSES_PER_CLIFFORD, "MEAN_PULSES_PER_CLIFFORD"),
    "BudgetInput.t2": (_field(BudgetInput, "t2"), "T2_STAR_STAR"),
    "BudgetInput.sigma0_rel": (_field(BudgetInput, "sigma0_rel"), "SIGMA0_REL"),
    "BudgetInput.zeeman_residual_hz": (_field(BudgetInput, "zeeman_residual_hz"), "ZEEMAN_RESIDUAL_HZ"),
    "MotionalMode.eta": (MotionalMode().eta, "ETA"),
    "MotionalMode.omega_m": (MotionalMode().omega_m, "OMEGA_MOTIONAL"),
    "MotionalMode.n_bar0": (MotionalMode().n_bar0, "N_BAR0"),
    "MotionalMode.heating_rate": (MotionalMode().heating_rate, "HEATING_RATE"),
    "QuantizerConfig.bits": (_field(QuantizerConfig, "bits"), "AWG_BITS"),
    "err_awg.bits": (_arg(budget.err_awg, "bits"), "AWG_BITS"),
    "SimulatedQubitTestbed.t_half_pi": (_arg(SimulatedQubitTestbed, "t_half_pi"), "T_HALF_PI"),
    "SimulatedQubitTestbed.gap_time": (SimulatedQubitTestbed(0).gap_time, "GAP_TIME"),
    "SimulatedQubitTestbed.amp_fraction": (_arg(SimulatedQubitTestbed, "amp_fraction"), "AWG_FRACTION"),
    "SimulatedQubitTestbed.sigma0_rel": (_arg(SimulatedQubitTestbed, "sigma0_rel"), "SIGMA0_REL"),
    "SimulatedQubitTestbed.spam": (_arg(SimulatedQubitTestbed, "spam"), "SPAM"),
    "SimulatedQubitTestbed.quantizer.bits": (_arg(SimulatedQubitTestbed, "quantizer").bits, "AWG_BITS"),
    "RBTiming.t_half_pi": (_field(RBTiming, "t_half_pi"), "T_HALF_PI"),
    "RBTiming.ramp_time": (_field(RBTiming, "ramp_time"), "RAMP_TIME"),
    "RBTiming.gap_time": (_field(RBTiming, "gap_time"), "GAP_TIME"),
    "RBPlan.lengths": (_field(RBPlan, "lengths"), "RB_LENGTHS"),
    "RBPlan.n_sequences": (_field(RBPlan, "n_sequences"), "RB_SEQUENCES"),
    "RBPlan.shots_per_sequence": (_field(RBPlan, "shots_per_sequence"), "RB_SHOTS"),
    "CalLoopConfig.n_max": (_field(CalLoopConfig, "n_max"), "CAL_N_MAX"),
    "CalLoopConfig.shots": (_field(CalLoopConfig, "shots"), "CAL_SHOTS"),
    "walsh_fit.max_order": (_arg(walsh_fit, "max_order"), "WALSH_MAX_ORDER"),
    "walsh_fit.n_pulses": (_arg(walsh_fit, "n_pulses"), "WALSH_N_PULSES"),
    "walsh_fit.shots": (_arg(walsh_fit, "shots"), "WALSH_SHOTS"),
    "walsh_fit.n_sweep": (_arg(walsh_fit, "n_sweep"), "WALSH_SWEEP"),
    "PulseSpec.t_half_pi": (_field(PulseSpec, "t_half_pi"), "T_HALF_PI"),
    "PulseSpec.ramp_time": (_field(PulseSpec, "ramp_time"), "RAMP_TIME"),
    "PulseSpec.gap_time": (_field(PulseSpec, "gap_time"), "GAP_TIME"),
    "DriveParams.nominal.ramp_time": (_arg(DriveParams.nominal, "ramp_time"), "RAMP_TIME"),
    "pulsesim mu": (pulsesim.MEAN_PULSES_PER_CLIFFORD, "MEAN_PULSES_PER_CLIFFORD"),
    "thermal_amp_drift.a_inf": (_arg(thermal_amp_drift, "a_inf"), "DRIFT_A_INF"),
    "thermal_amp_drift.tau": (_arg(thermal_amp_drift, "tau"), "DRIFT_TAU"),
    "cli rb t_half_pi": (_row("rb", "t_half_pi"), "T_HALF_PI"),
    "cli rb ramp_time": (_row("rb", "ramp_time"), "RAMP_TIME"),
    "cli rb gap_time": (_row("rb", "gap_time"), "GAP_TIME"),
    "cli rb sequences": (_row("rb", "sequences"), "RB_SEQUENCES"),
    "cli rb shots": (_row("rb", "shots"), "RB_SHOTS"),
    "cli irmb t_half_pi": (_row("irmb", "t_half_pi"), "T_HALF_PI"),
    "cli irmb gap_time": (_row("irmb", "gap_time"), "GAP_TIME"),
    "cli irmb t2": (_row("irmb", "t2"), "T2_STAR_STAR"),
    "cli irmb spam": (_row("irmb", "spam"), "SPAM"),
    "cli irmb sequences": (_row("irmb", "sequences"), "RB_SEQUENCES"),
    "cli irmb shots": (_row("irmb", "shots"), "RB_SHOTS"),
    "cli calibrate n_max": (_row("calibrate", "n_max"), "CAL_N_MAX"),
    "cli calibrate shots": (_row("calibrate", "shots"), "CAL_SHOTS"),
    "cli calibrate sigma0": (_row("calibrate", "sigma0"), "SIGMA0_REL"),
    "cli calibrate spam": (_row("calibrate", "spam"), "SPAM"),
    "cli calibrate t_half_pi": (_row("calibrate", "t_half_pi"), "T_HALF_PI"),
    "cli calibrate amp_fraction": (_row("calibrate", "amp_fraction"), "AWG_FRACTION"),
    "cli calibrate bits": (_row("calibrate", "bits"), "AWG_BITS"),
    "cli calibrate drift_a_inf": (_row("calibrate", "drift_a_inf"), "DRIFT_A_INF"),
    "cli calibrate drift_tau": (_row("calibrate", "drift_tau"), "DRIFT_TAU"),
    "cli walsh max_order": (_row("walsh", "max_order"), "WALSH_MAX_ORDER"),
    "cli walsh n_pulses": (_row("walsh", "n_pulses"), "WALSH_N_PULSES"),
    "cli walsh shots": (_row("walsh", "shots"), "WALSH_SHOTS"),
    "cli walsh sigma0": (_row("walsh", "sigma0"), "SIGMA0_REL"),
    "cli walsh spam": (_row("walsh", "spam"), "SPAM"),
    "cli walsh t_half_pi": (_row("walsh", "t_half_pi"), "T_HALF_PI"),
    "cli walsh drift_a_inf": (_row("walsh", "drift_a_inf"), "DRIFT_A_INF"),
    "cli walsh drift_tau": (_row("walsh", "drift_tau"), "DRIFT_TAU"),
    "cli budget gate_time": (_row("budget", "gate_time"), "GATE_TIME"),
    "cli budget t2": (_row("budget", "t2"), "T2_STAR_STAR"),
    "cli budget sigma0": (_row("budget", "sigma0"), "SIGMA0_REL"),
    "cli budget zeeman_hz": (_row("budget", "zeeman_hz"), "ZEEMAN_RESIDUAL_HZ"),
    "cli budget curve_min": (_row("budget", "curve_min"), "CURVE_GATE_TIME_MIN"),
    "cli budget curve_max": (_row("budget", "curve_max"), "CURVE_GATE_TIME_MAX"),
    "cli budget curve_points": (_row("budget", "curve_points"), "CURVE_POINTS"),
    "cli idle-rates bright": (_row("idle-rates", "bright"), "BRIGHT_PER_S"),
    "cli idle-rates combo0": (_row("idle-rates", "combo0"), "DARK_PLUS_LEAK_PREP0_PER_S"),
    "cli idle-rates combo1": (_row("idle-rates", "combo1"), "DARK_PLUS_LEAK_PREP1_PER_S"),
    "cli idle-rates spam": (_row("idle-rates", "spam"), "SPAM"),
}


class TestOneOperatingPoint:
    """Each default restated outside ``presets`` is the very object it names there,
    so that editing ``presets`` moves the budget, the simulators and the CLI together."""

    @pytest.mark.parametrize("where", RESTATED)
    def test_default_is_the_presets_object(self, where):
        default, name = RESTATED[where]
        assert default is getattr(presets, name)

    def test_budget_curve_sweeps_the_presets_gate_times(self, monkeypatch):
        monkeypatch.setattr(presets, "CURVE_GATE_TIME_MIN", 5e-6)
        monkeypatch.setattr(presets, "CURVE_GATE_TIME_MAX", 7e-6)
        monkeypatch.setattr(presets, "CURVE_POINTS", 3)
        assert budget.budget_curve()["gate_time"] == [5e-6, 6e-6, 7e-6]

    def test_budget_reads_the_presets_where_it_forms_its_rows(self, monkeypatch):
        base = budget.budget_table()
        monkeypatch.setattr(presets, "T2_UNC", 2 * presets.T2_UNC)
        for name in ("BRIGHT_PER_S", "DARK_PLUS_LEAK_PREP0_PER_S", "DARK_PLUS_LEAK_PREP1_PER_S"):
            monkeypatch.setattr(presets, name, 2 * getattr(presets, name))
        monkeypatch.setattr(presets, "AWG_BITS", presets.AWG_BITS - 1)
        monkeypatch.setattr(presets, "RB_LENGTHS", (300, 60000))  # twice the heating time
        table = budget.budget_table()
        assert table["decoherence"].uncertainty == pytest.approx(2 * base["decoherence"].uncertainty, rel=1e-12)
        assert table["idle_and_leakage"].value == pytest.approx(2 * base["idle_and_leakage"].value, rel=1e-12)
        assert table["awg_resolution"].value == pytest.approx(4 * base["awg_resolution"].value, rel=1e-12)
        mode = MotionalMode()
        heating = mode.heating_rate * 30000 * presets.GATE_TIME / 2
        assert table["harmonic_motion"].value / base["harmonic_motion"].value == pytest.approx(
            (mode.n_bar0 + 2 * heating + 0.5) / (mode.n_bar0 + heating + 0.5), rel=1e-12
        )

    def test_the_rb_ladder_is_declared_once(self):
        # config_hash hashes this text, so it stays exactly this string
        assert _row("rb", "lengths") == _row("irmb", "lengths") == "300,950,3000,9500,30000"
        assert tuple(int(x) for x in _row("rb", "lengths").split(",")) == presets.RB_LENGTHS

    def test_the_walsh_sweep_is_declared_once(self):
        # config_hash hashes this text, so it stays exactly this string
        assert _row("walsh", "sweep") == "64,256,1024,2048,4096"
        assert tuple(int(x) for x in _row("walsh", "sweep").split(",")) == presets.WALSH_SWEEP

    def test_the_zeeman_shift_is_the_presets_frequency(self):
        assert ZeemanModel().shift_at_full_amp == 2 * np.pi * presets.ZEEMAN_SHIFT_HZ
