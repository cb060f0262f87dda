"""Tests for the pulse-level propagator and its high-accuracy error probes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from qubitbench.budget import budget_table
from qubitbench.cliffords import PulseSpec, canonicalize_phase, rotation_matrix
from qubitbench.presets import (
    CURVE_GATE_TIME_MAX,
    CURVE_GATE_TIME_MIN,
    CURVE_POINTS,
    MEAN_PULSES_PER_CLIFFORD,
)
from qubitbench.pulsesim import (
    DriveParams,
    ZeemanModel,
    avg_pulse_error,
    counter_rotating_error,
    pulse_propagator,
    simulate_spectator,
    spectator_error_per_gate,
)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_OMEGA = (np.pi / 2) / 6e-6


def _infidelity(u: np.ndarray, v: np.ndarray) -> float:
    return 1.0 - abs(np.trace(v.conj().T @ u)) / 2.0


def _rect_reference(omega, phi, delta, duration, gap=0.0):
    """Rectangle-pulse propagator: constant drive, then free evolution."""
    h = 0.5 * (omega * (np.cos(phi) * _SX + np.sin(phi) * _SY) - delta * _SZ)
    u = expm(-1j * h * duration)
    if gap:
        u = expm(1j * 0.5 * delta * _SZ * gap) @ u
    return u


class TestRectangleClosedForm:
    def test_resonant_quarter_turn(self):
        pulse = PulseSpec(phase=0.3, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        u = pulse_propagator(pulse, DriveParams(omega_q=_OMEGA))
        ref = _rect_reference(_OMEGA, 0.3, 0.0, 6e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_detuned_rectangle_matches_matrix_exponential(self):
        delta = 2 * np.pi * 2000.0
        pulse = PulseSpec(phase=0.4, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA, detuning=delta)
        u = pulse_propagator(pulse, drive)
        ref = _rect_reference(_OMEGA, 0.4, delta, 6e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_gap_is_free_evolution_after_the_pulse(self):
        delta = 2 * np.pi * 2000.0
        pulse = PulseSpec(phase=0.4, t_half_pi=6e-6, ramp_time=0.0, gap_time=1e-6)
        drive = DriveParams(omega_q=_OMEGA, detuning=delta)
        u = pulse_propagator(pulse, drive)
        ref = _rect_reference(_OMEGA, 0.4, delta, 6e-6, gap=1e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_negative_sign_reverses_the_rotation(self):
        plus = PulseSpec(phase=0.3, sign=1, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        minus = PulseSpec(phase=0.3, sign=-1, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA)
        up = pulse_propagator(plus, drive)
        um = pulse_propagator(minus, drive)
        assert np.abs(canonicalize_phase(um) - canonicalize_phase(up.conj().T)).max() <= 1e-12


class TestRampedPulse:
    def test_split_composition(self):
        # cut inside the trailing gap: the same pulse with a shorter gap,
        # then free evolution over the rest of it
        pulse = PulseSpec(phase=0.7, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 500.0)
        whole = pulse_propagator(pulse, drive, ramp_substeps=256)
        for gap in (0.0, 20e-9):
            first = pulse_propagator(replace(pulse, gap_time=gap), drive, ramp_substeps=256)
            rest = expm(1j * 0.5 * drive.detuning * _SZ * (pulse.gap_time - gap))
            assert np.abs(rest @ first - whole).max() < 1e-10

    def test_ramp_integrator_is_second_order(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 300.0)
        ref = pulse_propagator(pulse, drive, ramp_substeps=4096)
        errs = [
            np.abs(pulse_propagator(pulse, drive, ramp_substeps=n) - ref).max()
            for n in (64, 128, 256)
        ]
        assert errs[0] < 1e-11
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_substep_floor_is_enforced(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6)
        with pytest.raises(ValueError):
            pulse_propagator(pulse, DriveParams(omega_q=_OMEGA), ramp_substeps=16)

    def test_time_varying_amplitude_trace_converges(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6)
        trace = lambda t: 1.0 + 3e-4 * np.sin(2 * np.pi * t / 12e-6)
        ref = pulse_propagator(
            pulse, drive, amplitude_trace=trace, ramp_substeps=64, flat_substeps=512
        )
        coarse = pulse_propagator(
            pulse, drive, amplitude_trace=trace, ramp_substeps=64, flat_substeps=64
        )
        assert np.abs(coarse - ref).max() < 1e-9

    def test_constant_trace_scales_the_rotation_angle(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA)
        scaled = pulse_propagator(pulse, drive, amplitude_trace=1.001)
        ref = rotation_matrix(0.0, 1.001 * np.pi / 2)
        assert np.abs(canonicalize_phase(scaled) - canonicalize_phase(ref)).max() <= 1e-10

    def test_zero_amplitude_freezes_the_state(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        u = pulse_propagator(pulse, DriveParams(omega_q=_OMEGA), amplitude_trace=0.0)
        assert abs(u[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestZeeman:
    def test_shift_is_quadratic_in_amplitude(self):
        z = ZeemanModel(shift_at_full_amp=2 * np.pi * 9.0)
        assert z.shift(1.0) == pytest.approx(2 * np.pi * 9.0)
        assert z.shift(0.5) == pytest.approx(2 * np.pi * 9.0 / 4.0)
        assert z.shift(0.0) == 0.0

    def test_full_amp_shift_cancels_equal_detuning_on_rectangle(self):
        # a rectangle pulse at full amplitude sees the full drive-induced
        # shift, so programming the same static detuning cancels it
        z = ZeemanModel(shift_at_full_amp=2 * np.pi * 9.0)
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        with_both = pulse_propagator(
            pulse, DriveParams(omega_q=_OMEGA, detuning=z.shift(1.0)), zeeman=z
        )
        clean = pulse_propagator(pulse, DriveParams(omega_q=_OMEGA))
        assert np.abs(with_both - clean).max() < 1e-10


class TestErrorProbes:
    def test_avg_pulse_error_small_angle_law(self):
        # state-averaged infidelity of an over-rotation by e is e^2/6
        for e in (1e-3, 3e-3):
            actual = rotation_matrix(0.0, np.pi / 2 + e)
            ideal = rotation_matrix(0.0, np.pi / 2)
            assert avg_pulse_error(actual, ideal) == pytest.approx(e**2 / 6.0, rel=1e-4)

    def test_avg_pulse_error_is_zero_for_identical_ops(self):
        u = rotation_matrix(0.4, 1.3)
        assert avg_pulse_error(u, u) < 1e-14

    # the default pulse, and the shortest of the budget curve (4.4 us gate)
    @pytest.mark.parametrize(
        "t_half_pi", [6.0e-6, CURVE_GATE_TIME_MIN / MEAN_PULSES_PER_CLIFFORD], ids=["6us", "curve-min"]
    )
    def test_spectator_error_stays_below_budget_bound(self, t_half_pi):
        eps = spectator_error_per_gate(t_half_pi)
        assert eps < 1e-9
        if t_half_pi == 6.0e-6:
            # frozen regression window for the default configuration
            assert 0.8e-10 < eps < 2.0e-10

    def test_counter_rotating_error_stays_below_budget_bound_along_the_curve(self):
        bound = budget_table()["counter_rotating"].value
        gate_times = np.linspace(CURVE_GATE_TIME_MIN, CURVE_GATE_TIME_MAX, CURVE_POINTS)
        for g in gate_times:
            res = counter_rotating_error(DriveParams.nominal(g / MEAN_PULSES_PER_CLIFFORD))
            assert res.per_gate_error <= bound, g

    def test_pulse_ramping_stays_below_budget_bound_along_the_curve(self):
        # the +X90 pulse with its sin^2 ramps against the same rotation as a
        # rectangle, both under the drive-induced Zeeman shift, per Clifford
        bound = budget_table()["pulse_ramping"].value
        gate_times = np.linspace(CURVE_GATE_TIME_MIN, CURVE_GATE_TIME_MAX, CURVE_POINTS)
        for g in gate_times:
            t_half_pi = g / MEAN_PULSES_PER_CLIFFORD
            ramped = pulse_propagator(
                PulseSpec(phase=0.0, t_half_pi=t_half_pi), DriveParams.nominal(t_half_pi), zeeman=ZeemanModel()
            )
            rectangle = pulse_propagator(
                PulseSpec(phase=0.0, t_half_pi=t_half_pi, ramp_time=0.0),
                DriveParams.nominal(t_half_pi, ramp_time=0.0),
                zeeman=ZeemanModel(),
            )
            assert MEAN_PULSES_PER_CLIFFORD * avg_pulse_error(ramped, rectangle) <= bound, g

    def test_spectator_leak_accumulates(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6)
        _, leak1 = simulate_spectator(pulse, drive)
        state = None
        leak = 0.0
        for _ in range(3):
            state, leak = simulate_spectator(pulse, drive, state=state)
        assert leak > leak1 > 0.0

    def test_counter_rotating_error_is_quadratic_in_drive_ratio(self):
        res = counter_rotating_error(DriveParams(omega_q=(np.pi / 2) / 5.96e-6))
        r = np.asarray(res.sampled_ratios)
        e = np.asarray(res.sampled_errors)
        assert e[0] / e[1] == pytest.approx((r[0] / r[1]) ** 2, rel=0.02)
        assert res.per_gate_error < 1e-10
        # frozen regression window for the extrapolated coefficient
        assert 0.017 < res.coefficient < 0.025

    def test_counter_rotating_errors_match_extended_precision(self):
        # 40-digit (mpmath) products of the same 1600 and 3200 midpoint steps;
        # double-precision runs of this discretization land ~1e-8 relative
        # away, the rounding floor of a ~2e-6 infidelity
        res = counter_rotating_error(DriveParams(omega_q=(np.pi / 2) / 5.96e-6))
        np.testing.assert_allclose(
            res.sampled_errors, [8.36202009335326e-6, 2.09015132738797e-6], rtol=1e-7, atol=0
        )

    def test_counter_rotating_rejects_small_separation_factors(self):
        with pytest.raises(ValueError):
            counter_rotating_error(
                DriveParams(omega_q=(np.pi / 2) / 5.96e-6), omega_q_factors=(2.0, 4.0)
            )
