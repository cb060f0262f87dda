"""Tests for the pulse-level propagator and its high-accuracy error probes."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from qubitbench.cliffords import PulseSpec, QubitState, UnitaryOp
from qubitbench.pulsesim import (
    DriveParams,
    SpectatorConfig,
    ZeemanModel,
    avg_pulse_error,
    counter_rotating_error,
    evolve_sequence,
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
        u = pulse_propagator(pulse, DriveParams(omega_q=_OMEGA), include_gap=False).matrix
        ref = _rect_reference(_OMEGA, 0.3, 0.0, 6e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_detuned_rectangle_matches_matrix_exponential(self):
        delta = 2 * np.pi * 2000.0
        pulse = PulseSpec(phase=0.3, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA, detuning=delta, phase=0.1)
        u = pulse_propagator(pulse, drive, include_gap=False).matrix
        ref = _rect_reference(_OMEGA, 0.4, delta, 6e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_gap_is_free_evolution_after_the_pulse(self):
        delta = 2 * np.pi * 2000.0
        pulse = PulseSpec(phase=0.3, t_half_pi=6e-6, ramp_time=0.0, gap_time=1e-6)
        drive = DriveParams(omega_q=_OMEGA, detuning=delta, phase=0.1)
        u = pulse_propagator(pulse, drive, include_gap=True).matrix
        ref = _rect_reference(_OMEGA, 0.4, delta, 6e-6, gap=1e-6)
        assert _infidelity(u, ref) < 1e-12

    def test_negative_sign_reverses_the_rotation(self):
        plus = PulseSpec(phase=0.3, sign=1, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        minus = PulseSpec(phase=0.3, sign=-1, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA)
        up = pulse_propagator(plus, drive, include_gap=False)
        um = pulse_propagator(minus, drive, include_gap=False)
        assert um.equal_up_to_phase(up.dagger(), tol=1e-12)


class TestRampedPulse:
    def test_split_composition(self):
        pulse = PulseSpec(phase=0.7, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 500.0)
        total = pulse.total_time
        whole = pulse_propagator(pulse, drive, ramp_substeps=256)
        for t_cut in (30e-9, 3e-6, total - 20e-9):
            first = pulse_propagator(pulse, drive, t_start=0.0, t_end=t_cut, ramp_substeps=256)
            second = pulse_propagator(pulse, drive, t_start=t_cut, t_end=total, ramp_substeps=256)
            assert np.abs(first.compose(second).matrix - whole.matrix).max() < 1e-10

    def test_ramp_integrator_is_second_order(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 300.0)
        ref = pulse_propagator(pulse, drive, ramp_substeps=4096).matrix
        errs = [
            np.abs(pulse_propagator(pulse, drive, ramp_substeps=n).matrix - ref).max()
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
        ).matrix
        coarse = pulse_propagator(
            pulse, drive, amplitude_trace=trace, ramp_substeps=64, flat_substeps=64
        ).matrix
        assert np.abs(coarse - ref).max() < 1e-9

    def test_constant_trace_scales_the_rotation_angle(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)
        drive = DriveParams(omega_q=_OMEGA)
        scaled = pulse_propagator(pulse, drive, amplitude_trace=1.001, include_gap=False)
        ref = UnitaryOp.rotation(0.0, 1.001 * np.pi / 2)
        assert scaled.equal_up_to_phase(ref, tol=1e-10)


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
            pulse, DriveParams(omega_q=_OMEGA, detuning=z.shift(1.0)), zeeman=z, include_gap=False
        )
        clean = pulse_propagator(pulse, DriveParams(omega_q=_OMEGA), include_gap=False)
        assert np.abs(with_both.matrix - clean.matrix).max() < 1e-10


class TestEvolution:
    def test_one_pulse_train_matches_propagator(self):
        pulse = PulseSpec(phase=1.1, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 100.0)
        state = evolve_sequence(QubitState.zero(), [pulse], drive, ramp_substeps=128)
        expected = pulse_propagator(pulse, drive, ramp_substeps=128).apply(QubitState.zero())
        assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-15

    def test_z_phase_is_rz_after_each_pulse(self):
        pulses = [
            PulseSpec(phase=phase, t_half_pi=6e-6, ramp_time=40e-9, gap_time=40e-9)
            for phase in (0.0, np.pi / 2, 0.3)
        ]
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6, detuning=2 * np.pi * 100.0)
        z_phases = [0.7, -1.9, np.pi]
        state = evolve_sequence(QubitState.zero(), pulses, drive, z_phases=z_phases)
        expected = QubitState.zero()
        for pulse, angle in zip(pulses, z_phases):
            expected = UnitaryOp.rz(angle).apply(pulse_propagator(pulse, drive).apply(expected))
        assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-14

    def test_zero_amplitude_freezes_the_state(self):
        pulses = [PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=0.0, gap_time=0.0)] * 3
        drive = DriveParams(omega_q=_OMEGA)
        state = evolve_sequence(QubitState.zero(), pulses, drive, amplitude_trace=0.0)
        assert state.probability(0) == pytest.approx(1.0, abs=1e-12)

    def test_trace_time_is_measured_from_the_train_start(self):
        pulses = [
            PulseSpec(phase=0.0, t_half_pi=6e-6, ramp_time=40e-9, gap_time=t_gap)
            for t_gap in (40e-9, 1e-6, 40e-9)
        ]
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6)
        trace = lambda t: 1.0 + 3e-2 * np.sin(2 * np.pi * t / 15e-6)
        state = evolve_sequence(QubitState.zero(), pulses, drive, amplitude_trace=trace)
        expected, t0 = QubitState.zero(), 0.0
        for pulse in pulses:
            shifted = lambda t, t0=t0: trace(t0 + t)
            expected = pulse_propagator(pulse, drive, amplitude_trace=shifted).apply(expected)
            t0 += pulse.total_time
        assert np.abs(state.amplitudes - expected.amplitudes).max() < 1e-14
        # a trace read from each pulse's own start plays a different train
        unshifted = QubitState.zero()
        for pulse in pulses:
            unshifted = pulse_propagator(pulse, drive, amplitude_trace=trace).apply(unshifted)
        assert np.abs(state.amplitudes - unshifted.amplitudes).max() > 1e-3


class TestErrorProbes:
    def test_avg_pulse_error_small_angle_law(self):
        # state-averaged infidelity of an over-rotation by e is e^2/6
        for e in (1e-3, 3e-3):
            actual = UnitaryOp.rotation(0.0, np.pi / 2 + e)
            ideal = UnitaryOp.rotation(0.0, np.pi / 2)
            assert avg_pulse_error(actual, ideal) == pytest.approx(e**2 / 6.0, rel=1e-4)

    def test_avg_pulse_error_is_zero_for_identical_ops(self):
        u = UnitaryOp.rotation(0.4, 1.3)
        assert avg_pulse_error(u, u) < 1e-14

    def test_spectator_error_stays_below_budget_bound(self):
        eps = spectator_error_per_gate(6.0e-6)
        assert eps < 1e-9
        # frozen regression window for the default configuration
        assert 0.8e-10 < eps < 2.0e-10

    def test_spectator_leak_accumulates(self):
        pulse = PulseSpec(phase=0.0, t_half_pi=6e-6)
        drive = DriveParams(omega_q=(np.pi / 2) / 5.96e-6)
        _, leak1 = simulate_spectator(pulse, drive, SpectatorConfig())
        state = None
        leak = 0.0
        for _ in range(3):
            state, leak = simulate_spectator(pulse, drive, SpectatorConfig(), state=state)
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
