"""Tests for closed-loop calibration and Walsh-train drift spectroscopy."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from qubitbench.calibration import (
    _freq_fringe_peak,
    CalLoopConfig,
    SimulatedQubitTestbed,
    amplitude_cal_loop,
    amplitude_cal_step,
    constant_train_p_zero_gaussian,
    frequency_cal_loop,
    frequency_cal_step,
    measure_walsh_coefficient,
    modulated_train_p_zero,
    records_to_jsonl,
    walsh_coefficient,
    walsh_fit,
    walsh_function,
    walsh_sign_train,
)
from qubitbench.presets import thermal_amp_drift

_QUANT_OFFSET = round(0.23675 * 2**15) / 2**15 / 0.23675 - 1.0


def _const(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def _quiet_testbed(seed, **kwargs):
    kwargs.setdefault("sigma0_rel", 0.0)
    kwargs.setdefault("spam", 0.0)
    kwargs.setdefault("bits", None)
    return SimulatedQubitTestbed(master_seed=seed, **kwargs)


class TestTestbed:
    def test_runs_are_deterministic_per_seed(self):
        a = SimulatedQubitTestbed(master_seed=44).run_train(np.zeros(65), 500)
        b = SimulatedQubitTestbed(master_seed=44).run_train(np.zeros(65), 500)
        assert a == b

    def test_clock_advances_with_each_shot(self):
        tb = SimulatedQubitTestbed(master_seed=44)
        assert tb.clock == 0.0
        tb.run_train(np.zeros(9), 100)
        per_shot = 9 * (tb.t_half_pi + tb.gap_time) + 5e-3  # pulses, then the dead time
        assert tb.clock == pytest.approx(100 * per_shot, rel=1e-9)

    @pytest.mark.parametrize("shots", [0, -3])
    def test_needs_at_least_one_shot(self, shots):
        tb = SimulatedQubitTestbed(master_seed=44)
        with pytest.raises(ValueError, match="at least 1"):
            tb.run_train(np.zeros(9), shots)
        assert tb.clock == 0.0

    def test_constant_offset_train_matches_closed_form(self):
        x = 3.1e-4
        tb = _quiet_testbed(2, amp_drift=_const(x))
        n, shots = 256, 40000
        p_emp = tb.run_train(np.zeros(n), shots) / shots
        p_closed = constant_train_p_zero_gaussian(n, x, 0.0)
        assert abs(p_emp - p_closed) < 3 * np.sqrt(p_closed * (1 - p_closed) / shots)

    def test_shot_noise_contrast_matches_gaussian_closed_form(self):
        sigma = 1.4571e-4
        tb = SimulatedQubitTestbed(
            master_seed=13, sigma0_rel=sigma, spam=0.0, bits=None
        )
        n, shots = 4096, 20000
        p_emp = tb.run_train(np.zeros(n), shots) / shots
        p_closed = constant_train_p_zero_gaussian(n, 0.0, sigma)
        assert abs(p_emp - p_closed) < 4 * np.sqrt(p_closed * (1 - p_closed) / shots)


class TestAmplitudeStep:
    def test_recovers_known_offset(self):
        x = 3.1e-4
        tb = _quiet_testbed(3, amp_drift=_const(x))
        p, est, sigma, ok = amplitude_cal_step(tb, 64, 4000)
        assert ok
        assert 0.0 < p < 0.5
        assert abs(est - x) < 3 * sigma
        assert sigma < 1e-4

    def test_sign_is_resolved(self):
        for sgn in (+1.0, -1.0):
            tb = _quiet_testbed(5, amp_drift=_const(sgn * 3e-4))
            _, est, sigma, _ = amplitude_cal_step(tb, 64, 4000)
            assert np.sign(est) == sgn

    def test_flags_nonlinear_regime(self):
        # a large offset drives the fringe far from the linear window
        tb = _quiet_testbed(6, amp_drift=_const(5e-3))
        _, _, _, ok = amplitude_cal_step(tb, 64, 2000)
        assert not ok


class TestFrequencyStep:
    def test_estimates_drive_minus_qubit_detuning(self):
        shift = 2 * np.pi * 5.0
        tb = _quiet_testbed(4, freq_drift=_const(shift))
        p, est, sigma, ok = frequency_cal_step(tb, 256, 2000)
        assert ok
        assert abs(est - (-shift)) < 3 * sigma

    def test_response_is_odd_in_the_shift(self):
        up = _quiet_testbed(4, freq_drift=_const(2 * np.pi * 5.0))
        down = _quiet_testbed(4, freq_drift=_const(-2 * np.pi * 5.0))
        _, est_up, sig, _ = frequency_cal_step(up, 256, 4000)
        _, est_down, _, _ = frequency_cal_step(down, 256, 4000)
        assert abs(est_up + est_down) < 6 * sig

    def test_sensitivity_improves_with_pair_count(self):
        sigmas = {}
        for n_pairs in (64, 256):
            tb = _quiet_testbed(8)
            _, _, sigma, _ = frequency_cal_step(tb, n_pairs, 2000)
            sigmas[n_pairs] = sigma
        assert sigmas[256] < 0.35 * sigmas[64]

    def test_fringe_peak_stays_below_one_half(self):
        tb = _quiet_testbed(4)
        peaks = [_freq_fringe_peak(n, tb.omega_nominal, tb.t_half_pi, tb.gap_time) for n in (1, 4, 16, 64, 256)]
        assert peaks == pytest.approx([0.258, 0.322, 0.343, 0.348, 0.349], abs=2e-3)

    def test_flags_a_reading_near_the_fringe_peak(self):
        # a 300 Hz shift reads within 0.35 of the steep point, the amplitude
        # fringe's limit, but past 0.7 of this fringe's lower peak
        tb = _quiet_testbed(7, freq_drift=_const(2 * np.pi * 300.0))
        p, _, _, ok = frequency_cal_step(tb, 64, 200)
        assert 0.7 * _freq_fringe_peak(64, tb.omega_nominal, tb.t_half_pi, tb.gap_time) < abs(p - 0.5) < 0.35
        assert not ok


class TestLoops:
    def test_amplitude_loop_corrects_static_offset(self):
        tb = SimulatedQubitTestbed(master_seed=9, amp_drift=_const(-3e-4))
        records = amplitude_cal_loop(tb)
        assert records
        assert all(r.kind == "amplitude" for r in records)
        assert any(r.corrected for r in records)
        assert abs(tb.true_relative_error(tb.clock)) < 5e-5

    def test_frequency_loop_tracks_qubit_shift(self):
        tb = SimulatedQubitTestbed(master_seed=10, freq_drift=_const(2 * np.pi * 9.0))
        frequency_cal_loop(tb, CalLoopConfig(n_max=1024, shots=400))
        _, residual, sigma, _ = frequency_cal_step(tb, 1024, 4000)
        assert abs(residual) < 2 * np.pi * 3.0
        assert sigma < 2 * np.pi * 1.0

    @pytest.mark.parametrize(
        "loop, drift",
        [
            (amplitude_cal_loop, {"amp_drift": _const(1.2e-3)}),
            (frequency_cal_loop, {"freq_drift": _const(2 * np.pi * 150.0)}),
        ],
    )
    def test_linear_threshold_decides_linear_ok(self, loop, drift, monkeypatch):
        step = amplitude_cal_step if loop is amplitude_cal_loop else frequency_cal_step

        def threshold(n):
            # 0.7 of the fringe's peak distance from the steep point at N = n
            if loop is amplitude_cal_loop:
                return 0.7 * 0.5
            tb = _quiet_testbed(6)
            return 0.7 * _freq_fringe_peak(n, tb.omega_nominal, tb.t_half_pi, tb.gap_time)

        p, estimate, sigma, linear_ok = step(_quiet_testbed(6, **drift), 64, 200)
        assert 0.1 < abs(p - 0.5) < threshold(64)
        assert linear_ok and abs(estimate) > 3 * sigma  # the loop would correct it
        # the loop's first reading, at N = 1, pinned 0.005 inside and outside
        # the threshold (0.345 and 0.355 for the amplitude loop); pinned
        # readings never converge
        for bright, inside in ((round(200 * (0.5 - threshold(1) + 0.005)), True),
                               (round(200 * (0.5 - threshold(1) - 0.005)), False)):
            tb = _quiet_testbed(6, **drift)
            monkeypatch.setattr(tb, "run_train", lambda phases, shots, bright=bright: bright)
            with pytest.warns(RuntimeWarning, match="did not converge"):
                pinned = loop(tb, CalLoopConfig(shots=200))[0]
            assert pinned.linear_ok is inside
            assert inside or not pinned.corrected

    # each reading's branch is picked by the shorter reading before it; from
    # N = 16 or 64, 3% was left in place and 1% never converged, 5 kHz was
    # left at -5.76 kHz and 700 Hz at -722 Hz, each ending "converged"
    @pytest.mark.parametrize("offset", [0.03, 0.01])
    def test_amplitude_loop_climbs_to_the_resolution_of_its_longest_train(self, offset):
        tb = _quiet_testbed(7, amp_drift=_const(offset))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = amplitude_cal_loop(tb)
        assert records[-1].n_group == 256 and not records[-1].significant
        assert abs(tb.true_relative_error(tb.clock)) < 1e-4

    @pytest.mark.parametrize("shift_hz", [5e3, 700.0, 2e4])
    def test_frequency_loop_climbs_to_the_resolution_of_its_longest_train(self, shift_hz):
        tb = _quiet_testbed(7, freq_drift=_const(2 * np.pi * shift_hz))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = frequency_cal_loop(tb)
        assert records[-1].n_group == 256 and not records[-1].significant
        assert abs(tb.detuning_setting / (2 * np.pi) - shift_hz) < 10.0

    def test_a_loop_that_does_not_converge_warns(self):
        # 40 kHz lies past the N = 1 fringe's +-omega / 2 = +-20.8 kHz
        tb = _quiet_testbed(7, freq_drift=_const(2 * np.pi * 4e4))
        with pytest.warns(RuntimeWarning, match="frequency loop did not converge in 40 steps"):
            records = frequency_cal_loop(tb)
        assert len(records) == 40

    def test_records_serialize_to_jsonl(self):
        tb = SimulatedQubitTestbed(master_seed=9, amp_drift=_const(-3e-4))
        records = amplitude_cal_loop(tb)
        lines = records_to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        first = json.loads(lines[0])
        assert {"kind", "step", "estimate", "sigma", "corrected", "setting_after"} <= set(first)


class TestWalshAlgebra:
    def test_values_are_signs_and_order_zero_is_flat(self):
        x = (np.arange(64) + 0.5) / 64
        assert np.array_equal(walsh_function(0, x), np.ones(64))
        for order in range(1, 8):
            assert set(np.unique(walsh_function(order, x))) <= {-1.0, 1.0}

    def test_orthonormality_on_dyadic_grid(self):
        x = (np.arange(64) + 0.5) / 64
        for i in range(8):
            for j in range(8):
                ip = np.mean(walsh_function(i, x) * walsh_function(j, x))
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_coefficient_normalization(self):
        x = (np.arange(64) + 0.5) / 64
        for order in range(8):
            assert walsh_coefficient(walsh_function(order, x), order) == pytest.approx(1.0)

    def test_low_order_annihilation_of_polynomials(self):
        # the order 2^M - 1 function is a perfect M-fold finite difference:
        # it kills every polynomial of degree below M
        n = 64
        t = (np.arange(n) + 0.5) / n
        for m in range(1, 5):
            order = 2**m - 1
            for k in range(m):
                assert abs(walsh_coefficient(t**k, order)) < 1e-14

    def test_reconstruct_inverts_coefficients(self):
        rng = np.random.default_rng(7)
        coeffs = {order: float(c) for order, c in enumerate(rng.normal(size=8))}
        x = (np.arange(64) + 0.5) / 64
        series = sum(a * walsh_function(order, x) for order, a in coeffs.items())
        for order, a in coeffs.items():
            assert walsh_coefficient(series, order) == pytest.approx(a, abs=1e-12)

    def test_sign_train_divisibility_guard(self):
        assert len(walsh_sign_train(3, 64)) == 64
        with pytest.raises(ValueError):
            walsh_sign_train(3, 6)
        with pytest.raises(ValueError):
            walsh_sign_train(4, 4)


class TestWalshTrains:
    def test_modulated_train_closed_form_matches_matrix_product(self):
        # same-axis product oracle: a sign-balanced train of pi/2 pulses with
        # per-pulse relative errors x_j accumulates exactly the Walsh
        # coefficient picked out by the signs, then the bias pulse converts
        # it to population
        n = 64
        t = (np.arange(n) + 0.5) / n
        cubic = 1e-3 * (t**3 - 0.4 * t + 0.1)
        for order in (1, 2, 3, 5, 7):
            signs = walsh_sign_train(order, n)
            angles = signs * (np.pi / 2) * (1.0 + cubic)
            theta = np.sum(angles) + np.pi / 2  # bias pulse
            p_product = np.cos(theta / 2.0) ** 2
            coeff = walsh_coefficient(cubic, order)
            assert abs(p_product - modulated_train_p_zero(n, coeff)) < 1e-8

    def test_balanced_order_rejects_static_offset(self):
        offset = 3e-4
        tb = _quiet_testbed(11, amp_drift=_const(offset))
        est = measure_walsh_coefficient(tb, 3, 64, 200000)
        assert abs(est.coefficient) < offset / 3
        assert abs(est.coefficient) < 3 * est.sigma + 1e-5

    def test_order_zero_is_rejected(self):
        tb = _quiet_testbed(12)
        with pytest.raises(ValueError):
            measure_walsh_coefficient(tb, 0, 64, 100)


class TestWalshFit:
    def test_recovers_mean_and_spread_with_quantizer(self):
        tb = SimulatedQubitTestbed(master_seed=16)
        res = walsh_fit(tb)
        assert abs(res["mean_rel"] - _QUANT_OFFSET) < 3 * res["mean_sigma"]
        assert res["sigma_rel"] == pytest.approx(1.4571e-4, rel=0.25)
        assert set(res["coefficients"]) == set(range(1, 8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sweep": []},
            {"n_sweep": [4, -4]},
            {"n_sweep": [0]},
            {"n_sweep": [4, 6]},
            {"max_order": -1},
            {"max_order": 3, "n_pulses": 6},
        ],
        ids=["empty-sweep", "negative-length", "zero-length", "not-a-multiple-of-4", "negative-order", "n-pulses"],
    )
    def test_rejects_bad_input_before_any_train(self, kwargs, monkeypatch):
        tb = SimulatedQubitTestbed(master_seed=3)
        trains = []
        monkeypatch.setattr(tb, "run_train", lambda *args: trains.append(args))
        with pytest.raises(ValueError):
            walsh_fit(tb, **kwargs)
        assert trains == []

    @pytest.mark.parametrize("a_inf", [1.5, -2.0])
    def test_a_diverging_spread_fit_raises_instead_of_returning_inf(self, a_inf):
        # drift this large washes out the sweep's contrast, and the fit of
        # log sigma runs off; it used to overflow to sigma_rel = inf
        tb = SimulatedQubitTestbed(master_seed=20260825, amp_drift=thermal_amp_drift(a_inf, 240.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spread fit diverged"):
                walsh_fit(tb, max_order=2, n_pulses=16, shots=200, n_sweep=(4, 16))

    def test_mean_is_near_zero_without_quantizer(self):
        tb = SimulatedQubitTestbed(master_seed=7, bits=None)
        res = walsh_fit(tb)
        assert abs(res["mean_rel"]) < 3 * res["mean_sigma"]
        assert res["sigma_rel"] == pytest.approx(1.4571e-4, rel=0.25)
