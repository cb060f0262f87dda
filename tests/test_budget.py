"""Tests for the analytic error budget and idle-rate estimation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qubitbench.budget import (
    BudgetInput,
    budget_curve,
    budget_table,
    err_amp_drift,
    err_amp_noise,
    err_awg,
    err_decoherence,
    err_harmonic,
    err_idle_leakage,
    err_zeeman,
    estimate_idle_rates,
    idle_scheme_error_prob,
    mean_n_bar,
)
from qubitbench.noise import LANE_IDLE, IdleRates, rng_stream

_MU = 52.0 / 24.0


class TestRowFormulas:
    def test_decoherence(self):
        assert err_decoherence(13e-6, 69.0) == pytest.approx(13e-6 / (3 * 69.0), rel=1e-12)

    def test_amp_noise_is_half_mu_sigma_squared(self):
        sigma = 1.4571e-4
        assert err_amp_noise(sigma) == pytest.approx(0.5 * _MU * sigma**2, rel=1e-12)

    def test_amp_drift_averages_the_trace(self):
        times = np.linspace(0.0, 10.0, 5)
        offsets = np.full(5, 3e-4)
        assert err_amp_drift(times, offsets) == pytest.approx(
            0.5 * _MU * 9e-8, rel=1e-12
        )
        # a linear ramp 0 -> x_max over the window has mean square x_max^2 / 3
        ramp = np.array([0.0, 1e-4, 2e-4])
        expected = 0.5 * _MU * (2e-4) ** 2 / 3.0
        assert err_amp_drift(np.arange(3.0), ramp) == pytest.approx(expected, rel=1e-12)

    def test_awg_resolution(self):
        step_rel = 2.0**-15 / 0.23675
        expected = 0.5 * _MU * step_rel**2 / 12.0
        assert err_awg(0.23675, 15) == pytest.approx(expected, rel=1e-12)
        # one extra bit costs a factor 4 in error
        assert err_awg(0.23675, 14) / err_awg(0.23675, 15) == pytest.approx(4.0)

    def test_zeeman_conventions(self):
        phi = 2 * np.pi * 2.5 * 6e-6
        assert err_zeeman(2.5, 6e-6, convention="twirl") == pytest.approx(
            _MU * phi**2 / 6.0, rel=1e-12
        )
        assert err_zeeman(2.5, 6e-6, convention="worst_case") == pytest.approx(
            _MU * phi**2 / 4.0, rel=1e-12
        )
        with pytest.raises(ValueError):
            err_zeeman(2.5, 6e-6, convention="typo")

    def test_harmonic_scalings(self):
        base = err_harmonic(9.3e-4, 2 * np.pi * 5.6e6, 10.0, 6e-6)
        assert err_harmonic(2 * 9.3e-4, 2 * np.pi * 5.6e6, 10.0, 6e-6) == pytest.approx(
            4 * base, rel=1e-12
        )
        hot = err_harmonic(9.3e-4, 2 * np.pi * 5.6e6, 20.5, 6e-6)
        assert hot / base == pytest.approx((2 * 20.5 + 1) / 21.0, rel=1e-12)
        ratio = err_harmonic(
            9.3e-4, 2 * np.pi * 5.6e6, 10.0, 6e-6, coefficient="single_pulse"
        ) / base
        assert ratio == pytest.approx((3 * np.pi / 4) ** 2 / 4.0, rel=1e-12)

    def test_idle_leakage_is_rate_times_gate_time(self):
        rates = IdleRates(
            bright_per_s=5.3549e-3,
            dark_plus_leak_prep0_per_s=4.3508e-3,
            dark_plus_leak_prep1_per_s=4.0162e-3,
        )
        assert err_idle_leakage(rates, 13e-6) == pytest.approx(
            rates.rb_error_rate_per_s() * 13e-6, rel=1e-12
        )

    def test_mean_occupation_grows_linearly(self):
        assert mean_n_bar(2.6, 370.0, 0.39) == pytest.approx(2.6 + 370.0 * 0.39 / 2, rel=1e-12)


class TestDefaultTable:
    def test_frozen_row_values(self):
        rows = {r.name: r for r in budget_table().rows}
        assert rows["decoherence"].value == pytest.approx(6.2802e-8, rel=1e-4)
        assert rows["decoherence"].uncertainty == pytest.approx(6.3712e-9, rel=1e-4)
        assert rows["idle_and_leakage"].value == pytest.approx(6.19996e-8, rel=1e-4)
        assert rows["amplitude_noise"].value == pytest.approx(2.3001e-8, rel=1e-4)
        assert rows["harmonic_motion"].value == pytest.approx(1.2656e-8, rel=1e-4)
        assert rows["amplitude_drift"].value == pytest.approx(9.0128e-9, rel=1e-4)
        assert rows["awg_resolution"].value == pytest.approx(1.5000e-9, rel=1e-3)
        assert rows["zeeman_residual"].value == pytest.approx(3.2076e-9, rel=1e-4)
        assert rows["spectator_transitions"].value == 1e-9
        assert rows["pulse_ramping"].value == 1e-9
        assert rows["counter_rotating"].value == 1e-10

    def test_bounds_are_marked_as_bounds(self):
        kinds = {r.name: r.kind for r in budget_table().rows}
        assert kinds["spectator_transitions"] == "bound"
        assert kinds["pulse_ramping"] == "bound"
        assert kinds["counter_rotating"] == "bound"
        assert kinds["decoherence"] == "estimate"

    def test_total_and_uncertainty(self):
        tab = budget_table()
        assert tab.total() == pytest.approx(sum(r.value for r in tab.rows), rel=1e-12)
        assert 1.6e-7 <= tab.total() <= 1.8e-7
        assert tab.total_uncertainty() == pytest.approx(6.3712e-9, rel=1e-3)

    def test_serialization_roundtrip(self):
        tab = budget_table()
        doc = json.loads(json.dumps(tab.as_dict()))  # what the budget command writes
        assert doc["total"] == pytest.approx(tab.total())
        assert len(doc["rows"]) == len(tab.rows)
        csv_lines = tab.to_csv().splitlines()
        assert csv_lines[0] == "name,value,uncertainty,kind,note"
        # header, one line per row, and a trailing total line
        assert len(csv_lines) == 2 + len(tab.rows)
        assert csv_lines[-1].startswith("total,")
        assert float(csv_lines[-1].split(",")[1]) == pytest.approx(tab.total(), rel=1e-12)
        d = tab.as_dict()
        assert d["gate_time"] == tab.gate_time

    def test_input_overrides_propagate(self):
        inp = BudgetInput(t2=34.5)
        rows = {r.name: r.value for r in budget_table(inp).rows}
        assert rows["decoherence"] == pytest.approx(2 * 6.2802e-8, rel=1e-3)


class TestCurve:
    def test_grows_with_gate_time_in_the_decoherence_regime(self):
        curve = budget_curve()
        gt = np.asarray(curve["gate_time"])
        total = np.asarray(curve["total"])
        mask = gt >= 13e-6
        assert np.all(np.diff(total[mask]) > 0)

    def test_decoherence_plus_idle_dominate_long_gates(self):
        curve = budget_curve()
        gt = np.asarray(curve["gate_time"])
        i = int(np.argmin(np.abs(gt - 35e-6)))
        slow = curve["decoherence"][i] + curve["idle_and_leakage"][i]
        assert slow / curve["total"][i] > 0.8

    def test_short_gate_total_is_smaller_than_default(self):
        curve = budget_curve()
        gt = np.asarray(curve["gate_time"])
        total = np.asarray(curve["total"])
        i44 = int(np.argmin(np.abs(gt - 4.4e-6)))
        i13 = int(np.argmin(np.abs(gt - 13e-6)))
        assert total[i44] == pytest.approx(1.186e-7, rel=1e-3)
        assert total[i44] < total[i13]

    def test_custom_grid(self):
        times = (8e-6, 16e-6)
        curve = budget_curve(gate_times=times)
        assert tuple(curve["gate_time"]) == times
        assert len(curve["total"]) == 2


class TestIdleSchemes:
    RATES = IdleRates(
        bright_per_s=1.6e-2,
        dark_plus_leak_prep0_per_s=1.3e-2,
        dark_plus_leak_prep1_per_s=1.2e-2,
    )

    def test_unshelved_probability_is_bright_rate(self):
        for scheme in ("none", "other"):
            for prep in (0, 1):
                assert idle_scheme_error_prob(scheme, prep, 1.0, self.RATES) == pytest.approx(
                    1.6e-2, rel=1e-12
                )

    def test_shelved_expected_mixes_dark_and_flip(self):
        # shelving the expected state flips the readout: dark errors and
        # leakage now matter, bright ones do not
        p0 = idle_scheme_error_prob("expected", 0, 1.0, self.RATES)
        p1 = idle_scheme_error_prob("expected", 1, 1.0, self.RATES)
        assert p0 != p1
        assert 0 < p1 < p0 < 1.6e-2

    def test_spam_adds_a_floor(self):
        base = idle_scheme_error_prob("none", 0, 1.0, self.RATES)
        with_spam = idle_scheme_error_prob("none", 0, 1.0, self.RATES, spam=1.1e-3)
        assert with_spam > base

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            idle_scheme_error_prob("sideways", 0, 1.0, self.RATES)


class TestIdleRateEstimation:
    def _dataset(self, seed=20260825, shots=20000):
        # durations capped at 2 s keep the linearized slope fits unbiased at
        # these statistics; longer holds pick up visible quadratic curvature
        durations = np.array([0.25, 0.5, 1.0, 2.0])
        rng = rng_stream(seed, LANE_IDLE)
        data = {}
        for scheme in ("none", "other", "expected"):
            for prep in (0, 1):
                counts = np.array(
                    [
                        rng.binomial(shots, idle_scheme_error_prob(scheme, prep, d, self.RATES))
                        for d in durations
                    ]
                )
                data[(scheme, prep)] = (durations, counts, np.full(len(durations), shots))
        return data

    RATES = TestIdleSchemes.RATES

    def test_roundtrip_recovers_rates(self):
        est = estimate_idle_rates(self._dataset())
        assert abs(est.rates.bright_per_s - 1.6e-2) < 2 * est.sigma_bright
        assert abs(est.rates.dark_plus_leak_prep0_per_s - 1.3e-2) < 3 * est.sigma_combo[0]
        assert abs(est.rates.dark_plus_leak_prep1_per_s - 1.2e-2) < 3 * est.sigma_combo[1]
        assert est.flip_consistent

    def test_flip_rate_upper_bound_is_tight(self):
        est = estimate_idle_rates(self._dataset())
        assert est.rates.flip_per_s + 2 * est.sigma_flip < 3.6e-3

    def test_missing_scheme_rejected(self):
        data = self._dataset()
        del data[("expected", 1)]
        with pytest.raises(ValueError):
            estimate_idle_rates(data)


class TestInputValidation:
    @pytest.mark.parametrize("field", ["gate_time", "t2"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_non_positive_times_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be positive"):
            BudgetInput(**{field: value})

    def test_curve_rejects_a_zero_gate_time(self):
        with pytest.raises(ValueError):
            budget_curve(gate_times=[0.0, 13e-6])
