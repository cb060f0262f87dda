"""Tests for phase-noise spectra, filter functions, and coherence prediction."""

from __future__ import annotations

import numpy as np
import pytest

from qubitbench import cli
from qubitbench.filterfunc import (
    ControlTimeline,
    PhasePSD,
    Segment,
    SSBCurve,
    chi_echo,
    chi_overlap,
    chi_ramsey,
    chi_timeline,
    filter_function,
    g_echo,
    g_free,
    predict_irmb,
    predict_t2,
)
from qubitbench.presets import default_phase_psd, default_ssb_curve


class TestSSBCurve:
    def test_interpolation_is_linear_in_log_frequency(self):
        curve = SSBCurve(freqs_hz=np.array([1.0, 100.0]), dbc_per_hz=np.array([-100.0, -120.0]))
        assert curve.level(10.0) == pytest.approx(-110.0)

    def test_level_clamps_outside_the_tabulated_range(self):
        curve = SSBCurve(freqs_hz=np.array([1.0, 100.0]), dbc_per_hz=np.array([-100.0, -120.0]))
        assert curve.level(0.01) == pytest.approx(-100.0)
        assert curve.level(1e6) == pytest.approx(-120.0)

    def test_csv_roundtrip(self):
        curve = default_ssb_curve()
        text = curve.to_csv()
        assert text.splitlines()[0] == "frequency_hz,dbc_per_hz"
        back = SSBCurve.from_csv(text)
        assert np.allclose(back.freqs_hz, curve.freqs_hz)
        assert np.allclose(back.dbc_per_hz, curve.dbc_per_hz)

    def test_phase_psd_conversion_doubles_the_ssb_power(self):
        curve = SSBCurve(freqs_hz=np.array([1.0, 100.0]), dbc_per_hz=np.array([-100.0, -100.0]))
        psd = PhasePSD.from_ssb(curve)
        assert psd(10.0) == pytest.approx(2e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_rejected(self, bad):
        # a nan frequency passes the ordering checks, so finiteness is its own rule
        with pytest.raises(ValueError, match="finite"):
            SSBCurve(freqs_hz=(1.0, bad), dbc_per_hz=(-100.0, -120.0))
        with pytest.raises(ValueError, match="finite"):
            SSBCurve(freqs_hz=(1.0, 100.0), dbc_per_hz=(-100.0, bad))


class TestFilterFunctions:
    def test_free_precession_matches_analytic(self):
        tau = 1.0
        timeline = ControlTimeline(segments=(Segment(duration=tau),))
        omega = np.logspace(-1, 2, 50)
        numeric = filter_function(timeline, omega)
        assert np.allclose(numeric, g_free(omega, tau), rtol=1e-6)

    def test_echo_matches_analytic(self):
        tau = 1.0
        timeline = ControlTimeline(
            segments=(
                Segment(duration=tau / 2),
                Segment(duration=0.0, angle=np.pi),
                Segment(duration=tau / 2),
            )
        )
        omega = np.logspace(-1, 2, 50)
        numeric = filter_function(timeline, omega)
        assert np.allclose(numeric, g_echo(omega, tau), rtol=1e-6)

    def test_driven_segment_matches_analytic(self):
        # a drive at Rabi rate rabi about x turns the z noise axis, so the noise
        # is seen at the two sidebands omega +- rabi
        d = 6e-6
        rabi = (np.pi / 2) / d
        omega = np.logspace(3, 8, 60)
        numeric = filter_function(ControlTimeline(segments=(Segment(duration=d, rabi=rabi),)), omega)
        sidebands = sum(np.sin((omega + s) * d / 2) ** 2 / (omega + s) ** 2 for s in (rabi, -rabi))
        assert np.allclose(numeric, omega**2 / 2 * sidebands, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("phase", [0.0, np.pi / 2], ids=["x", "y"])
    def test_a_short_driven_pi_pulse_echoes(self, phase):
        # a pi pulse of 1e-5 tau centred in tau: its finite width enters at
        # (omega * width)**2, below 1e-8 for omega tau <= 10
        tau, width = 1.0, 1e-5
        free = Segment(duration=(tau - width) / 2)
        pulse = Segment(duration=width, rabi=np.pi / width, phase=phase)
        omega = np.logspace(-1, 1, 50)
        numeric = filter_function(ControlTimeline(segments=(free, pulse, free)), omega)
        assert np.allclose(numeric, g_echo(omega, tau), rtol=0, atol=1e-8)

    def test_echo_suppresses_dc(self):
        omega = np.array([1e-4, 1e-3])
        tau = 1.0
        assert np.all(g_echo(omega, tau) < 1e-3 * g_free(omega, tau))

    def test_analytic_shapes(self):
        assert g_free(np.array([np.pi]), 1.0)[0] == pytest.approx(1.0)
        assert g_echo(np.array([2 * np.pi]), 1.0)[0] == pytest.approx(4.0)


class TestWhiteNoiseIdentity:
    def test_chi_ramsey_is_tau_over_t2(self):
        psd = PhasePSD.white_fm(69.0)
        for tau in (1.0, 6.9, 69.0):
            assert chi_ramsey(psd, tau) == pytest.approx(tau / 69.0, rel=1e-3)

    def test_echo_does_not_help_against_white_noise(self):
        psd = PhasePSD.white_fm(69.0)
        assert chi_echo(psd, 69.0) == pytest.approx(1.0, rel=1e-3)

    def test_chi_timeline_agrees_with_dedicated_forms(self):
        psd = PhasePSD.white_fm(69.0)
        tau = 1.0
        ramsey = ControlTimeline(segments=(Segment(duration=tau),))
        echo = ControlTimeline(
            segments=(
                Segment(duration=tau / 2),
                Segment(duration=0.0, angle=np.pi),
                Segment(duration=tau / 2),
            )
        )
        assert chi_timeline(psd, ramsey) == pytest.approx(chi_ramsey(psd, tau), rel=1e-6)
        assert chi_timeline(psd, echo) == pytest.approx(chi_echo(psd, tau), rel=1e-6)

    def test_zero_delay_is_exactly_zero_and_negative_rejects(self):
        psd = PhasePSD.white_fm(69.0)
        assert chi_ramsey(psd, 0.0) == 0.0
        assert chi_echo(psd, 0.0) == 0.0
        with pytest.raises(ValueError):
            chi_ramsey(psd, -1.0)


class TestOverlapIntegral:
    def test_warns_when_spectral_mass_leaks_past_the_edges(self):
        # a narrow tabulated range cannot contain the white-noise overlap
        psd = PhasePSD.white_fm(69.0, f_range=(1e-3, 1e-1))
        with pytest.warns(RuntimeWarning):
            chi_ramsey(psd, 1.0)

    def test_warning_names_the_edge_and_whether_the_range_can_widen(self):
        # a 1 s Ramsey overlap of white frequency noise peaks near 1 Hz
        with pytest.warns(RuntimeWarning, match="at the high edge: widen the range"):
            chi_overlap(PhasePSD.white_fm(69.0), lambda w: g_free(w, 1.0), f_max=0.1)
        narrow = PhasePSD.white_fm(69.0, f_range=(1e-3, 1e-1))
        with pytest.warns(RuntimeWarning, match="at the high edge, the spectrum's tabulated support") as caught:
            chi_ramsey(narrow, 1.0)
        assert len(caught) == 1

    def test_no_warning_when_the_range_is_wide_enough(self):
        import warnings

        psd = PhasePSD.white_fm(69.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chi_ramsey(psd, 1.0)

    def test_refinement_converges(self):
        psd = PhasePSD.white_fm(69.0)
        coarse = chi_overlap(psd, lambda w: g_free(w, 1.0), points_per_decade=50)
        fine = chi_overlap(psd, lambda w: g_free(w, 1.0), points_per_decade=400)
        assert coarse == pytest.approx(fine, rel=2e-3)


class TestPredictions:
    def test_predict_t2_inverts_white_noise(self):
        assert predict_t2(PhasePSD.white_fm(69.0)) == pytest.approx(69.0, rel=1e-2)

    def test_predict_t2_on_synthetic_oscillator_spectrum(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t2 = predict_t2(default_phase_psd())
        assert t2 == pytest.approx(69.98, rel=0.01)

    @pytest.mark.parametrize(
        "psd, kind, bracket",
        [
            (default_phase_psd(), "ramsey", (1e-2, 1e4)),
            (default_phase_psd(), "echo", (1e-3, 1e4)),
            (PhasePSD.white_fm(69.0), "ramsey", (1e-3, 1e4)),
            (PhasePSD.white_fm(1.0), "ramsey", (1e-3, 1e4)),
        ],
        ids=["default-ramsey", "default-echo", "white-69s", "white-1s"],
    )
    def test_predict_t2_bisection_matches_brentq(self, psd, kind, bracket):
        import warnings

        from scipy.optimize import brentq

        fn = chi_ramsey if kind == "ramsey" else chi_echo
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            log_root = brentq(
                lambda x: fn(psd, float(np.exp(x))) - 1.0, np.log(bracket[0]), np.log(bracket[1]), xtol=1e-10
            )
            t2 = predict_t2(psd, kind, bracket=bracket)
        assert t2 == pytest.approx(float(np.exp(log_root)), rel=1e-10, abs=0)

    def test_predict_t2_rejects_an_unbracketed_root(self):
        with pytest.raises(ValueError, match="not bracketed"):
            predict_t2(PhasePSD.white_fm(69.0), bracket=(1e-3, 1.0))
        with pytest.raises(ValueError, match="not bracketed"):
            predict_t2(PhasePSD.white_fm(69.0), bracket=(1e3, 1e4))
        with pytest.raises(ValueError, match="not bracketed"):
            predict_t2(PhasePSD.white_fm(69.0), bracket=(0.0, 1e4))  # log 0 = -inf

    @pytest.mark.parametrize("kind", ["Ramsey", "hahn", ""])
    def test_unknown_kind_is_rejected_by_decay_and_t2(self, kind):
        psd = PhasePSD.white_fm(69.0)
        with pytest.raises(ValueError, match="kind must be"):
            predict_t2(psd, kind)

    def test_predict_t2_reports_spectral_mass_past_the_edges(self):
        # at the root, 69.98 s, the lowest tabulated decade holds about 12.5% of chi
        with pytest.warns(RuntimeWarning, match="at the low edge, the spectrum's tabulated support") as caught:
            predict_t2(default_phase_psd(), "ramsey", bracket=(1e-2, 1e4))
        assert len(caught) == 1

    def test_predict_t2_warns_only_for_the_integral_at_its_root(self):
        # the bisection's trial at tau = 1e4 s leaks past the low edge; the
        # integral at the root, about 1 s, does not
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t2 = predict_t2(PhasePSD.white_fm(1.0, f_range=(1e-4, 1e7)), "ramsey", bracket=(1e-2, 1e4))
        assert t2 == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize(
        "call",
        [lambda: chi_ramsey(default_phase_psd(), 100.0), lambda: predict_t2(default_phase_psd())],
        ids=["chi_ramsey", "predict_t2"],
    )
    def test_edge_warnings_name_the_callers_line(self, call):
        with pytest.warns(RuntimeWarning, match="significant weight") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]

    def test_phase_noise_edge_warnings_name_the_cli(self):
        with pytest.warns(RuntimeWarning, match="significant weight") as caught:
            assert cli.main(["phase-noise"]) == 0
        assert {w.filename for w in caught} == {cli.__file__}

    def test_predict_irmb_is_linear_in_chi(self):
        psd = PhasePSD.white_fm(69.0)
        baseline = 1.5e-7
        mu = 52.0 / 24.0
        out = predict_irmb(psd, [0.0, 0.01, 0.02], baseline=baseline)
        assert out[0] == pytest.approx(baseline)
        for delay, val in zip((0.01, 0.02), out[1:]):
            assert val == pytest.approx(baseline + mu * chi_ramsey(psd, delay) / 3.0, rel=1e-9)
