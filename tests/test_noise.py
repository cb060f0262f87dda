"""Tests for noise models: RNG streams, the testbed's amplitude rounding and the
RB engine's amplitude noise, trajectories, idle rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitbench import noise
from qubitbench.calibration import SimulatedQubitTestbed
from qubitbench.noise import (
    FrequencyNoiseTrajectory,
    IdleRates,
    NoiseConfig,
    brownian_phase_std,
    rng_stream,
)
from qubitbench.rb import RBPlan, _draw_shot_noise


class TestRngStreams:
    def test_same_key_reproduces_the_stream(self):
        a = rng_stream(123, 4, 5).standard_normal(8)
        b = rng_stream(123, 4, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_lanes_are_distinct(self):
        a = rng_stream(123, 1).standard_normal(8)
        b = rng_stream(123, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_extra_ids_change_the_stream(self):
        a = rng_stream(123, 1, 7).standard_normal(8)
        b = rng_stream(123, 1, 8).standard_normal(8)
        assert not np.array_equal(a, b)


def _testbed(bits, amp_fraction=1.0, setting=1.0):
    tb = SimulatedQubitTestbed(0, amp_fraction=amp_fraction, bits=bits)
    tb.amp_setting = setting
    return tb


_BITS = st.integers(1, 40)
_FRACTIONS = st.floats(0.0, 1.0, exclude_min=True)
_SETTINGS = st.floats(0.0, 4.0)


class TestQuantizer:
    """The testbed plays ``amp_setting * amp_fraction`` rounded to a multiple
    of ``2**-bits`` of the waveform generator's full scale."""

    @given(bits=_BITS, amp_fraction=_FRACTIONS, setting=_SETTINGS)
    def test_quantize_is_idempotent(self, bits, amp_fraction, setting):
        once = _testbed(bits, amp_fraction, setting).programmed_amp_multiplier()
        assert _testbed(bits, amp_fraction, once).programmed_amp_multiplier() == once

    def test_step_size(self):
        # 2**-bits of full scale is 2**-bits / amp_fraction of the setting
        assert _testbed(3, 1.0, 0.3).programmed_amp_multiplier() == 0.25
        assert _testbed(3, 0.5, 1.1).programmed_amp_multiplier() == 1.0
        assert _testbed(3, 0.5, 1.2).programmed_amp_multiplier() == 1.25
        assert _testbed(15, 1.0, 1.4 * 2.0**-15).programmed_amp_multiplier() == 2.0**-15

    @given(bits=_BITS, amp_fraction=_FRACTIONS, setting=_SETTINGS)
    def test_rounding_error_is_at_most_half_a_step(self, bits, amp_fraction, setting):
        multiplier = _testbed(bits, amp_fraction, setting).programmed_amp_multiplier()
        assert isinstance(multiplier, float)
        step, word = 2.0**-bits, multiplier * amp_fraction
        # a whole multiple of the step, up to the rounding of / and * amp_fraction
        assert word == pytest.approx(round(word / step) * step, rel=1e-12, abs=0.0)
        assert abs(word - setting * amp_fraction) <= step / 2 + 4 * math.ulp(max(word, 1.0))

    def test_scalar_in_scalar_out(self):
        for bits in (None, 1, 15, 40):
            assert type(_testbed(bits, 0.23675, 0.9).programmed_amp_multiplier()) is float

    def test_bits_validation(self):
        for bits in (0, 41):
            with pytest.raises(ValueError, match="bits"):
                SimulatedQubitTestbed(0, bits=bits)

    def test_no_bits_plays_the_setting_unrounded(self):
        assert _testbed(None, 0.23675, 0.9876543210123).programmed_amp_multiplier() == 0.9876543210123


class TestAmplitudeNoise:
    def test_multiplier_statistics(self):
        plan = RBPlan(5, lengths=(1,), n_sequences=200, shots_per_sequence=1000)
        mult, _, _ = _draw_shot_noise(plan, 1, NoiseConfig(sigma0_rel=1.4571e-4))
        assert mult.shape == (200, 1000)
        assert mult.mean() == pytest.approx(1.0, abs=2e-6)
        assert mult.std() == pytest.approx(1.4571e-4, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma0_rel"):
            NoiseConfig(sigma0_rel=-1e-4)


class TestBrownianPhase:
    def test_variance_matches_exponential_decay(self):
        # exp(-t/t2) coherence decay corresponds to phase variance 2 t / t2
        t2 = 69.0
        for t in (1e-3, 0.5, 12.0):
            assert brownian_phase_std(t, t2) == pytest.approx(np.sqrt(2 * t / t2), rel=1e-12)

    def test_rejects_nonpositive_t2(self):
        with pytest.raises(ValueError):
            brownian_phase_std(1.0, 0.0)


class TestFrequencyTrajectory:
    def test_variance_matches_psd_integral_for_white_noise(self):
        level = 4.0  # rad^2/s^2 per Hz
        rng = rng_stream(77, 3)
        traj = FrequencyNoiseTrajectory.from_psd(
            lambda f: np.full_like(f, level), 1.0, 1e4, rng, tones_per_decade=128
        )
        assert traj.variance() == pytest.approx(level * (1e4 - 1.0), rel=1e-3)

    def test_detuning_at_zero_is_cosine_sum(self):
        rng = rng_stream(78, 3)
        traj = FrequencyNoiseTrajectory.from_psd(lambda f: 1.0 / f, 0.1, 10.0, rng)
        expected = float(np.sum(traj.amplitudes * np.cos(traj.phases)))
        assert traj.detuning(0.0) == pytest.approx(expected, rel=1e-12)

    def test_detuning_scalar_and_array_agree(self):
        rng = rng_stream(79, 3)
        traj = FrequencyNoiseTrajectory.from_psd(lambda f: 1.0 / f**2, 0.01, 100.0, rng)
        ts = np.array([0.0, 0.3, 1.7])
        arr = traj.detuning(ts)
        assert arr.shape == (3,)
        for t, v in zip(ts, arr):
            assert traj.detuning(float(t)) == pytest.approx(v, rel=1e-12)

    def test_time_average_of_variance(self):
        # the empirical variance over a long window approaches the tone power
        rng = rng_stream(80, 3)
        traj = FrequencyNoiseTrajectory.from_psd(
            lambda f: np.ones_like(f), 1.0, 100.0, rng, tones_per_decade=16
        )
        ts = np.linspace(0.0, 200.0, 40001)
        empirical = np.var(traj.detuning(ts))
        assert empirical == pytest.approx(traj.variance(), rel=0.05)

    def test_from_psd_validates_range(self):
        rng = rng_stream(81, 3)
        with pytest.raises(ValueError):
            FrequencyNoiseTrajectory.from_psd(lambda f: f, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            FrequencyNoiseTrajectory.from_psd(lambda f: f, 10.0, 1.0, rng)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            FrequencyNoiseTrajectory(np.ones(3), np.ones(3), np.ones(2))


class TestIdleRates:
    def test_split_respects_dark_fraction(self, monkeypatch):
        monkeypatch.setattr(noise, "_DARK_FRACTION", 0.25)
        rates = IdleRates(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
        )
        assert rates.dark_per_s(0) == pytest.approx(0.25 * 1.3e-2)
        assert rates.leak_per_s(0) == pytest.approx(0.75 * 1.3e-2)
        assert rates.dark_per_s(1) == pytest.approx(0.25 * 1.2e-2)
        assert rates.dark_per_s(0) + rates.leak_per_s(0) == pytest.approx(1.3e-2)

    def test_rb_error_rate_weights(self):
        rates = IdleRates(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
            flip_per_s=2.0e-3,
        )
        expected = 0.5 * 1.6e-2 + 0.25 * (1.3e-2 + 1.2e-2) + 2.0e-3
        assert rates.rb_error_rate_per_s() == pytest.approx(expected, rel=1e-12)

    def test_rb_error_rate_independent_of_dark_fraction(self, monkeypatch):
        rates = IdleRates(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
        )
        monkeypatch.setattr(noise, "_DARK_FRACTION", 0.1)
        a = rates.rb_error_rate_per_s()
        monkeypatch.setattr(noise, "_DARK_FRACTION", 0.9)
        assert rates.rb_error_rate_per_s() == a

    def test_linearized_probability_guard(self):
        rates = IdleRates(bright_per_s=1.0)
        assert rates.probability(1.0, 0.3) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            rates.probability(1.0, 0.6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            IdleRates(bright_per_s=-1.0)


class TestNoiseConfig:
    def test_defaults_are_noise_free(self):
        cfg = NoiseConfig()
        assert cfg.sigma0_rel is None
        assert cfg.motional is None
        assert cfg.dephasing_t2 is None
        assert cfg.depolarizing_per_gate is None
        assert cfg.detuning_offset == 0.0
        assert cfg.spam == 0.0
