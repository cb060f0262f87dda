"""Tests for noise models: RNG streams, quantizer, trajectories, idle rates."""

from __future__ import annotations

import numpy as np
import pytest

from qubitbench.noise import (
    AmplitudeNoiseModel,
    FrequencyNoiseTrajectory,
    IdleRates,
    NoiseConfig,
    QuantizerConfig,
    brownian_phase_std,
    rng_stream,
)


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


class TestQuantizer:
    def test_quantize_is_idempotent(self):
        q = QuantizerConfig(bits=15)
        vals = np.linspace(0.2, 1.0, 1001)
        once = q.quantize(vals)
        assert np.array_equal(q.quantize(once), once)

    def test_step_size(self):
        assert QuantizerConfig(bits=15).step == 2.0**-15
        assert QuantizerConfig(bits=3).step == 0.125

    def test_rounding_error_is_at_most_half_a_step(self):
        q = QuantizerConfig(bits=7)
        vals = np.linspace(0.0, 1.0, 997)
        assert np.abs(q.quantize(vals) - vals).max() <= q.step / 2 + 1e-15

    def test_scalar_in_scalar_out(self):
        q = QuantizerConfig(bits=15)
        out = q.quantize(0.236751)
        assert isinstance(out, float)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            QuantizerConfig(bits=0)
        with pytest.raises(ValueError):
            QuantizerConfig(bits=64)


class TestAmplitudeNoise:
    def test_multiplier_statistics(self):
        model = AmplitudeNoiseModel(sigma_rel=1.4571e-4, mean_offset_rel=3e-4)
        draws = model.sample_multipliers(rng_stream(5, 2), 200_000)
        assert draws.mean() == pytest.approx(1.0 + 3e-4, abs=2e-6)
        assert draws.std() == pytest.approx(1.4571e-4, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeNoiseModel(sigma_rel=-1e-4)


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
    def test_split_respects_dark_fraction(self):
        rates = IdleRates(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
            dark_fraction=0.25,
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

    def test_rb_error_rate_independent_of_dark_fraction(self):
        base = dict(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
        )
        a = IdleRates(dark_fraction=0.1, **base)
        b = IdleRates(dark_fraction=0.9, **base)
        assert a.rb_error_rate_per_s() == b.rb_error_rate_per_s()

    def test_linearized_probability_guard(self):
        rates = IdleRates(bright_per_s=1.0)
        assert rates.probability(1.0, 0.3) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            rates.probability(1.0, 0.6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            IdleRates(bright_per_s=-1.0)
        with pytest.raises(ValueError):
            IdleRates(dark_fraction=1.5)


class TestNoiseConfig:
    def test_defaults_are_noise_free(self):
        cfg = NoiseConfig()
        assert cfg.amplitude is None
        assert cfg.motional is None
        assert cfg.dephasing_t2 is None
        assert cfg.depolarizing_per_gate is None
        assert cfg.detuning_offset == 0.0
        assert cfg.spam == 0.0
