"""Tests for maximum-likelihood decay fitting and bootstrap uncertainties."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitbench import fitting
from qubitbench.fitting import (
    binomial_variance,
    bootstrap_ci,
    inverse_variance_mean,
    mle_fit,
    survival_model,
    weighted_line,
)
from qubitbench.noise import rng_stream


def _neg_log_likelihood(params, lengths, k, n):
    """The fit's objective at one point, as scipy's ``minimize`` takes it."""
    return float(fitting._nll(params[0], params[1], lengths, k, n))


def _synthetic_counts(rng, lengths, shots_each, eps, amp):
    lengths = np.asarray(lengths, dtype=float)
    p = survival_model(lengths, eps, amp)
    shots = np.full(lengths.shape, shots_each)
    successes = rng.binomial(shots, p)
    return lengths, successes, shots


class TestSurvivalModel:
    def test_short_sequence_limit(self):
        assert survival_model(np.array([0.0]), 1e-4, 0.5)[0] == pytest.approx(1.0)

    def test_long_sequence_limit(self):
        assert survival_model(np.array([1e9]), 1e-4, 0.5)[0] == pytest.approx(0.5)

    def test_decay_rate(self):
        # one step multiplies the centered survival by (1 - 2 eps)
        eps = 3e-3
        p = survival_model(np.array([10.0, 11.0]), eps, 0.5)
        assert (p[1] - 0.5) / (p[0] - 0.5) == pytest.approx(1 - 2 * eps, rel=1e-12)

    def test_output_clipped_to_unit_interval(self):
        p = survival_model(np.array([0.0]), 1e-9, 0.6)
        assert p[0] == 1.0


class TestMleFit:
    def test_recovers_known_error_rate(self):
        rng = rng_stream(2024, 7)
        eps_true = 1.0e-4
        lengths, successes, shots = _synthetic_counts(
            rng, [30, 300, 1000, 3000], 20000, eps_true, 0.499
        )
        fit = mle_fit(lengths, successes, shots)
        assert fit.converged
        assert fit.identifiable
        assert not fit.at_boundary
        assert fit.epsilon == pytest.approx(eps_true, rel=0.05)
        assert fit.amplitude == pytest.approx(0.499, abs=0.01)

    def test_pooling_is_equivalent_to_pre_pooled_counts(self):
        rng = rng_stream(11, 7)
        lengths = np.array([100.0, 100.0, 1000.0, 1000.0])
        shots = np.array([500, 500, 500, 500])
        successes = rng.binomial(shots, survival_model(lengths, 2e-4, 0.5))
        split = mle_fit(lengths, successes, shots)
        pooled = mle_fit(
            np.array([100.0, 1000.0]),
            np.array([successes[:2].sum(), successes[2:].sum()]),
            np.array([1000, 1000]),
        )
        assert split.epsilon == pytest.approx(pooled.epsilon, rel=1e-6)
        assert split.log_likelihood == pytest.approx(pooled.log_likelihood, abs=1e-6)

    def test_single_length_is_not_identifiable(self):
        fit = mle_fit(np.array([100.0]), np.array([480]), np.array([500]))
        assert not fit.identifiable

    def test_noise_free_flat_data_is_not_identifiable(self):
        lengths = np.array([10.0, 100.0, 1000.0])
        shots = np.array([200, 200, 200])
        fit = mle_fit(lengths, np.array([199, 199, 199]), shots)
        assert not fit.identifiable

    def test_error_free_data_pins_epsilon_at_the_lower_bound(self):
        lengths = np.array([10.0, 100.0, 1000.0])
        shots = np.array([200, 200, 200])
        fit = mle_fit(lengths, shots.copy(), shots)
        assert fit.at_boundary
        assert not fit.identifiable

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mle_fit(np.array([1.0, 2.0]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError):
            mle_fit(np.array([1.0]), np.array([3]), np.array([2]))
        with pytest.raises(ValueError):
            mle_fit(np.array([1.0]), np.array([0]), np.array([0]))


class TestBootstrap:
    def test_interval_covers_truth_on_clean_data(self):
        rng = rng_stream(31337, 7)
        eps_true = 2.0e-4
        lengths, successes, shots = _synthetic_counts(
            rng, [30, 300, 1000, 3000], 5000, eps_true, 0.5
        )
        lo, hi, estimates = bootstrap_ci(
            lengths, successes, shots, rng_stream(31337, 8), n_resamples=300, level=0.95
        )
        assert lo <= eps_true <= hi
        assert len(estimates) >= 0.95 * 300
        assert lo < hi
        fit = mle_fit(lengths, successes, shots)
        assert abs(fit.epsilon - eps_true) < 3.0 * estimates.std()

    def test_interval_width_shrinks_with_statistics(self):
        eps_true = 2.0e-4
        widths = []
        for shots_each, lane in ((500, 1), (50000, 2)):
            rng = rng_stream(555, lane)
            lengths, successes, shots = _synthetic_counts(
                rng, [30, 300, 1000, 3000], shots_each, eps_true, 0.5
            )
            lo, hi, _ = bootstrap_ci(
                lengths, successes, shots, rng_stream(556, lane), n_resamples=200
            )
            widths.append(hi - lo)
        assert widths[1] < 0.3 * widths[0]

    @pytest.mark.parametrize("n_resamples", [0, -3])
    def test_needs_at_least_one_resample(self, n_resamples):
        lengths, successes, shots = _synthetic_counts(rng_stream(99, 7), [30, 300, 3000], 2000, 1e-4, 0.5)
        with pytest.raises(ValueError, match="at least 1"):
            bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=n_resamples)

    @pytest.mark.parametrize("level", [-0.1, 1.5])
    def test_level_is_a_fraction(self, level):
        lengths, successes, shots = _synthetic_counts(rng_stream(99, 7), [30, 300, 3000], 2000, 1e-4, 0.5)
        with pytest.raises(ValueError, match="level"):
            bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=5, level=level)

    @given(
        values=st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=50),
        level=st.floats(0.0, 1.0),
    )
    @example(values=[-0.0], level=0.0)  # numpy keeps the sign of a zero at the last index
    @settings(max_examples=300, deadline=None)
    def test_quantiles_are_numpys_bit_for_bit(self, values, level):
        qs = [(1 - level) / 2, (1 + level) / 2, level, 0.0, 1.0]
        assert fitting._quantiles(np.array(values), qs).tobytes() == np.quantile(values, qs).tobytes()

    def test_estimates_are_deterministic_given_rng(self):
        rng = rng_stream(99, 7)
        lengths, successes, shots = _synthetic_counts(rng, [30, 300, 3000], 2000, 1e-4, 0.5)
        _, _, est1 = bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=50)
        _, _, est2 = bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=50)
        assert np.array_equal(est1, est2)

    def test_a_given_fit_is_not_fitted_again(self, monkeypatch):
        lengths, successes, shots = _synthetic_counts(rng_stream(99, 7), [30, 300, 3000], 2000, 1e-4, 0.5)
        fit = mle_fit(lengths, successes, shots)
        own = bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=50)
        monkeypatch.setattr(fitting, "mle_fit", None)  # a given fit is not fitted again
        given_fit = bootstrap_ci(lengths, successes, shots, rng_stream(1, 2), n_resamples=50, fit=fit)
        assert given_fit[:2] == own[:2]
        assert given_fit[2].tobytes() == own[2].tobytes()


class TestLikelihood:
    def test_start_grid_matches_the_objective_bit_for_bit(self):
        rng = rng_stream(404, 7)
        lengths, successes, shots = _synthetic_counts(rng, [30, 300, 1000, 3000], 500, 2e-4, 0.5)
        log_eps = np.log(fitting._GRID_EPS)
        grid = fitting._nll(log_eps[:, None, None], fitting._GRID_AMP[:, None], lengths, successes, shots)
        assert grid.shape == (len(log_eps), len(fitting._GRID_AMP))
        for i, le in enumerate(log_eps):
            for j, amp in enumerate(fitting._GRID_AMP):
                assert grid[i, j] == _neg_log_likelihood(
                    np.array([le, amp]), lengths, successes, shots
                )


def _finite_difference_fit(lengths, successes, shots):
    """``mle_fit`` as it was before the gradient was formed in one call: L-BFGS-B
    with scipy's own finite-difference gradient, then the same polish.  Returns
    the fit and whether the polish ran."""
    from scipy.optimize import minimize

    uniq, k, n = fitting._pool(lengths, successes, shots)
    grid = fitting._nll(np.log(fitting._GRID_EPS)[:, None, None], fitting._GRID_AMP[:, None], uniq, k, n)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    bounds = [(np.log(fitting._EPS_BOUNDS[0]), np.log(fitting._EPS_BOUNDS[1])), fitting._AMP_BOUNDS]
    res = minimize(
        _neg_log_likelihood,
        x0=np.array([np.log(fitting._GRID_EPS[i]), fitting._GRID_AMP[j]]),
        args=(uniq, k, n),
        method="L-BFGS-B",
        bounds=bounds,
        options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": 500},
    )
    polished = not res.success
    if polished:
        polish = minimize(
            _neg_log_likelihood,
            x0=res.x,
            args=(uniq, k, n),
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
        )
        if polish.fun <= res.fun:
            res = polish
    log_eps, amplitude = res.x
    epsilon = float(np.exp(log_eps))
    tol = 1e-6
    at_boundary = (
        log_eps <= bounds[0][0] + tol
        or log_eps >= bounds[0][1] - tol
        or amplitude <= bounds[1][0] + tol
        or amplitude >= bounds[1][1] - tol
    )
    identifiable = len(uniq) >= 2
    if identifiable:
        p_hat = survival_model(uniq, epsilon, amplitude)
        sigma = np.sqrt(np.mean(p_hat * (1 - p_hat) / n))
        identifiable = not np.ptp(p_hat) < 0.2 * sigma
    fit = fitting.DecayFit(
        epsilon=epsilon,
        amplitude=float(amplitude),
        log_likelihood=-float(res.fun),
        converged=bool(res.success),
        at_boundary=bool(at_boundary),
        identifiable=bool(identifiable),
    )
    return fit, polished


def _finite_difference_bootstrap(lengths, successes, shots, rng, n_resamples):
    """``bootstrap_ci`` as one fit per resample: each resample drawn, then
    refitted by ``_finite_difference_fit``, in turn.  Returns each refit and
    whether it was polished."""
    fit, _ = _finite_difference_fit(lengths, successes, shots)
    uniq, _, n = fitting._pool(lengths, successes, shots)
    p_model = survival_model(uniq, fit.epsilon, fit.amplitude)
    return [_finite_difference_fit(uniq, rng.binomial(n.astype(int), p_model), n) for _ in range(n_resamples)]


def _assert_bootstrap_matches(data, seed, n_resamples):
    """``bootstrap_ci`` gives the reference's estimates bit for bit, or fails
    where it fails; returns the reference's refits and polish flags."""
    refits = _finite_difference_bootstrap(*data, rng_stream(seed, 8), n_resamples)
    expected = np.array([fit.epsilon for fit, _ in refits if fit.converged])
    if n_resamples - len(expected) > 0.05 * n_resamples:
        with pytest.raises(RuntimeError, match="bootstrap unstable"):
            bootstrap_ci(*data, rng_stream(seed, 8), n_resamples=n_resamples)
    else:
        lo, hi, estimates = bootstrap_ci(*data, rng_stream(seed, 8), n_resamples=n_resamples)
        assert estimates.tobytes() == expected.tobytes()
        assert (lo, hi) == tuple(np.quantile(expected, [(1 - 0.68) / 2, (1 + 0.68) / 2]))
    return refits


class TestGradientInOneCall:
    """The one-call gradient and the lockstep driver reproduce scipy's
    finite-difference iterates exactly."""

    @given(
        log10_eps=st.floats(-9.0, -0.5),
        amp=st.floats(0.05, 0.6),
        lengths=st.lists(st.sampled_from([1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000]),
                         min_size=1, max_size=6, unique=True),
        shots=st.sampled_from([10, 100, 1000, 3000, 100_000]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_finite_difference_fit(self, log10_eps, amp, lengths, shots, seed):
        lengths, successes, shots = _synthetic_counts(rng_stream(seed, 7), lengths, shots, 10**log10_eps, amp)
        assert mle_fit(lengths, successes, shots) == _finite_difference_fit(lengths, successes, shots)[0]

    @pytest.mark.parametrize(
        "successes, lengths, flipped",
        [
            # flat at one half: the error rate runs to its upper bound
            ([50, 50, 50], [1.0, 2.0, 3.0], 0),
            # full survival at short lengths: the amplitude runs to its upper bound
            ([100, 100, 80], [1.0, 3.0, 10.0], 1),
        ],
    )
    def test_steps_back_from_an_upper_bound(self, monkeypatch, successes, lengths, flipped):
        backward = np.zeros(2, dtype=int)
        nll = fitting._nll

        def counting(log_eps, amplitude, *args):
            if np.shape(log_eps)[-2:] == (3, 1):  # points, each with its two stepped copies
                for points in np.concatenate([log_eps, amplitude], axis=-1).reshape(-1, 3, 2):
                    backward[:] += np.diag(points[1:] - points[0]) < 0
            return nll(log_eps, amplitude, *args)

        monkeypatch.setattr(fitting, "_nll", counting)
        data = np.array(lengths), np.array(successes), np.full(len(lengths), 100)
        fit = mle_fit(*data)
        assert backward[flipped] > 0
        assert fit.at_boundary
        assert fit == _finite_difference_fit(*data)[0]

    def test_matches_the_finite_difference_fit_through_the_polish(self):
        data = np.array([100.0, 300, 1000, 3000, 10000]), np.array([3000, 3000, 2999, 2999, 2994]), np.full(5, 3000)
        expected, polished = _finite_difference_fit(*data)
        assert polished
        assert mle_fit(*data) == expected

    @pytest.mark.parametrize(
        "maxiter, maxfun",
        [(2, 5000), (500, 3), (500, 6), (500, 5000)],  # iteration stop, evaluation stops, convergence
    )
    def test_driver_stops_where_scipy_stops(self, monkeypatch, maxiter, maxfun):
        from scipy.optimize import minimize

        monkeypatch.setattr(fitting, "_MAXITER", maxiter)
        monkeypatch.setattr(fitting, "_MAXFUN", maxfun)
        lengths, k, n = fitting._pool(*_synthetic_counts(rng_stream(8, 7), [30, 300, 1000, 3000], 1000, 2e-4, 0.45))
        x0 = fitting._grid_starts(lengths, k[None], n)
        x, fun, success = fitting._lbfgsb(x0, lengths, k[None], n)
        # scipy's own finite differences count 3 evaluations per gradient
        res = minimize(_neg_log_likelihood, x0[0], args=(lengths, k, n), method="L-BFGS-B",
                       bounds=fitting._BOUNDS,
                       options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": maxiter, "maxfun": 3 * maxfun})
        assert res.message.startswith("CONVERGENCE" if (maxiter, maxfun) == (500, 5000) else "STOP")
        assert (x[0].tolist(), fun[0], success[0]) == (res.x.tolist(), res.fun, res.success)

    @given(
        log10_eps=st.floats(-8.0, -1.5),
        spam=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        lengths=st.lists(st.sampled_from([1, 10, 30, 100, 300, 1000, 3000, 10000]),
                         min_size=2, max_size=5, unique=True),
        shots=st.sampled_from([100, 1000, 3000]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_bootstrap_matches_one_finite_difference_fit_per_resample(self, log10_eps, spam, lengths, shots, seed):
        # readout flips with probability spam scale the amplitude by 1 - 2 spam
        data = _synthetic_counts(rng_stream(seed, 7), lengths, shots, 10**log10_eps, 0.5 * (1 - 2 * spam))
        _assert_bootstrap_matches(data, seed, 20)

    def test_bootstrap_matches_through_the_polish(self):
        # depolarizing data without SPAM: most shots survive at every length,
        # and nearly half of the refits go to the polish
        from qubitbench.noise import NoiseConfig
        from qubitbench.rb import RBPlan, run_rb

        ds = run_rb(RBPlan(20260825, lengths=[100, 300, 1000, 3000, 10000]),
                    NoiseConfig(depolarizing_per_gate=1.5e-7))
        refits = _assert_bootstrap_matches((ds.lengths, ds.successes, ds.shots), 20260825, 200)
        assert sum(polished for _, polished in refits) > 50

    def test_bootstrap_matches_with_refits_pinned_at_a_bound(self):
        lengths = np.array([10.0, 100.0, 1000.0])
        data = lengths, np.array([200, 200, 199]), np.full(3, 200)
        refits = _assert_bootstrap_matches(data, 3, 30)
        assert any(fit.at_boundary for fit, _ in refits)


class TestRefillQueue:
    """The refits share ``_BLOCK`` L-BFGS-B slots, each handed to the next
    row as its row finishes, and the polish steps every stalled row in
    lockstep; every row still gets its own fit, bit for bit."""

    @given(
        log10_eps=st.floats(-8.0, -1.5),
        spam=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        lengths=st.lists(st.sampled_from([1, 10, 30, 100, 300, 1000, 3000, 10000]),
                         min_size=2, max_size=5, unique=True),
        shots=st.sampled_from([100, 1000, 3000]),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    # no SPAM and long sequences: half of these rows stall in L-BFGS-B and are polished
    @example(log10_eps=np.log10(1.5e-7), spam=0.0, lengths=[100, 300, 1000, 3000, 10000], shots=3000, rows=12, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_rows_fit_together_as_each_fits_alone(self, log10_eps, spam, lengths, shots, rows, seed):
        lengths = np.array(lengths, dtype=float)
        p = survival_model(lengths, 10**log10_eps, 0.5 * (1 - 2 * spam))
        k = rng_stream(seed, 7).binomial(shots, p, size=(rows, len(lengths))).astype(float)
        n = np.full(len(lengths), float(shots))
        x0 = fitting._grid_starts(lengths, k, n)
        alone = [fitting._fit(fitting._grid_starts(lengths, kr[None], n), lengths, kr[None], n) for kr in k]
        assert x0.tobytes() == b"".join(fitting._grid_starts(lengths, kr[None], n).tobytes() for kr in k)
        expected = [b"".join(fit[i].tobytes() for fit in alone) for i in range(3)]
        for block in sorted({1, 2, 7, rows}):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fitting, "_BLOCK", block)
                x, fun, success = fitting._fit(x0, lengths, k, n)
            assert [x.tobytes(), fun.tobytes(), success.tobytes()] == expected

    def test_the_example_reaches_the_polish(self):
        lengths, n = np.array([100.0, 300, 1000, 3000, 10000]), np.full(5, 3000.0)
        k = rng_stream(0, 7).binomial(3000, survival_model(lengths, 1.5e-7, 0.5), size=(12, 5)).astype(float)
        _, _, success = fitting._lbfgsb(fitting._grid_starts(lengths, k, n), lengths, k, n)
        assert 1 < np.count_nonzero(~success) < len(k)

    def test_a_bootstrap_keeps_at_most_a_block_of_fits_live(self, monkeypatch):
        rows_per_round, workspaces, allocated = [], set(), []
        nll_and_grad, kernel = fitting._nll_and_grad, fitting._kernel("_lbfgsb")

        def counting(x, *args):
            rows_per_round.append(len(x))
            return nll_and_grad(x, *args)

        def setulb(*args):
            wa = args[9]  # the kernel's largest workspace
            workspaces.add(wa.ctypes.data)
            allocated.append((wa if wa.base is None else wa.base).nbytes // wa.nbytes)
            return kernel.setulb(*args)

        lengths = np.array([100.0, 300, 1000, 3000, 10000])
        data = _synthetic_counts(rng_stream(21, 7), lengths, 3000, 1.5e-7, 0.5 * (1 - 2 * 0.01))
        fit = mle_fit(*data)
        monkeypatch.setattr(fitting, "_nll_and_grad", counting)
        monkeypatch.setattr(fitting, "_kernel", lambda name: types.SimpleNamespace(setulb=setulb, __file__=kernel.__file__))
        bootstrap_ci(*data, rng_stream(21, 8), n_resamples=1000, fit=fit)
        assert max(rows_per_round) == fitting._BLOCK
        assert len(workspaces) <= fitting._BLOCK and max(allocated) <= fitting._BLOCK
        # every round is full until the queue runs dry; then rows only finish
        assert rows_per_round == sorted(rows_per_round, reverse=True)


# counts on which L-BFGS-B stops short (task ABNORMAL) and the polish runs
_POLISHED = ([100.0, 300, 1000, 3000, 10000], [3000, 3000, 2999, 2999, 2994], [3000] * 5)


def _assert_nelder_mead_is_scipys(x0, lengths, k, n):
    """``_nelder_mead`` evaluates scipy's Nelder-Mead points in scipy's order
    and returns its ``x``, ``fun`` and ``success`` bit for bit, where scipy
    stops for the reason its message gives; returns scipy's result."""
    from scipy.optimize import minimize

    scipy_points, points = [], []

    def nll(params, *args):
        scipy_points.append(params.tolist())
        return _neg_log_likelihood(params, *args)

    def batched(log_eps, amplitude, *args):
        # the polish evaluates one point per row; here there is one row
        points.extend(np.concatenate([log_eps, amplitude], axis=-1).tolist())
        return nll_of(log_eps, amplitude, *args)

    nll_of = fitting._nll
    res = minimize(nll, x0, args=(lengths, k, n), method="Nelder-Mead",
                   bounds=fitting._BOUNDS,
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": fitting._NM_MAXITER})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_nll", batched)
        x, fun, success = (column[0] for column in fitting._nelder_mead(np.array([x0], dtype=float), lengths, k[None], n))
    assert points == scipy_points
    assert (x.tobytes(), fun, success) == (res.x.tobytes(), res.fun, res.success)
    stop = "Optimization terminated successfully." if success else "Maximum number of iterations has been exceeded."
    assert res.message == stop
    assert type(fun) is type(res.fun)
    return res


class TestNelderMead:
    """The polish is scipy's bounded Nelder-Mead, step for step."""

    @given(
        log_eps=st.floats(fitting._LOWER[0], fitting._UPPER[0]),
        amp=st.floats(fitting._LOWER[1], fitting._UPPER[1]),
        log10_eps=st.floats(-8.0, -1.0),
        true_amp=st.floats(0.05, 0.6),
        lengths=st.lists(st.sampled_from([1, 10, 30, 100, 300, 1000, 3000, 10000]),
                         min_size=1, max_size=5, unique=True),
        shots=st.sampled_from([100, 1000, 3000]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_from_anywhere_in_the_box(self, log_eps, amp, log10_eps, true_amp, lengths, shots, seed):
        lengths, k, n = fitting._pool(*_synthetic_counts(rng_stream(seed, 7), lengths, shots, 10**log10_eps, true_amp))
        _assert_nelder_mead_is_scipys([log_eps, amp], lengths, k, n)

    def test_a_start_on_the_amplitude_bound_is_reflected(self):
        # the start simplex scales A by 1.05, past its upper bound
        lengths, k, n = fitting._pool(*map(np.array, _POLISHED))
        x0 = [np.log(1e-7), fitting._UPPER[1]]
        assert 1.05 * x0[1] > fitting._UPPER[1]
        assert _assert_nelder_mead_is_scipys(x0, lengths, k, n).success

    def test_a_shrinking_run(self):
        lengths, k, n = fitting._pool(np.array([10.0, 100, 1000]), np.array([200, 200, 199]), np.full(3, 200))
        res = _assert_nelder_mead_is_scipys([np.log(1e-4), 0.5], lengths, k, n)
        # 3 start evaluations, then at most 2 per iteration unless it shrinks
        assert res.nfev - 3 > 2 * (res.nit - 1)

    @pytest.mark.parametrize("maxiter", [1, 2, 7])
    def test_stops_at_the_iteration_limit(self, monkeypatch, maxiter):
        monkeypatch.setattr(fitting, "_NM_MAXITER", maxiter)
        lengths, k, n = fitting._pool(*map(np.array, _POLISHED))
        res = _assert_nelder_mead_is_scipys([np.log(1e-4), 0.5], lengths, k, n)
        assert not res.success and res.nit == maxiter

    @pytest.mark.parametrize("worse", [False, True])
    def test_a_polish_is_taken_unless_it_is_worse(self, monkeypatch, worse):
        lengths, k, n = fitting._pool(*map(np.array, _POLISHED))
        x0 = fitting._grid_starts(lengths, k[None], n)
        x, fun, success = fitting._lbfgsb(x0, lengths, k[None], n)
        assert not success[0]
        polished = np.array([np.log(2e-7), 0.4])
        polished_fun = np.nextafter(fun[0], np.inf) if worse else fun[0]
        monkeypatch.setattr(fitting, "_nelder_mead", lambda *args: ([polished], [polished_fun], [True]))
        fit = mle_fit(*map(np.array, _POLISHED))
        taken = (np.exp(x[0, 0]), x[0, 1], False) if worse else (np.exp(polished[0]), 0.4, True)
        assert (fit.epsilon, fit.amplitude, fit.converged) == taken


def _walsh_residual(ns, ps, mean_rel):
    """``walsh_fit``'s residual in the log spread: the Gaussian-noise bright
    probability of each unmodulated train minus its measured frequency."""
    from qubitbench.calibration import constant_train_p_zero_gaussian

    def residual(params):
        with np.errstate(over="ignore"):
            sigma = np.exp(params[0])
        return np.array([constant_train_p_zero_gaussian(n, mean_rel, sigma) for n in ns]) - ps

    return residual


def _assert_levenberg_marquardt_is_scipys(fun, x0):
    """``_levenberg_marquardt`` evaluates ``least_squares(method="lm")``'s
    residual points in scipy's order and returns its ``x`` bit for bit;
    returns ``(x, points)``.  scipy's post-fit Jacobian, which the port does
    not form, may add up to two points after the fit's last."""
    from scipy.optimize import least_squares

    scipy_points, points = [], []

    def recording(seen):
        def residual(x):
            seen.append(np.array(x).tobytes())
            return fun(x)
        return residual

    res = least_squares(recording(scipy_points), x0, method="lm")
    x = fitting._levenberg_marquardt(recording(points), x0)
    assert points == scipy_points[:len(points)]
    assert len(scipy_points) - len(points) in (0, 1, 2)
    assert x.tobytes() == res.x.tobytes()
    return x, points


class TestLevenbergMarquardt:
    """The spread fit is scipy's ``least_squares(method="lm")``, point for
    point, on MINPACK alone."""

    @given(
        sweep=st.lists(st.sampled_from([4, 8, 16, 32, 64, 128, 256, 1024, 2048, 4096]),
                       min_size=1, max_size=6, unique=True),
        shots=st.sampled_from([50, 200, 1000]),
        mean_rel=st.floats(-2e-3, 2e-3),
        true_sigma=st.one_of(st.none(), st.floats(1e-6, 1e-2)),
        log_sigma0=st.one_of(st.just(float(np.log(1e-4))), st.floats(-14.0, -2.0)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_drawn_sweeps(self, sweep, shots, mean_rel, true_sigma, log_sigma0, data):
        from qubitbench.calibration import constant_train_p_zero_gaussian

        ns = np.array(sorted(sweep))
        if true_sigma is None:  # any counts at all
            counts = data.draw(st.lists(st.integers(0, shots), min_size=ns.size, max_size=ns.size))
        else:  # binomial counts of the model itself
            p = [constant_train_p_zero_gaussian(n, mean_rel, true_sigma) for n in ns]
            counts = rng_stream(data.draw(st.integers(0, 2**16)), 7).binomial(shots, p)
        _assert_levenberg_marquardt_is_scipys(
            _walsh_residual(ns, np.asarray(counts) / shots, mean_rel), np.array([log_sigma0]))

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (-1.5, 2.0), (3.0, -0.5)])
    def test_matches_scipy_with_two_parameters(self, x0):
        # a decay a exp(-b t) through noisy points; the starts cover sign(0) = +1
        t = np.linspace(0.0, 4.0, 9)
        y = 2.0 * np.exp(-0.7 * t) + 0.01 * np.cos(5 * t)
        _assert_levenberg_marquardt_is_scipys(lambda x: x[0] * np.exp(-x[1] * t) - y, np.array(x0))

    def test_stops_where_scipy_stops_at_the_evaluation_limit(self):
        # a quintic root: LM closes in linearly and reaches 100 n residual calls
        from scipy.optimize import least_squares

        def fun(x):
            return np.array([x[0] ** 5, x[0] ** 5])

        assert least_squares(fun, np.array([1.0]), method="lm").status == 0
        _assert_levenberg_marquardt_is_scipys(fun, np.array([1.0]))

    @pytest.mark.parametrize("seed", ["20260834", "20260839"])
    def test_matches_scipy_in_walsh_where_the_spread_overflows(self, seed, monkeypatch, capsys):
        # at these seeds the fit probes a log spread whose exp overflows
        from qubitbench import calibration, cli

        points = []

        def checked(fun, x0):
            x, seen = _assert_levenberg_marquardt_is_scipys(fun, x0)
            points.extend(seen)
            return x

        monkeypatch.setattr(calibration, "_levenberg_marquardt", checked)
        argv = ["walsh", "--max-order", "2", "--n-pulses", "16", "--shots", "200", "--sweep", "4,16", "--seed", seed]
        assert cli.main(argv) == 0
        assert max(np.frombuffer(p)[0] for p in points) > np.log(np.finfo(float).max)
        document = capsys.readouterr().out
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == document

    @pytest.mark.parametrize(
        "fun, x0",
        [
            (lambda x: np.zeros(0), [np.log(1e-4)]),  # an empty sweep
            (lambda x: np.array([x[0] + x[1]]), [0.5, 1.0]),
            (lambda x: np.array([np.inf, x[0]]), [0.5]),
            (lambda x: np.array([x[0], np.nan]), [0.5]),
        ],
        ids=["no-residuals", "fewer-residuals", "inf", "nan"],
    )
    def test_rejects_what_scipy_rejects(self, fun, x0):
        from scipy.optimize import least_squares

        # scipy differences the residuals at x0 before it checks them: inf - inf
        with pytest.raises(ValueError) as scipy_error, np.errstate(invalid="ignore"):
            least_squares(fun, np.array(x0), method="lm")
        with pytest.raises(ValueError) as error:
            fitting._levenberg_marquardt(fun, np.array(x0))
        assert str(error.value) == str(scipy_error.value)


def _run_child(code):
    """Stdout of ``code`` run in a fresh interpreter from the repository root."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


# (lengths, successes, shots) of a fit that converges without the polish
_CONVERGING = ([30.0, 300.0, 3000.0], [1900, 1700, 1300], [2000, 2000, 2000])
# factors of a one-parameter least-squares problem
_DECAY = [0.9, 0.5, 0.3]


class TestKernel:
    """The L-BFGS-B and MINPACK kernels are scipy's own extension modules,
    loaded without the ``scipy.optimize`` package."""

    def test_is_scipys_extension_module(self):
        from scipy.optimize import _lbfgsb

        assert fitting._kernel("_lbfgsb").__file__ == _lbfgsb.__file__
        assert fitting._kernel("_lbfgsb") is _lbfgsb

    def test_loaded_first_it_serves_scipy_optimize_too(self):
        # scipy.optimize imported after the kernel takes the same module, and
        # its minimize still gives the fit's iterates
        cases = ("driver_stops or steps_back or matches_the_finite_difference_fit_through_the_polish"
                 " or pinned_at_a_bound or TestNelderMead")
        _run_child(f"""
import sys
import pytest
from qubitbench import fitting
kernel = fitting._kernel("_lbfgsb")
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize import _lbfgsb, _lbfgsb_py
assert sys.modules["scipy.optimize._lbfgsb"] is kernel is _lbfgsb is _lbfgsb_py._lbfgsb
sys.exit(pytest.main(["{__file__}::TestGradientInOneCall", "{__file__}::TestNelderMead", "-q", "-p", "no:cacheprovider",
                      "-k", "{cases}"]))
""")

    @pytest.mark.parametrize("missing", [False, True], ids=["file", "missing-file"])
    def test_a_converged_fit_imports_scipy_optimize_only_without_the_file(self, missing):
        # with the extension file made to miss, the plain import stands in
        patch = 'importlib.machinery.EXTENSION_SUFFIXES = [".missing"]' if missing else ""
        out = _run_child(f"""
import importlib.machinery, json, sys
import numpy as np
from qubitbench import fitting
{patch}
fit = fitting.mle_fit(*map(np.array, {_CONVERGING!r}))
print(json.dumps([repr(fit), "scipy.optimize" in sys.modules]))
""")
        assert json.loads(out) == [repr(mle_fit(*map(np.array, _CONVERGING))), missing]

    def test_minpack_is_scipys_extension_module(self):
        from scipy.optimize import _minpack

        assert fitting._kernel("_minpack").__file__ == _minpack.__file__
        assert fitting._kernel("_minpack") is _minpack

    def test_minpack_loaded_first_serves_scipy_optimize_too(self):
        # scipy.optimize imported after MINPACK takes the same module, and its
        # least_squares still gives the port's points
        _run_child(f"""
import sys
import pytest
from qubitbench import fitting
kernel = fitting._kernel("_minpack")
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize import _minpack, _minpack_py
assert sys.modules["scipy.optimize._minpack"] is kernel is _minpack is _minpack_py._minpack
sys.exit(pytest.main(["{__file__}::TestLevenbergMarquardt", "-q", "-p", "no:cacheprovider",
                      "-k", "two_parameters or rejects"]))
""")

    @pytest.mark.parametrize("missing", [False, True], ids=["file", "missing-file"])
    def test_the_spread_fit_imports_scipy_optimize_only_without_the_file(self, missing):
        # with the extension file made to miss, the plain import stands in
        patch = 'importlib.machinery.EXTENSION_SUFFIXES = [".missing"]' if missing else ""
        out = _run_child(f"""
import importlib.machinery, json, sys
import numpy as np
from qubitbench import fitting
{patch}
x = fitting._levenberg_marquardt(lambda x: np.exp(x[0]) * np.array({_DECAY!r}) - 1.0, np.array([0.1]))
print(json.dumps([x.tolist(), "scipy.optimize" in sys.modules]))
""")
        x = fitting._levenberg_marquardt(lambda x: np.exp(x[0]) * np.array(_DECAY) - 1.0, np.array([0.1]))
        assert json.loads(out) == [x.tolist(), missing]


class TestBlasPin:
    """L-BFGS-B's OpenBLAS runs on one thread during the fit, and gets its
    previous thread count back afterwards."""

    @pytest.fixture
    def blas(self):
        calls = fitting._blas_threads()
        if calls is None:
            pytest.skip("scipy's L-BFGS-B kernel uses no OpenBLAS here")
        return calls

    def test_the_fit_runs_on_one_thread_and_restores_the_count(self, blas, monkeypatch):
        get = blas[0]
        inside = []
        nll_and_grad = fitting._nll_and_grad

        def recording(*args):
            inside.append(get())
            return nll_and_grad(*args)

        monkeypatch.setattr(fitting, "_nll_and_grad", recording)
        before = get()
        mle_fit(*_synthetic_counts(rng_stream(5, 7), [30, 300, 3000], 1000, 1e-4, 0.5))
        assert inside and set(inside) == {1}
        assert get() == before

    def test_an_explicit_count_is_restored(self, blas):
        get, set_, thread_local = blas
        before = get()
        explicit = 1 if before != 1 else 2
        set_(explicit)
        try:
            with fitting._one_blas_thread():
                assert get() == 1
            assert get() == explicit
        finally:
            set_(0 if thread_local else before)
        assert get() == before


_finite = dict(allow_nan=False, allow_infinity=False)


class TestSharedEstimators:
    @given(
        x=st.lists(st.floats(-1e3, 1e3, **_finite), min_size=2, max_size=12, unique=True),
        slope=st.floats(-1e3, 1e3, **_finite),
        intercept=st.floats(-1e3, 1e3, **_finite),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_line_recovers_an_exact_line(self, x, slope, intercept, seed):
        x = np.array(x)
        if np.ptp(x) < 1e-3:
            x = np.append(x, x[0] + 1.0)
        w = np.random.default_rng(seed).uniform(0.1, 10.0, x.size)
        fit_slope, fit_intercept, sxx = weighted_line(x, intercept + slope * x, w)
        scale = 1e-9 * (1.0 + abs(slope) + abs(intercept))
        assert fit_slope == pytest.approx(slope, abs=scale * 1e3 / np.ptp(x))
        assert fit_intercept == pytest.approx(intercept, abs=scale * 1e6)
        assert sxx > 0

    @given(x0=st.floats(-1e3, 1e3, **_finite), n=st.integers(1, 6))
    def test_weighted_line_needs_two_distinct_x(self, x0, n):
        with pytest.raises(ValueError, match="two distinct"):
            weighted_line(np.full(n, x0), np.arange(n, dtype=float), np.ones(n))

    @given(
        values=st.lists(st.floats(-1e6, 1e6, **_finite), min_size=1, max_size=20),
        sigma=st.floats(1e-6, 1e6, **_finite),
    )
    # the smallest subnormal, whose weighted mean once came out as 0 or 1e-323
    @example(values=[5e-324], sigma=1.0)
    @example(values=[5e-324], sigma=1e6)
    # three steps over two values: the mean 1.5e-323 is a tie on the subnormal grid
    @example(values=[1.5e-323, 0.0], sigma=586102.34375)
    def test_equal_sigmas_give_the_plain_mean(self, values, sigma):
        mean, err = inverse_variance_mean(values, np.full(len(values), sigma))
        assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=1e-12 * np.max(np.abs(values)))
        assert err == pytest.approx(sigma / np.sqrt(len(values)), rel=1e-12)

    @given(bright=st.integers(0, 10_000), shots=st.integers(1, 10_000))
    def test_binomial_variance_and_its_floor(self, bright, shots):
        bright = min(bright, shots)
        p = bright / shots
        var = binomial_variance(p, shots)
        if p * (1 - p) >= 0.25 / shots:
            assert var == p * (1 - p) / shots
        else:
            assert var == 0.25 / shots / shots
        assert binomial_variance(0.0, shots) == binomial_variance(1.0, shots) == 0.25 / shots / shots
