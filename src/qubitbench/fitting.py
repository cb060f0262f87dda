"""Maximum-likelihood estimation of benchmarking decay curves.

The survival probability after ``l`` group elements is modelled as

    p(l) = A * (1 - 2*eps)**l + 1/2

where ``eps`` is the average error per element and ``A`` absorbs state
preparation and measurement imperfections.  Counts at each sequence length
are pooled and treated as binomial draws from ``p(l)``; the likelihood is
maximized over ``(eps, A)`` with a coarse logarithmic grid over ``eps``
followed by bounded quasi-Newton refinement.  Uncertainties come from a
parametric bootstrap.

The refinement is L-BFGS-B over ``(log eps, A)``.  Its gradient is scipy's own
forward difference (``'2-point'``, absolute step 1e-8, the step reversed where
it would cross an upper bound), formed from one likelihood call broadcast over
the point and its two stepped copies, so that the iterates are the ones
scipy's finite-difference gradient would give.

The module also holds the small estimators shared by the calibration,
idle-rate and delay-scan analyses, each written once: ``binomial_variance``
(the floored variance of a measured frequency), ``inverse_variance_mean``
and ``weighted_line`` (weighted least squares with a free intercept).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayFit",
    "survival_model",
    "mle_fit",
    "bootstrap_ci",
    "binomial_variance",
    "inverse_variance_mean",
    "weighted_line",
]

_EPS_BOUNDS = (1e-12, 0.49)
_AMP_BOUNDS = (1e-3, 0.6)
# bounds of the fit parameters (log eps, A), used by the optimizers, the
# gradient's step rule and the boundary flag alike
_LOWER = np.array([np.log(_EPS_BOUNDS[0]), _AMP_BOUNDS[0]])
_UPPER = np.array([np.log(_EPS_BOUNDS[1]), _AMP_BOUNDS[1]])
_BOUNDS = list(zip(_LOWER, _UPPER))
# L-BFGS-B's default absolute finite-difference step
_FD_STEP = 1e-8
_P_CLIP = 1e-9
# start grid of the fit: 80 log-spaced errors by 13 amplitudes
_GRID_EPS = np.logspace(np.log10(_EPS_BOUNDS[0]), np.log10(_EPS_BOUNDS[1]), 80)
_GRID_AMP = np.linspace(0.25, 0.55, 13)
_MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class DecayFit:
    """Result of a decay-curve fit.

    ``epsilon`` is the per-element error, ``amplitude`` the prefactor A.
    ``at_boundary`` marks estimates pinned at a parameter bound and
    ``identifiable`` is False when the data cannot distinguish decay from
    a flat line (e.g. a single length, or no decay within shot noise).
    """

    epsilon: float
    amplitude: float
    log_likelihood: float
    converged: bool
    at_boundary: bool
    identifiable: bool
    message: str = ""


def survival_model(
    lengths: np.ndarray, epsilon: float, amplitude: float
) -> np.ndarray:
    """Expected survival probability at each sequence length, clipped to [0, 1]."""
    lengths = np.asarray(lengths, dtype=float)
    p = amplitude * (1.0 - 2.0 * epsilon) ** lengths + 0.5
    return np.clip(p, 0.0, 1.0)


def _pool(lengths, successes, shots):
    lengths = np.asarray(lengths, dtype=float)
    successes = np.asarray(successes, dtype=float)
    shots = np.asarray(shots, dtype=float)
    if not (lengths.shape == successes.shape == shots.shape):
        raise ValueError("lengths, successes, shots must have matching shapes")
    if np.any(shots <= 0) or np.any(successes < 0) or np.any(successes > shots):
        raise ValueError("need 0 <= successes <= shots with shots > 0")
    uniq = np.unique(lengths)
    k = np.array([successes[lengths == l].sum() for l in uniq])
    n = np.array([shots[lengths == l].sum() for l in uniq])
    return uniq, k, n


def _nll(log_eps, amplitude, lengths, k, n):
    """Binomial negative log-likelihood of pooled counts, summed over the
    last axis; ``log_eps`` and ``amplitude`` broadcast against it."""
    p = np.clip(amplitude * (1.0 - 2.0 * np.exp(log_eps)) ** lengths + 0.5, _P_CLIP, 1.0 - _P_CLIP)
    return -(k * np.log(p) + (n - k) * np.log1p(-p)).sum(axis=-1)


def _neg_log_likelihood(params, lengths, k, n):
    return float(_nll(params[0], params[1], lengths, k, n))


def _nll_and_grad(params, lengths, k, n):
    """Objective and its forward-difference gradient from one ``_nll`` call.

    This is scipy's ``'2-point'`` rule with L-BFGS-B's absolute step: each
    parameter is stepped by ``+_FD_STEP``, or by ``-_FD_STEP`` where that would
    pass its upper bound.  Inside these bounds scipy's other cases never arise:
    ``x + _FD_STEP`` differs from ``x`` for every ``|x| < 28`` (no zero-step
    fallback), cannot fall below a lower bound ``x`` already respects, and the
    reversed step always fits since each interval is far wider than two steps.
    """
    h = np.where(params + _FD_STEP > _UPPER, -_FD_STEP, _FD_STEP)
    points = np.vstack([params, params + np.diag(h)])
    f = _nll(points[:, :1], points[:, 1:], lengths, k, n)
    return float(f[0]), (f[1:] - f[0]) / ((params + h) - params)


def mle_fit(lengths: np.ndarray, successes: np.ndarray, shots: np.ndarray) -> DecayFit:
    """Fit the decay model to pooled binomial counts.

    ``lengths``, ``successes`` and ``shots`` give each record's sequence
    length, number of surviving shots, and shots taken; records sharing a
    length are pooled.
    """
    from scipy.optimize import minimize  # here, not at module level: ~0.5 s import
    uniq, k, n = _pool(lengths, successes, shots)

    identifiable = len(uniq) >= 2
    nll_grid = _nll(np.log(_GRID_EPS)[:, None, None], _GRID_AMP[:, None], uniq, k, n)
    i_best, j_best = np.unravel_index(np.argmin(nll_grid), nll_grid.shape)

    # scipy counts 3 evaluations per finite-difference gradient, one here:
    # maxfun 5000 stops where its default of 15000 did
    res = minimize(
        _nll_and_grad,
        x0=np.array([np.log(_GRID_EPS[i_best]), _GRID_AMP[j_best]]),
        args=(uniq, k, n),
        method="L-BFGS-B",
        jac=True,
        bounds=_BOUNDS,
        options={"ftol": 1e-12, "gtol": 1e-10, "maxiter": 500, "maxfun": 5000},
    )
    if not res.success:
        # the line search can stall on the clipped, nearly flat likelihood
        # even at the optimum; polish with a derivative-free step instead
        polish = minimize(
            _neg_log_likelihood,
            x0=res.x,
            args=(uniq, k, n),
            method="Nelder-Mead",
            bounds=_BOUNDS,
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
        )
        if polish.fun <= res.fun:
            res = polish
    log_eps, amplitude = res.x
    epsilon = float(np.exp(log_eps))

    tol = 1e-6
    at_boundary = bool(np.any((res.x <= _LOWER + tol) | (res.x >= _UPPER - tol)))
    # decay is unidentifiable when the fitted curve is flat within shot noise
    if identifiable:
        p_hat = survival_model(uniq, epsilon, amplitude)
        span = np.max(p_hat) - np.min(p_hat)
        sigma = np.sqrt(np.mean(p_hat * (1 - p_hat) / n))
        if span < 0.2 * sigma:
            identifiable = False

    return DecayFit(
        epsilon=epsilon,
        amplitude=float(amplitude),
        log_likelihood=-float(res.fun),
        converged=bool(res.success),
        at_boundary=bool(at_boundary),
        identifiable=bool(identifiable),
        message=str(res.message),
    )


def bootstrap_ci(
    lengths: np.ndarray,
    successes: np.ndarray,
    shots: np.ndarray,
    rng: np.random.Generator,
    n_resamples: int = 1000,
    level: float = 0.68,
) -> tuple[float, float, np.ndarray]:
    """Parametric-bootstrap confidence interval for the per-element error.

    Counts are redrawn from the fitted model and refit; the interval is the
    central ``level`` quantile range of the refitted errors.  Raises if more
    than 5% of refits fail to converge.
    """
    fit = mle_fit(lengths, successes, shots)
    uniq, _, n = _pool(lengths, successes, shots)
    p_model = survival_model(uniq, fit.epsilon, fit.amplitude)

    estimates = []
    failures = 0
    for _ in range(n_resamples):
        k_sim = rng.binomial(n.astype(int), p_model)
        refit = mle_fit(uniq, k_sim, n)
        if refit.converged:
            estimates.append(refit.epsilon)
        else:
            failures += 1
    if failures > _MAX_FAILURE_FRACTION * n_resamples:
        raise RuntimeError(
            f"bootstrap unstable: {failures}/{n_resamples} refits failed to converge"
        )
    estimates = np.array(estimates)
    lo, hi = np.quantile(estimates, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi), estimates


def binomial_variance(p, shots):
    """Variance of a measured frequency ``p`` over ``shots`` trials.

    ``p (1 - p)`` is floored at ``1/4`` of one shot, so that a frequency of
    0 or 1 keeps a finite weight of ``4 shots**2``.
    """
    return np.maximum(p * (1 - p), 0.25 / shots) / shots


def inverse_variance_mean(values, sigmas) -> tuple[float, float]:
    """Inverse-variance weighted mean of ``values`` and its standard error."""
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    # a power-of-two scale leaves every rounding as it was, but keeps w * values
    # out of the subnormal range when the values are tiny
    wn = np.ldexp(w, -np.frexp(w.max())[1])
    return float((wn * np.asarray(values, dtype=float)).sum() / wn.sum()), float(np.sqrt(1.0 / w.sum()))


def weighted_line(x, y, w):
    """Weighted least-squares line through ``(x, y)`` with weights ``w``.

    Returns ``(slope, intercept, sxx)`` with ``sxx = sum w (x - x_mean)**2``;
    callers form the slope error of their own noise model from it.  Raises
    ``ValueError`` unless ``x`` holds at least two distinct values.
    """
    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, w))
    if np.unique(x).size < 2:
        raise ValueError("a line fit needs at least two distinct x values")
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    slope = (w * (x - xm) * (y - ym)).sum() / sxx
    return slope, ym - slope * xm, sxx
