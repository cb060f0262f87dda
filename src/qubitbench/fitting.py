"""Maximum-likelihood estimation of benchmarking decay curves.

The survival probability after ``l`` group elements is modelled as

    p(l) = A * (1 - 2*eps)**l + 1/2

where ``eps`` is the average error per element and ``A`` absorbs state
preparation and measurement imperfections.  Counts at each sequence length
are pooled and treated as binomial draws from ``p(l)``; the likelihood is
maximized over ``(eps, A)`` with a coarse logarithmic grid over ``eps``
followed by bounded quasi-Newton refinement.  Uncertainties come from a
parametric bootstrap.

A fit alone is the one-row case of the bootstrap's pipeline.  The start
grid is searched once for all rows (``_grid_starts``).  The refinement is
L-BFGS-B over ``(log eps, A)``, driven here through scipy's own kernel
(``setulb``) so that many fits run in lockstep in ``_BLOCK`` slots, each
handed to the next fit as its fit finishes; each round evaluates every point
they ask for in one broadcast likelihood call.  The gradient is scipy's own
forward difference (``'2-point'``, absolute step 1e-8, the step reversed where
it would cross an upper bound), formed in that same call from each point and
its two stepped copies.  Every fit takes the iterates that
``scipy.optimize.minimize(method="L-BFGS-B")`` with finite differences would
give; fits it leaves unconverged get a Nelder-Mead polish (``_nelder_mead``,
a port of scipy's bounded Nelder-Mead with the same iterates), all in
lockstep.  While the kernel runs, its OpenBLAS is held to one thread.

The kernel is one compiled extension, loaded from its file in scipy's
package directory (``_kernel``) so that a fit does not run the
``scipy.optimize`` package init, about half a second of ``scipy.linalg``,
``sparse``, ``special`` and more, nor the ``scipy`` package init, about
10 ms and 0.8 MiB of peak RSS.  A fit, polished or not, therefore loads only
the kernel, about 3 ms and 1.7 MiB.  The same loader serves MINPACK's
``lmder`` (``_minpack``) to ``_levenberg_marquardt``, a port of scipy's
``least_squares(method="lm")`` with the same iterates, which fits the
spread in ``calibration.walsh_fit``; that extension imports the ``scipy``
package itself.  No command imports ``scipy.optimize``.  Nor does a fit load
``numpy.ma`` (about 10 ms and 0.7 MiB), which ``np.unique`` and
``np.quantile`` import on their first call: ``_pool`` pools with a set and
``bootstrap_ci`` takes its interval from ``_quantiles``.

The module also holds the small estimators shared by the calibration,
idle-rate and delay-scan analyses, each written once: ``binomial_variance``
(the floored variance of a measured frequency), ``inverse_variance_mean``
and ``weighted_line`` (weighted least squares with a free intercept).
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
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
# the same bounds as the (low, high) pairs scipy's minimize takes
_BOUNDS = list(zip(_LOWER, _UPPER))
# L-BFGS-B's default absolute finite-difference step
_FD_STEP = 1e-8
_P_CLIP = 1e-9
# start grid of the fit: 80 log-spaced errors by 13 amplitudes
_GRID_EPS = np.logspace(np.log10(_EPS_BOUNDS[0]), np.log10(_EPS_BOUNDS[1]), 80)
_GRID_AMP = np.linspace(0.25, 0.55, 13)
_MAX_FAILURE_FRACTION = 0.05
# scipy's L-BFGS-B defaults: stored corrections, line-search steps per iteration
_MAXCOR, _MAXLS = 10, 20
# the fit's L-BFGS-B stop rule: iterations, then evaluations (see _lbfgsb)
_MAXITER, _MAXFUN = 500, 5000
# most L-BFGS-B fits live at once: the bootstrap's refits share this many slots
_BLOCK = 25
# the polish's Nelder-Mead stop rule: simplex size, value spread, iterations
_NM_XATOL, _NM_FATOL, _NM_MAXITER = 1e-8, 1e-10, 4000


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
    uniq = np.array(sorted(set(lengths.ravel().tolist())), dtype=float)
    k = np.array([successes[lengths == l].sum() for l in uniq])
    n = np.array([shots[lengths == l].sum() for l in uniq])
    return uniq, k, n


def _clip(x):
    """``x`` clipped to the fit's bounds; ``np.clip``'s bits for finite and
    NaN input (the bounds are never 0), at a third of its call cost."""
    return np.minimum(np.maximum(x, _LOWER), _UPPER)


def _log_probabilities(log_eps, amplitude, lengths):
    """``log p`` and ``log(1 - p)`` of the model, ``p`` clipped to
    ``[_P_CLIP, 1 - _P_CLIP]``; the arguments broadcast against each other."""
    p = np.minimum(np.maximum(amplitude * (1.0 - 2.0 * np.exp(log_eps)) ** lengths + 0.5, _P_CLIP), 1.0 - _P_CLIP)
    return np.log(p), np.log1p(-p)


def _nll(log_eps, amplitude, lengths, k, n):
    """Binomial negative log-likelihood of pooled counts, summed over the
    last axis; ``log_eps`` and ``amplitude`` broadcast against it."""
    log_p, log_q = _log_probabilities(log_eps, amplitude, lengths)
    return -(k * log_p + (n - k) * log_q).sum(axis=-1)


def _nll_and_grad(x, lengths, k, n):
    """Objective and forward-difference gradient at each row of ``x``, all
    from one ``_nll`` call; row ``i`` of ``x`` (shape ``(m, 2)``) is fitted to
    the counts ``k[i]``.

    This is scipy's ``'2-point'`` rule with L-BFGS-B's absolute step: each
    parameter is stepped by ``+_FD_STEP``, or by ``-_FD_STEP`` where that would
    pass its upper bound.  Inside these bounds scipy's other cases never arise:
    ``x + _FD_STEP`` differs from ``x`` for every ``|x| < 28`` (no zero-step
    fallback), cannot fall below a lower bound ``x`` already respects, and the
    reversed step always fits since each interval is far wider than two steps.
    """
    h = np.where(x + _FD_STEP > _UPPER, -_FD_STEP, _FD_STEP)
    points = np.concatenate([x[:, None], x[:, None] + h[:, None] * np.eye(2)], axis=1)
    f = _nll(points[..., :1], points[..., 1:], lengths, k[:, None], n)
    return f[:, 0], (f[:, 1:] - f[:, :1]) / ((x + h) - x)


@functools.cache
def _kernel(name):
    """scipy's compiled module ``scipy.optimize.<name>``: ``_lbfgsb``
    (L-BFGS-B's ``setulb``) or ``_minpack`` (MINPACK's ``lmder``).

    Where it is not imported yet, its extension file is loaded on its own and
    registered under its full name, so the ``scipy.optimize`` package init
    does not run, and a later ``import scipy.optimize`` takes this same
    module.  scipy's directory comes from ``importlib.util.find_spec``, which
    does not import the ``scipy`` package either.  Without that file the
    plain import stands in.
    """
    full_name = f"scipy.optimize.{name}"
    if full_name not in sys.modules and (package := importlib.util.find_spec("scipy")) is not None:
        stem = os.path.join(package.submodule_search_locations[0], "optimize", name)
        path = next((stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(full_name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full_name] = module
            spec.loader.exec_module(module)
    return importlib.import_module(full_name)


@functools.cache
def _blas_threads():
    """``(get, set, thread_local)`` thread-count calls of the OpenBLAS that
    scipy's L-BFGS-B kernel uses, or None where there is none.

    The kernel module's own symbol scope resolves to the library it was
    linked with; numpy's OpenBLAS, which exports the same setter names, is
    left alone.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(_kernel("_lbfgsb").__file__)
    except OSError:
        return None

    def symbol(names, argtypes, restype):
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
        return fn

    get = symbol(("scipy_openblas_get_num_threads", "openblas_get_num_threads"), [], ctypes.c_int)
    local = symbol(("openblas_set_num_threads_local",), [ctypes.c_int], ctypes.c_int)
    set_ = local or symbol(("scipy_openblas_set_num_threads", "openblas_set_num_threads"), [ctypes.c_int], None)
    return None if get is None or set_ is None else (get, set_, local is not None)


@contextmanager
def _one_blas_thread():
    """Run the body with L-BFGS-B's OpenBLAS on one thread, then restore
    the previous count.  The kernel's BLAS calls work on two parameters and a
    few stored corrections, far too little for threads to pay off: more
    threads only add pool wake-ups."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, set_, thread_local = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        # a thread-local count of 0 follows the process-wide one again
        set_(0 if thread_local else previous)
        if get() != previous:
            set_(previous)


def _lbfgsb(x0, lengths, k, n):
    """L-BFGS-B from each row of ``x0`` on the counts in the same row of
    ``k``, at most ``_BLOCK`` rows at a time in lockstep.  Returns ``(x, fun,
    success)``.

    This is the loop of scipy's ``minimize(method="L-BFGS-B")`` with
    ``ftol=1e-12``, ``gtol=1e-10`` and ``_nll_and_grad`` as the objective, run
    on scipy's own kernel, so every row takes scipy's iterates.  Each round
    drives every live row until it asks for the objective (task 3) or stops,
    then answers all the asks with one ``_nll_and_grad`` call.  A row that
    stops hands its slot, the workspaces zeroed as scipy allocates them, to
    the next row, which starts in the same round.  Evaluations are counted
    as scipy's ``ScalarFunction`` counts them: one at the start point, then
    one per asked point that differs from the last.  The gradient's 3
    likelihood points count once, so ``_MAXFUN`` 5000 stops where scipy's
    default of 15000 did with its own finite differences.
    """
    setulb = _kernel("_lbfgsb").setulb
    rows, slots = len(x0), min(len(x0), _BLOCK)
    x = _clip(x0)
    evaluated = x.copy()
    nfev = np.ones(rows, dtype=int)
    nit = [0] * rows
    f = np.zeros(rows)
    g = np.zeros((rows, 2))
    task = np.zeros((rows, 2), dtype=np.int32)
    # setulb's workspaces wa, iwa, lsave, isave, dsave and ln_task, one row per
    # slot, sized as scipy sizes them for two parameters
    workspaces = (
        np.zeros((slots, 2 * _MAXCOR * 2 + 5 * 2 + 11 * _MAXCOR**2 + 8 * _MAXCOR)),
        np.zeros((slots, 3 * 2), dtype=np.int32),
        np.zeros((slots, 4), dtype=np.int32),
        np.zeros((slots, 44), dtype=np.int32),
        np.zeros((slots, 29)),
        np.zeros((slots, 2), dtype=np.int32),
    )
    nbd = np.full(2, 2, dtype=np.int32)  # both bounds on both parameters
    factr = 1e-12 / np.finfo(float).eps

    spaces = list(zip(*workspaces))
    held = [(x[r], g[r], task[r]) for r in range(slots)]  # each slot's row, as views
    queue = iter(range(slots, rows))
    live = list(enumerate(range(slots)))  # (slot, row) pairs
    with _one_blas_thread():
        while live:
            asked = []
            for s, r in live:
                war, iwar, lsaver, isaver, dsaver, lnr = spaces[s]
                xr, gr, taskr = held[s]
                while True:
                    setulb(_MAXCOR, xr, _LOWER, _UPPER, nbd, f[r], gr, factr, 1e-10,
                           war, iwar, taskr, lsaver, isaver, dsaver, _MAXLS, lnr)
                    code = taskr.item(0)
                    if code == 3:
                        asked.append((s, r))
                        break
                    if code != 1:  # converged or stopped: the next row takes the slot
                        if (r := next(queue, None)) is None:
                            break
                        for w in workspaces:
                            w[s] = 0
                        held[s] = xr, gr, taskr = x[r], g[r], task[r]
                        continue
                    nit[r] += 1
                    if nit[r] >= _MAXITER:
                        taskr[:] = 5, 504
                    elif nfev[r] > _MAXFUN:
                        taskr[:] = 5, 502
            if asked:
                a = np.array([r for _, r in asked])
                xa = x[a]
                f[a], g[a] = _nll_and_grad(xa, lengths, k[a], n)
                nfev[a] += (xa != evaluated[a]).any(axis=1)
                evaluated[a] = xa
            live = asked
    return x, f, task[:, 0] == 4


def _nelder_mead(x0, lengths, k, n):
    """Nelder-Mead from each row of ``x0``, clipped to the bounds, on the
    counts in the same row of ``k``, all rows in lockstep.  Returns ``(x,
    fun, success)``.

    This is scipy 1.17.1's ``minimize(method="Nelder-Mead")`` with
    ``bounds=_BOUNDS`` and ``xatol``, ``fatol``, ``maxiter`` from
    ``_NM_XATOL``, ``_NM_FATOL``, ``_NM_MAXITER``, step for step: the same
    arithmetic in the same order, with its non-adaptive coefficients
    (reflect 1, expand 2, contract and shrink 1/2) multiplied out, and
    scipy's ``np.clip`` as ``_clip``, which gives the same bits, so every
    iterate is scipy's.  What cannot run inside these bounds is left out:
    the start simplex's ``zdelt`` for a zero coordinate (``log eps <= log
    0.49`` and ``A >= 1e-3`` are never 0), the evaluation limit (unset, so
    infinite), the warning for a start outside the bounds (L-BFGS-B's ``x``
    is inside), and the adaptive coefficients, given simplex, history and
    callback, which the polish never asks for.

    Each row keeps its own simplex, iteration count and stop rule; each trial
    point is evaluated for all the rows that need it in one ``_nll`` call.
    """
    def f(points, rows):
        return _nll(points[:, :1], points[:, 1:], lengths, k[rows], n)

    def ordered(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        return np.take_along_axis(sim, ind[..., None], 1), np.take_along_axis(fsim, ind, 1)

    x0 = _clip(x0)[:, None]
    live = np.arange(len(x0))
    # each vertex past x0 scales one coordinate by 1.05; one past an upper
    # bound is reflected into the box, then clipped to it
    sim = np.concatenate([x0, np.where(np.eye(2, dtype=bool), (1 + 0.05) * x0, x0)], axis=1)
    sim = _clip(np.where(sim > _UPPER, 2 * _UPPER - sim, sim))
    fsim = np.stack([f(sim[:, j], live) for j in range(3)], axis=1)
    for _ in range(2):  # scipy sorts twice after the first evaluations
        sim, fsim = ordered(sim, fsim)

    iterations = np.ones(len(x0), dtype=int)
    while True:
        s, fs = sim[live], fsim[live]
        converged = ((np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= _NM_XATOL)
                     & (np.max(np.abs(fs[:, :1] - fs[:, 1:]), axis=1) <= _NM_FATOL))
        keep = (iterations[live] < _NM_MAXITER) & ~converged
        if not keep.any():
            break
        live, s, fs = live[keep], s[keep], fs[keep]
        xbar = (s[:, 0] + s[:, 1]) / 2
        xr = _clip(2 * xbar - s[:, -1])
        fxr = f(xr, live)
        expand = fxr < fs[:, 0]
        reflect = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~reflect & (fxr < fs[:, -1])
        # the second point: expansion, or contraction outside or inside
        x2 = _clip(np.where(expand[:, None], 3 * xbar - 2 * s[:, -1],
                            np.where(outside[:, None], 1.5 * xbar - 0.5 * s[:, -1], 0.5 * xbar + 0.5 * s[:, -1])))
        f2 = np.full(len(live), np.nan)
        f2[~reflect] = f(x2[~reflect], live[~reflect])
        take2 = expand & (f2 < fxr) | outside & (f2 <= fxr) | ~expand & ~reflect & ~outside & (f2 < fs[:, -1])
        take_r = reflect | expand & ~take2
        s[:, -1] = np.where(take2[:, None], x2, np.where(take_r[:, None], xr, s[:, -1]))
        fs[:, -1] = np.where(take2, f2, np.where(take_r, fxr, fs[:, -1]))
        shrink = ~take2 & ~take_r
        if shrink.any():
            for j in (1, 2):
                s[shrink, j] = _clip(s[shrink, 0] + 0.5 * (s[shrink, j] - s[shrink, 0]))
                fs[shrink, j] = f(s[shrink, j], live[shrink])
        iterations[live] += 1
        sim[live], fsim[live] = ordered(s, fs)

    return sim[:, 0], np.min(fsim, axis=1), iterations < _NM_MAXITER


def _levenberg_marquardt(fun, x0):
    """The ``x`` that minimizes ``sum(fun(x)**2)``, found from ``x0`` by
    MINPACK's ``lmder``.

    This is scipy 1.17.1's ``least_squares(fun, x0, method="lm")`` for a
    dense problem without bounds: ``ftol``, ``xtol`` and ``gtol`` 1e-8, at
    most ``100 n`` residual calls, step bound factor 100 and no ``diag``
    (``x_scale='jac'``).  The Jacobian is scipy's ``'2-point'`` rule, step
    ``h = sqrt(eps) sign(x) max(1, |x|)`` with ``sign(0) = 1``, divided by
    ``(x + h) - x``.  As in scipy's ``VectorFunction``, the last residual is
    kept with its point (MINPACK's shape probe and first call both ask for
    ``x0``); the difference steps go around it.  So every residual point is
    scipy's, in scipy's order, and ``x`` is scipy's to the bit.  Raises
    ``ValueError`` where ``least_squares`` does: for residuals that are not
    finite at ``x0``, or fewer residuals than parameters.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    last = []  # the point the residuals were last evaluated at, and their values

    def residuals(x):
        if not last or not np.array_equal(x, last[0]):
            last[:] = np.copy(x), np.atleast_1d(fun(np.copy(x)))
        return np.copy(last[1])

    def jacobian(x):
        f0 = residuals(x)
        h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        columns = []
        for i in range(x.size):
            stepped = np.copy(x)
            stepped[i] = x[i] + h[i]
            columns.append((np.atleast_1d(fun(stepped)) - f0) / ((x[i] + h[i]) - x[i]))
        return np.stack(columns, axis=1)

    f0 = residuals(x0)
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    if f0.size < x0.size:
        raise ValueError("Method 'lm' doesn't work when the number of residuals is less than the number of variables.")
    x, _, _ = _kernel("_minpack")._lmder(
        residuals, jacobian, np.copy(x0), (), True, False, 1e-8, 1e-8, 1e-8, 100 * x0.size, 100.0, None)
    return x


def _fit(x0, lengths, k, n):
    """``_lbfgsb``, then a derivative-free polish of every row it left
    unconverged, taken where it is no worse.  Returns ``(x, fun, success)``."""
    x, fun, success = _lbfgsb(x0, lengths, k, n)
    stalled = np.flatnonzero(~success)
    if stalled.size:
        # next to the optimum the line search can fail even along the plain
        # gradient, with no stored corrections left (task ABNORMAL): the
        # likelihood has a kink where the model reaches the clip at
        # 1 - _P_CLIP, and with p near 1 its curvature in A is so large that
        # the forward difference's error, step * f'' / 2, outweighs the true
        # gradient; polish with a derivative-free step instead
        polish = _nelder_mead(x[stalled], lengths, k[stalled], n)
        for i, r in enumerate(stalled):
            if polish[1][i] <= fun[r]:
                x[r], fun[r], success[r] = (column[i] for column in polish)
    return x, fun, success


def _grid_starts(lengths, k, n):
    """Start of each row's fit: the best point of the coarse (eps, A) grid
    for that row of ``k``, each likelihood formed as ``_nll`` forms it."""
    log_p, log_q = _log_probabilities(np.log(_GRID_EPS)[:, None, None], _GRID_AMP[:, None], lengths)
    best = [np.argmin(-(kr * log_p + (n - kr) * log_q).sum(axis=-1)) for kr in k]
    i, j = np.divmod(best, len(_GRID_AMP))
    return np.column_stack([np.log(_GRID_EPS[i]), _GRID_AMP[j]])


def mle_fit(lengths: np.ndarray, successes: np.ndarray, shots: np.ndarray) -> DecayFit:
    """Fit the decay model to pooled binomial counts.

    ``lengths``, ``successes`` and ``shots`` give each record's sequence
    length, number of surviving shots, and shots taken; records sharing a
    length are pooled.
    """
    uniq, k, n = _pool(lengths, successes, shots)

    identifiable = len(uniq) >= 2
    x, fun, success = _fit(_grid_starts(uniq, k[None], n), uniq, k[None], n)
    x, fun = x[0], fun[0]
    log_eps, amplitude = x
    epsilon = float(np.exp(log_eps))

    tol = 1e-6
    at_boundary = bool(np.any((x <= _LOWER + tol) | (x >= _UPPER - tol)))
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
        log_likelihood=-float(fun),
        converged=bool(success[0]),
        at_boundary=bool(at_boundary),
        identifiable=bool(identifiable),
    )


def bootstrap_ci(
    lengths: np.ndarray,
    successes: np.ndarray,
    shots: np.ndarray,
    rng: np.random.Generator,
    n_resamples: int = 1000,
    level: float = 0.68,
    fit: DecayFit | None = None,
) -> tuple[float, float, np.ndarray]:
    """Parametric-bootstrap confidence interval for the per-element error.

    Counts are redrawn from the fitted model and refit; the interval is the
    central ``level`` quantile range of the refitted errors.  The refits run
    as one queue through ``_BLOCK`` refilled L-BFGS-B slots and a lockstep
    polish; each gets the estimate it would get alone.  ``fit`` is the
    ``mle_fit`` of these counts, where the caller already has it; it is
    computed otherwise.  Raises ``ValueError`` unless ``n_resamples >= 1``
    and ``0 <= level <= 1``, and ``RuntimeError`` if more than 5% of refits
    fail to converge.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    if not 0 <= level <= 1:
        raise ValueError(f"level must be in [0, 1], got {level}")
    if fit is None:
        fit = mle_fit(lengths, successes, shots)
    uniq, _, n = _pool(lengths, successes, shots)
    p_model = survival_model(uniq, fit.epsilon, fit.amplitude)

    # the fits draw nothing, so all resamples come first, in the same order
    k_sim = rng.binomial(n.astype(int), p_model, size=(n_resamples, len(n))).astype(float)
    x, _, converged = _fit(_grid_starts(uniq, k_sim, n), uniq, k_sim, n)
    failures = int(np.count_nonzero(~converged))
    if failures > _MAX_FAILURE_FRACTION * n_resamples:
        raise RuntimeError(
            f"bootstrap unstable: {failures}/{n_resamples} refits failed to converge"
        )
    estimates = np.exp(x[converged, 0])
    lo, hi = _quantiles(estimates, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi), estimates


def _quantiles(values, qs):
    """``np.quantile(values, qs)`` of finite ``values`` and ``qs`` in [0, 1],
    bit for bit: numpy's default linear rule, without the ``np.unique`` call
    inside ``np.quantile`` that imports ``numpy.ma``."""
    s = np.sort(values)
    v = (len(s) - 1) * np.asarray(qs, dtype=float)
    # from the last index on, numpy takes the last value on both sides, with
    # weight v + 1 (which keeps the sign of a zero there)
    top = v >= len(s) - 1
    i = np.where(top, -1, np.floor(v)).astype(np.intp)
    lo, hi = s[i], s[np.where(top, -1, i + 1)]
    t, diff = v - i, hi - lo
    return np.where(t >= 0.5, hi - diff * (1 - t), lo + diff * t)


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
    if len(set(x.ravel().tolist())) < 2:
        raise ValueError("a line fit needs at least two distinct x values")
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    slope = (w * (x - xm) * (y - ym)).sum() / sxx
    return slope, ym - slope * xm, sxx
