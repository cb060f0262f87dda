"""Phase-noise spectra, control filter functions, and decoherence overlap.

Conventions (anchored end to end by the white-noise limit):

* A single-sideband noise curve ``L(f)`` in dBc/Hz converts to a one-sided
  phase PSD ``S_phi(f) = 2 * 10**(L(f)/10)`` in rad^2/Hz, evaluated at the
  offset frequency itself.
* The decoherence exponent of a control timeline is

      chi = (1/pi) * Int_0^inf S_phi(omega) G(omega) d(omega)
          = 2 * Int_0^inf S_phi(f) G(2 pi f) df

  with the dimensionless filter function ``G``.  Free precession has
  ``G = sin^2(omega tau / 2)``; an ideal echo has ``G = 4 sin^4(omega tau
  / 4)``.  Coherence decays as ``exp(-chi)`` and the corresponding state
  fidelity is ``(1 + exp(-chi)) / 2``.
* White frequency noise with coherence time T2 has
  ``S_phi(f) = 1 / (pi^2 T2 f^2)``, for which the free-precession
  exponent is exactly ``tau / T2``.

Arbitrary piecewise-constant control is handled in the toggling frame:
the z axis is dragged through the control rotations, each segment's
contribution to the Fourier transform of the toggled axis is integrated
analytically, and ``G = (omega^2 / 4) * sum_j |n_j(omega)|^2`` over the
axes perpendicular to the initial Bloch vector.

For benchmarking with a per-pulse idle delay, twirling converts the phase
variance accumulated in each delay into depolarization: the error per
group element grows as ``mu / 3`` times the free-precession exponent of
one delay window, which for white frequency noise reproduces the slope
``mu / (3 T2)``.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .presets import MEAN_PULSES_PER_CLIFFORD

__all__ = [
    "SSBCurve",
    "PhasePSD",
    "Segment",
    "ControlTimeline",
    "filter_function",
    "g_free",
    "g_echo",
    "chi_overlap",
    "chi_ramsey",
    "chi_echo",
    "chi_timeline",
    "predict_t2",
    "predict_irmb",
]

# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SSBCurve:
    """Single-sideband phase-noise curve, interpolated linearly in log f.

    Outside the tabulated range the end values are held constant.
    """

    freqs_hz: tuple[float, ...]
    dbc_per_hz: tuple[float, ...]

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        d = np.asarray(self.dbc_per_hz, dtype=float)
        if len(f) < 2 or len(f) != len(d):
            raise ValueError("need at least two (frequency, dBc) points")
        if not (np.isfinite(f).all() and np.isfinite(d).all()):
            raise ValueError("frequencies and levels must be finite")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be positive and strictly increasing")

    def level(self, f: float | np.ndarray) -> np.ndarray:
        """Interpolated L(f) in dBc/Hz."""
        logf = np.log10(np.asarray(f, dtype=float))
        return np.interp(logf, np.log10(self.freqs_hz), self.dbc_per_hz)

    @property
    def f_range(self) -> tuple[float, float]:
        return float(self.freqs_hz[0]), float(self.freqs_hz[-1])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["frequency_hz", "dbc_per_hz"])
        for f, d in zip(self.freqs_hz, self.dbc_per_hz):
            w.writerow([repr(float(f)), repr(float(d))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SSBCurve":
        reader = csv.DictReader(io.StringIO(text), restval="")  # a short row's missing cell is ""
        if not {"frequency_hz", "dbc_per_hz"} <= set(reader.fieldnames or ()):
            raise ValueError("need a header with the columns frequency_hz,dbc_per_hz")
        rows = list(reader)
        return cls(
            freqs_hz=tuple(float(r["frequency_hz"]) for r in rows),
            dbc_per_hz=tuple(float(r["dbc_per_hz"]) for r in rows),
        )


class PhasePSD:
    """One-sided phase PSD S_phi(f) in rad^2/Hz, with an integration range."""

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        f_range: tuple[float, float] = (1e-4, 1e8),
        label: str = "",
    ):
        if not 0 < f_range[0] < f_range[1]:
            raise ValueError("need 0 < f_min < f_max")
        self._func = func
        self.f_range = (float(f_range[0]), float(f_range[1]))
        self.label = label

    def __call__(self, f: float | np.ndarray) -> np.ndarray:
        return np.asarray(self._func(np.asarray(f, dtype=float)))

    @classmethod
    def from_ssb(cls, curve: SSBCurve, label: str = "ssb") -> "PhasePSD":
        return cls(
            lambda f: 2.0 * 10.0 ** (curve.level(f) / 10.0),
            f_range=curve.f_range,
            label=label,
        )

    @classmethod
    def white_fm(cls, t2: float, f_range: tuple[float, float] | None = None) -> "PhasePSD":
        """PSD whose free-precession decay is exactly exp(-tau/t2)."""
        if t2 <= 0:
            raise ValueError("t2 must be positive")
        if f_range is None:
            f_range = (1e-8 / t2, 1e8 / t2)
        return cls(lambda f: 1.0 / (np.pi**2 * t2 * f**2), f_range=f_range, label="white_fm")


# ---------------------------------------------------------------------------
# Timelines and filter functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One piece of piecewise-constant control.

    ``duration > 0`` with ``rabi == 0`` is free evolution; ``duration > 0``
    with ``rabi > 0`` drives about the equatorial axis at ``phase``;
    ``duration == 0`` applies an instantaneous rotation by ``angle``.
    """

    duration: float
    rabi: float = 0.0
    phase: float = 0.0
    angle: float | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.duration == 0 and self.angle is None:
            raise ValueError("instantaneous segments need an angle")
        if self.duration > 0 and self.angle is not None:
            raise ValueError("finite segments take their angle from rabi * duration")


@dataclass(frozen=True)
class ControlTimeline:
    """Ordered control segments, first played first."""

    segments: tuple[Segment, ...]

    @classmethod
    def ramsey(cls, tau: float) -> "ControlTimeline":
        """Free precession between instantaneous pi/2 pulses (pulses
        implicit: the timeline starts with the Bloch vector along x)."""
        return cls(segments=(Segment(duration=tau),))

    @property
    def total_time(self) -> float:
        return float(sum(s.duration for s in self.segments))


def _rot3(phase: float, angle: float) -> np.ndarray:
    """SO(3) rotation by `angle` about the equatorial axis at `phase`."""
    ux, uy = np.cos(phase), np.sin(phase)
    c, s = np.cos(angle), np.sin(angle)
    u = np.array([ux, uy, 0.0])
    k = np.array([[0, 0, uy], [0, 0, -ux], [-uy, ux, 0]])
    return c * np.eye(3) + s * k + (1 - c) * np.outer(u, u)


def _eint(x: np.ndarray, d: float) -> np.ndarray:
    """Int_0^d exp(i x s) ds, stable through x = 0."""
    return d * np.exp(0.5j * x * d) * np.sinc(x * d / (2 * np.pi))


def filter_function(timeline: ControlTimeline, omega: np.ndarray) -> np.ndarray:
    """Dimensionless dephasing filter function G(omega) of a timeline.

    The phase-noise axis (z) is followed through the control in the
    toggling frame; G collects the spectral weight of the components
    perpendicular to the initial Bloch vector, which points along x,
    normalized so free precession gives sin^2(omega tau / 2).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n_tilde = np.zeros((3, len(omega)), dtype=complex)
    minv = np.eye(3)  # inverse of the accumulated control rotation
    t0 = 0.0
    for seg in timeline.segments:
        if seg.duration == 0:
            minv = minv @ _rot3(seg.phase, -float(seg.angle))
            continue
        d = seg.duration
        if seg.rabi == 0:
            local = np.zeros((3, len(omega)), dtype=complex)
            local[2] = _eint(omega, d)
        else:
            om = seg.rabi
            e_plus = _eint(omega + om, d)
            e_minus = _eint(omega - om, d)
            i_cos = 0.5 * (e_plus + e_minus)
            i_sin = (e_plus - e_minus) / 2j
            local = np.zeros((3, len(omega)), dtype=complex)
            local[0] = -np.sin(seg.phase) * i_sin
            local[1] = np.cos(seg.phase) * i_sin
            local[2] = i_cos
        n_tilde += np.exp(1j * omega * t0) * (minv @ local)
        if seg.rabi != 0:
            minv = minv @ _rot3(seg.phase, -seg.rabi * d)
        t0 += d
    return (omega**2 / 4.0) * (np.abs(n_tilde[1]) ** 2 + np.abs(n_tilde[2]) ** 2)


def g_free(omega: np.ndarray, tau: float) -> np.ndarray:
    """Free-precession filter function."""
    return np.sin(np.asarray(omega) * tau / 2.0) ** 2


def g_echo(omega: np.ndarray, tau: float) -> np.ndarray:
    """Single-echo filter function (instantaneous refocusing pulse)."""
    return 4.0 * np.sin(np.asarray(omega) * tau / 4.0) ** 4


# ---------------------------------------------------------------------------
# Overlap integrals
# ---------------------------------------------------------------------------


_REFINE_TOL = 1e-4
_MAX_REFINEMENTS = 4
_EDGE_FRACTION_WARN = 0.02


def chi_overlap(
    psd: PhasePSD,
    g_of_omega: Callable[[np.ndarray], np.ndarray],
    f_min: float | None = None,
    f_max: float | None = None,
    points_per_decade: int = 200,
) -> float:
    """Decoherence exponent 2 * Int S_phi(f) G(2 pi f) df on a log grid.

    The trapezoid rule is applied in log-frequency and the grid is doubled,
    at most four times, until the integral changes by less than 1e-4
    relatively.  A warning is raised when either boundary decade carries
    more than 2% of the result.  It names the edge; where that
    edge is the spectrum's own ``f_range`` bound, the weight sits at the
    tabulated support and widening the range cannot remove it, otherwise
    the integration range truncates spectral mass.
    """
    f_lo = psd.f_range[0] if f_min is None else f_min
    f_hi = psd.f_range[1] if f_max is None else f_max
    if not 0 < f_lo < f_hi:
        raise ValueError("need 0 < f_min < f_max")

    def integrate(ppd: int) -> tuple[float, np.ndarray, np.ndarray]:
        n = max(16, int(np.ceil(np.log10(f_hi / f_lo) * ppd)))
        f = np.logspace(np.log10(f_lo), np.log10(f_hi), n)
        y = 2.0 * psd(f) * g_of_omega(2 * np.pi * f)
        u = np.log(f)
        return float(np.trapezoid(y * f, u)), f, y

    chi, f, y = integrate(points_per_decade)
    for _ in range(_MAX_REFINEMENTS):
        points_per_decade *= 2
        chi_new, f, y = integrate(points_per_decade)
        if abs(chi_new - chi) <= _REFINE_TOL * max(abs(chi_new), 1e-300):
            chi = chi_new
            break
        chi = chi_new

    if chi > 0:
        u = np.log(f)
        mass = y * f
        lo_edge = f <= f_lo * 10
        hi_edge = f >= f_hi / 10
        lo_mass = float(np.trapezoid(np.where(lo_edge, mass, 0.0), u))
        hi_mass = float(np.trapezoid(np.where(hi_edge, mass, 0.0), u))
        notes = [
            f"at the {name} edge, the spectrum's tabulated support: widening the range cannot remove it"
            if bound == support
            else f"at the {name} edge: widen the range"
            for name, edge_mass, bound, support in (
                ("low", lo_mass, f_lo, psd.f_range[0]),
                ("high", hi_mass, f_hi, psd.f_range[1]),
            )
            if edge_mass > _EDGE_FRACTION_WARN * chi
        ]
        if notes:
            warnings.warn(
                "overlap integral over the frequency range "
                f"[{f_lo:g}, {f_hi:g}] Hz has significant weight " + "; and ".join(notes),
                RuntimeWarning,
                stacklevel=2,
            )
    return chi


def _tau_matched(psd: PhasePSD, tau: float, kwargs: dict) -> dict:
    """`kwargs` with the range defaulted to [1e-6/tau, 1e6/tau] Hz, within the spectrum's support."""
    kwargs.setdefault("f_min", max(psd.f_range[0], 1e-6 / tau))
    kwargs.setdefault("f_max", min(psd.f_range[1], 1e6 / tau))
    return kwargs


def chi_ramsey(psd: PhasePSD, tau: float, **kwargs) -> float:
    """Free-precession exponent over `tau`, range auto-matched to tau."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0:
        return 0.0
    return chi_overlap(psd, lambda w: g_free(w, tau), **_tau_matched(psd, tau, kwargs))


def chi_echo(psd: PhasePSD, tau: float, **kwargs) -> float:
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0:
        return 0.0
    return chi_overlap(psd, lambda w: g_echo(w, tau), **_tau_matched(psd, tau, kwargs))


def chi_timeline(psd: PhasePSD, timeline: ControlTimeline, **kwargs) -> float:
    tau = max(timeline.total_time, 1e-12)
    kwargs = _tau_matched(psd, tau, kwargs)
    return chi_overlap(psd, lambda w: filter_function(timeline, w), **kwargs)


def predict_t2(psd: PhasePSD, kind: str = "ramsey", bracket: tuple[float, float] = (1e-3, 1e4)) -> float:
    """Time at which the coherence exponent of a 'ramsey' (free precession) or
    'echo' experiment, which grows with tau, reaches 1 (decay to 1/e):
    bisection on log tau down to a 1e-12 wide bracket."""
    fn = {"ramsey": chi_ramsey, "echo": chi_echo}.get(kind)
    if fn is None:
        raise ValueError("kind must be 'ramsey' or 'echo'")

    def f(log_tau):
        return fn(psd, float(np.exp(log_tau))) - 1.0

    # collapse the per-iteration range warnings of the root solve into one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        lo, hi = np.log(bracket[0]), np.log(bracket[1])
        if not np.isfinite(hi - lo) or f(lo) > 0 or f(hi) < 0:
            raise ValueError("coherence time not bracketed; adjust the bracket")
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
        result = float(np.exp(0.5 * (lo + hi)))
        edge_hit = any(issubclass(w.category, RuntimeWarning) for w in caught)
    for w in caught:
        if not issubclass(w.category, RuntimeWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if edge_hit:
        warnings.warn(
            "part of the overlap integral falls outside the tabulated "
            "frequency range near the solution; the predicted coherence "
            "time ignores that spectral mass",
            RuntimeWarning,
            stacklevel=2,
        )
    return result


def predict_irmb(psd: PhasePSD, delays: Sequence[float], baseline: float = 0.0) -> np.ndarray:
    """Benchmarking error per group element versus per-pulse idle delay.

    Each delay window contributes the free-precession exponent
    ``chi(t_delay)``; twirling over the group turns the resulting phase
    variance ``2 chi`` into depolarization with average error ``2 chi /
    6``, giving ``mu * chi / 3`` per element.
    """
    return np.array(
        [baseline + MEAN_PULSES_PER_CLIFFORD * chi_ramsey(psd, float(t)) / 3.0 for t in delays]
    )
