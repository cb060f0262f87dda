"""Piecewise-exact time evolution of the driven qubit.

The drive is modelled in the frame rotating at the drive frequency.  A
pulse consists of an amplitude ramp up, a flat top, a ramp down and a free
gap; on every discretization cell the Hamiltonian

    H = (Omega/2) (cos(phi) sx + sin(phi) sy) + ((z(t) - Delta)/2) sz

is constant, so each cell advances the state by an exact 2x2 matrix
exponential (no ODE solver).  ``Delta = omega_drive - omega_qubit`` is the
static frame detuning and ``z(t)`` the amplitude-induced (ac Zeeman) shift
of the qubit frequency, quadratic in the instantaneous drive amplitude.

``t_half_pi`` is the *total* pulse duration including both sin^2 ramps;
each ramp integrates to half a flat-top ramp_time, so the flat-top Rabi
rate that yields an exact pi/2 rotation is ``(pi/2) / (t_half_pi -
ramp_time)``.

Also here: the Bloch-averaged pulse-error metric, a six-level model for
off-resonant spectator transitions, and a scaled-frequency probe of the
counter-rotating drive term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cliffords import PulseSpec, apply_ab, pulse_ab, rotation_matrix
from .presets import MEAN_PULSES_PER_CLIFFORD, OMEGA_QUBIT, RAMP_TIME
from .presets import SPECTATOR_DETUNING, SPECTATOR_RABI_RATIO, SPECTATOR_T2

__all__ = [
    "DriveParams",
    "ZeemanModel",
    "pulse_propagator",
    "avg_pulse_error",
    "simulate_spectator",
    "spectator_error_per_gate",
    "counter_rotating_error",
    "CARDINAL_STATES",
]

# relative drive amplitude: a multiplier or an array of them (one per batch
# element), or a function of the time since the start of the pulse that is
# called once on the (n_cells, 4) quadrature times and returns them with any
# leading batch axes, (*batch, n_cells, 4), or something broadcastable to it
AmplitudeTrace = float | np.ndarray | Callable[[np.ndarray], np.ndarray | float]


@dataclass(frozen=True)
class DriveParams:
    """Drive-field parameters shared by a pulse train.

    Attributes
    ----------
    omega_q:
        Flat-top Rabi rate in rad/s.
    detuning:
        Static frame detuning, drive minus bare qubit frequency (rad/s).
    """

    omega_q: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.omega_q <= 0:
            raise ValueError("omega_q must be positive")

    @classmethod
    def nominal(cls, t_half_pi: float, ramp_time: float = RAMP_TIME, **kwargs) -> "DriveParams":
        """Rabi rate such that a pulse of the given timing is exactly pi/2."""
        return cls(omega_q=(np.pi / 2) / (t_half_pi - ramp_time), **kwargs)


@dataclass(frozen=True)
class ZeemanModel:
    """Amplitude-induced shift of the qubit frequency.

    The shift scales with the square of the instantaneous relative drive
    amplitude and equals ``shift_at_full_amp`` (rad/s) at full scale.
    """

    shift_at_full_amp: float = 2 * np.pi * 9.0

    def shift(self, relative_amplitude: float) -> float:
        return self.shift_at_full_amp * relative_amplitude**2


def _ab_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Time-ordered product of the Cayley-Klein pairs ``(a[..., k], b[..., k])``,
    shape ``(2, 2, *batch)`` for pairs of shape ``(*batch, n)``.

    Pair ``k`` acts before pair ``k + 1``.  Neighbours are multiplied as a
    pairwise tree; ``apply_ab`` on the first column of the earlier factor
    gives the first column, and so the pair, of the product.
    """
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    while a.shape[-1] > 1:
        even = a.shape[-1] - a.shape[-1] % 2
        apply_ab(a[..., 1::2], b[..., 1::2], a[..., :even:2], b[..., :even:2])
        a, b = a[..., ::2], b[..., ::2]  # an odd last factor is carried up unchanged
    a, b = a[..., 0], b[..., 0]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


# 4-point Gauss-Legendre nodes on [0, 1] and their weights
_GL_NODES = 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                            0.3399810435848563, 0.8611363115940526]) + 0.5
_GL_WEIGHTS = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                              0.6521451548625461, 0.3478548451374538])


@lru_cache(maxsize=64)
def _pulse_grid(tr, t_half_pi, gap_time, ramp_substeps, flat_substeps):
    """Read-only (cell starts, cell ends, sin^2 ramp shape at cell midpoints,
    quadrature times) of a pulse window; the same for every pulse of a
    train, so cached.  Starts and ends have one more cell, the trailing gap."""
    tf = t_half_pi - 2 * tr  # the flat top
    edges = [np.array([0.0])]
    if tr > 0:
        edges.append(np.linspace(0.0, tr, ramp_substeps + 1)[1:])
    edges.append(np.linspace(tr, tr + tf, flat_substeps + 1)[1:])
    if tr > 0:
        edges.append(np.linspace(tr + tf, 2 * tr + tf, ramp_substeps + 1)[1:])
    edges = np.concatenate(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    shape = np.ones_like(mids)
    if tr > 0:
        up = mids < tr
        down = mids > tr + tf
        shape[up] = np.sin(0.5 * np.pi * (mids[up] / tr)) ** 2
        shape[down] = np.sin(0.5 * np.pi * ((t_half_pi - mids[down]) / tr)) ** 2
    ts = edges[:-1, None] + np.diff(edges)[:, None] * _GL_NODES
    starts = np.append(edges[:-1], t_half_pi)
    ends = np.append(edges[1:], t_half_pi + gap_time)
    for arr in (starts, ends, shape, ts):
        arr.flags.writeable = False
    return starts, ends, shape, ts


def _pulse_cells(
    pulse: PulseSpec,
    drive: DriveParams,
    amplitude_trace: AmplitudeTrace | None,
    ramp_substeps: int,
    flat_substeps: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed discretization grid of the pulse window.

    Returns (starts, ends, relative_amplitudes): cell bounds in seconds from
    pulse start, the last cell the trailing gap, and the relative drive
    amplitude (fraction of omega_q) on each cell before the gap, shape
    ``(*batch, n_cells)``: the ramp shape at the cell midpoint times the cell
    average of the trace.  A callable trace is called once, on the
    ``(n_cells, 4)`` array of quadrature times.
    """
    if ramp_substeps < 64:
        raise ValueError("ramp_substeps must be at least 64")
    if flat_substeps is None:
        flat_substeps = 256 if callable(amplitude_trace) else 1
    starts, ends, shape, ts = _pulse_grid(
        pulse.ramp_time, pulse.t_half_pi, pulse.gap_time, ramp_substeps, flat_substeps
    )
    if callable(amplitude_trace):
        # cell-average the trace (Gauss-Legendre) so that slowly oscillating
        # multipliers contribute their exact pulse area even on a coarse grid
        trace = np.broadcast_arrays(amplitude_trace(ts), ts)[0] @ _GL_WEIGHTS
    else:
        trace = 1.0 if amplitude_trace is None else np.asarray(amplitude_trace, dtype=float)[..., None]
    return starts, ends, shape * trace


def pulse_propagator(
    pulse: PulseSpec,
    drive: DriveParams,
    amplitude_trace: AmplitudeTrace | None = None,
    zeeman: ZeemanModel | None = None,
    ramp_substeps: int = 64,
    flat_substeps: int | None = None,
) -> np.ndarray:
    """Propagator of one pulse and its trailing gap.

    Returns the 2x2 matrix as an array of shape ``(2, 2, *batch)``: a batch
    of pulses that share the timing and differ in their amplitude trace.
    `amplitude_trace` is ``None`` (full amplitude), a multiplier or an
    array of them of shape ``batch``, or a callable that gets the
    ``(n_cells, 4)`` quadrature times of the pulse in one call and returns
    the trace at them, shape ``(*batch, n_cells, 4)`` or broadcastable to
    it.  An unbatched input gives a plain 2x2 array.

    Times are measured from the start of the pulse.  The Hamiltonian is
    piecewise constant on a fixed grid; every cell's exact propagator comes
    from one ``pulse_ab`` call on arrays, and the cells are multiplied as a
    pairwise tree.
    """
    starts, ends, rel_amp = _pulse_cells(pulse, drive, amplitude_trace, ramp_substeps, flat_substeps)
    # trailing gap: free evolution at zero amplitude, so no ac Zeeman shift
    rel_amp = np.concatenate([rel_amp, np.zeros(rel_amp.shape[:-1] + (1,))], axis=-1)
    vz = -drive.detuning if zeeman is None else zeeman.shift(rel_amp) - drive.detuning
    a, b = pulse_ab(drive.omega_q * rel_amp, vz, ends - starts)
    return _ab_product(a, b * np.exp(1j * pulse.effective_phase))


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

# one state vector per row
CARDINAL_STATES = np.array(
    [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex
) / np.array([1, 1, np.sqrt(2), np.sqrt(2), np.sqrt(2), np.sqrt(2)])[:, None]


def avg_pulse_error(actual: np.ndarray, ideal: np.ndarray) -> float:
    """State infidelity averaged over the six cardinal Bloch states, for 2x2
    propagators."""
    err = actual.conj().T @ ideal
    fids = [abs(np.vdot(s, err @ s)) ** 2 for s in CARDINAL_STATES]
    return 1.0 - float(np.mean(fids))


# ---------------------------------------------------------------------------
# Spectator transitions (six-level model)
# ---------------------------------------------------------------------------

# basis ordering: |0>, |1>, s0-, s0+, s1-, s1+
_N_LEVELS = 6


def _spectator_hamiltonian(omega: np.ndarray, phi: float) -> np.ndarray:
    """Hamiltonians at the drive rates ``omega``, shape ``(len(omega), 6, 6)``."""
    h = np.zeros((len(omega), _N_LEVELS, _N_LEVELS), dtype=complex)
    # qubit drive
    h[:, 0, 1] = 0.5 * omega * np.exp(-1j * phi)
    h[:, 1, 0] = np.conj(h[:, 0, 1])
    # spectator couplings, sharing the drive phase
    omega_s = SPECTATOR_RABI_RATIO * omega
    for q, s_minus, s_plus in ((0, 2, 3), (1, 4, 5)):
        for s in (s_minus, s_plus):
            h[:, q, s] = 0.5 * omega_s * np.exp(-1j * phi)
            h[:, s, q] = np.conj(h[:, q, s])
    h[:, 2, 2] = -SPECTATOR_DETUNING
    h[:, 3, 3] = +SPECTATOR_DETUNING
    h[:, 4, 4] = -SPECTATOR_DETUNING
    h[:, 5, 5] = +SPECTATOR_DETUNING
    return h


@lru_cache(maxsize=8)
def _spectator_steps(omega_q, phi, ramp_time, t_half_pi, gap_time):
    """Read-only exact propagators of the cells of one pulse window, in time
    order, shape ``(n_cells, 6, 6)``: the ramped pulse, then the free gap if
    there is one.  A train has one window per drive phase, so cached."""
    starts, ends, shape, _ = _pulse_grid(ramp_time, t_half_pi, gap_time, 512, 1)
    omega, dt = omega_q * shape, (ends - starts)[:-1]
    if gap_time > 0:
        omega, dt = np.append(omega, 0.0), np.append(dt, gap_time)
    # one stacked eigh; LAPACK sees each cell as it would alone
    vals, vecs = np.linalg.eigh(_spectator_hamiltonian(omega, phi))
    steps = (vecs * np.exp(-1j * vals * dt[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    steps.flags.writeable = False
    return steps


def simulate_spectator(
    pulse: PulseSpec, drive: DriveParams, state: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Propagate the six-level system through one pulse.

    Returns the final six-component amplitude vector and the population
    that leaked out of the qubit subspace.  The flat top is advanced with a
    single exact exponential; the ramps are discretized (512 substeps over
    a 40 ns ramp keep the discretization bias well below the 1e-9 leakage
    scale being estimated).  The cells are applied to the state one at a
    time: a product of the cell propagators would round the ~1e-10 leak
    differently.
    """
    if state is None:
        state = np.zeros(_N_LEVELS, dtype=complex)
        state[0] = 1.0
    state = np.asarray(state, dtype=complex)

    steps = _spectator_steps(drive.omega_q, pulse.effective_phase, pulse.ramp_time, pulse.t_half_pi, pulse.gap_time)
    for u in steps:
        state = u @ state

    leak = 1.0 - float(abs(state[0]) ** 2 + abs(state[1]) ** 2)
    return state, max(leak, 0.0)


def spectator_error_per_gate(t_half_pi: float) -> float:
    """Spectator error bound per Clifford from a short random pulse train.

    Combines the simulated leakage accumulated over 24 random-axis pulses of
    the default ramps and gaps, drawn from a fixed seed, with the
    dressed-population decoherence bound
    ``<P_spectator> * t / (3 * SPECTATOR_T2)``.
    """
    n_pulses = 24
    drive = DriveParams.nominal(t_half_pi)
    rng = np.random.default_rng(20260825)
    state = None  # simulate_spectator starts from |0>
    dressed = (SPECTATOR_RABI_RATIO * drive.omega_q / SPECTATOR_DETUNING) ** 2
    for _ in range(n_pulses):
        pulse = PulseSpec(
            phase=float(rng.choice([0.0, np.pi / 2])),
            sign=int(rng.choice([-1, 1])),
            t_half_pi=t_half_pi,
        )
        state, leak = simulate_spectator(pulse, drive, state=state)
    leak_per_pulse = leak / n_pulses
    deco_per_pulse = dressed * t_half_pi / (3 * SPECTATOR_T2)
    return MEAN_PULSES_PER_CLIFFORD * (leak_per_pulse + deco_per_pulse)


# ---------------------------------------------------------------------------
# Counter-rotating drive term
# ---------------------------------------------------------------------------

# integration cells per period of the 2 omega_q oscillation
_SUBSTEPS_PER_PERIOD = 64


@dataclass(frozen=True)
class CounterRotatingResult:
    """Scaled-frequency probe of the non-rotating-wave drive term."""

    coefficient: float  # error = coefficient * (Omega / omega_q)**2
    per_pulse_error: float
    per_gate_error: float
    sampled_ratios: tuple[float, ...]
    sampled_errors: tuple[float, ...]


def counter_rotating_error(
    drive: DriveParams,
    omega_q_factors: Sequence[float] = (50.0, 100.0),
) -> CounterRotatingResult:
    """Estimate the error contributed by the counter-rotating drive term.

    The term oscillating at twice the qubit frequency is integrated
    explicitly for a rectangular pi/2 pulse at artificially low qubit
    frequencies (>= 10x the Rabi rate), the resulting pulse errors are fit
    to the known quadratic scaling in Omega/omega_q, and the fit is
    extrapolated to the physical frequency ``OMEGA_QUBIT``.
    """
    omega = drive.omega_q
    duration = (np.pi / 2) / omega
    ideal = rotation_matrix(0.0, np.pi / 2)

    ratios, errors = [], []
    for factor in omega_q_factors:
        omega_q_scaled = factor * omega
        if omega_q_scaled < 10 * omega:
            raise ValueError("scaled qubit frequency must be at least 10x the Rabi rate")
        period = np.pi / omega_q_scaled  # of the 2*omega_q oscillation
        n_steps = int(np.ceil(duration / period)) * _SUBSTEPS_PER_PERIOD
        dt = duration / n_steps
        # the Rabi vector omega (1 + e^{i theta}), theta = 2 omega_q t, is a
        # drive of rate 2 omega cos(theta/2) at phase theta/2
        half_theta = omega_q_scaled * (np.arange(n_steps) + 0.5) * dt
        a, b = pulse_ab(2 * omega * np.cos(half_theta), 0.0, dt)
        err = avg_pulse_error(_ab_product(a, b * np.exp(1j * half_theta)), ideal)
        ratios.append(omega / omega_q_scaled)
        errors.append(err)

    ratios_arr = np.array(ratios)
    errors_arr = np.array(errors)
    coeff = float(np.sum(errors_arr * ratios_arr**2) / np.sum(ratios_arr**4))
    per_pulse = coeff * (omega / OMEGA_QUBIT) ** 2
    return CounterRotatingResult(
        coefficient=coeff,
        per_pulse_error=per_pulse,
        per_gate_error=MEAN_PULSES_PER_CLIFFORD * per_pulse,
        sampled_ratios=tuple(ratios),
        sampled_errors=tuple(errors),
    )
