"""Piecewise-exact time evolution of the driven qubit.

The drive is modelled in the frame rotating at the drive frequency.  A
pulse consists of an amplitude ramp up, a flat top, a ramp down and a free
gap; on every discretization cell the Hamiltonian

    H = (Omega/2) (cos(phi) sx + sin(phi) sy) + ((z(t) - Delta)/2) sz

is constant, so each cell advances the state by an exact 2x2 matrix
exponential (no ODE solver).  ``Delta = omega_drive - omega_qubit`` is the
static frame detuning and ``z(t)`` the amplitude-induced (ac Zeeman) shift
of the qubit frequency, quadratic in the instantaneous drive amplitude.

``t_half_pi`` is the *total* pulse duration including both ramps; the
flat-top Rabi rate that yields an exact pi/2 rotation is therefore
``(pi/2) / (t_half_pi - ramp_time)`` for both supported ramp shapes (each
ramp integrates to half a flat-top ramp_time).

Also here: the Bloch-averaged pulse-error metric, a six-level model for
off-resonant spectator transitions, and a scaled-frequency probe of the
counter-rotating drive term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cliffords import (
    MEAN_PULSES_PER_CLIFFORD,
    PulseSpec,
    QubitState,
    UnitaryOp,
    apply_ab,
    pulse_ab,
)

__all__ = [
    "DriveParams",
    "ZeemanModel",
    "SpectatorConfig",
    "evolve_sequence",
    "pulse_propagator",
    "avg_pulse_error",
    "simulate_spectator",
    "spectator_error_per_gate",
    "counter_rotating_error",
    "CARDINAL_STATES",
]

RAMP_SHAPES = ("sin2", "linear")

# relative drive amplitude: a constant, or a function of time (from the start
# of the pulse, or of the train in ``evolve_sequence``) that is called once per
# pulse on an array of times
AmplitudeTrace = float | Callable[[np.ndarray], np.ndarray | float]


@dataclass(frozen=True)
class DriveParams:
    """Drive-field parameters shared by a pulse train.

    Attributes
    ----------
    omega_q:
        Flat-top Rabi rate in rad/s.
    detuning:
        Static frame detuning, drive minus bare qubit frequency (rad/s).
    phase:
        Global phase offset added to every pulse axis (rad).
    ramp_shape:
        'sin2' (default) or 'linear'.
    """

    omega_q: float
    detuning: float = 0.0
    phase: float = 0.0
    ramp_shape: str = "sin2"

    def __post_init__(self):
        if self.omega_q <= 0:
            raise ValueError("omega_q must be positive")
        if self.ramp_shape not in RAMP_SHAPES:
            raise ValueError(f"ramp_shape must be one of {RAMP_SHAPES}")

    @classmethod
    def nominal(cls, t_half_pi: float, ramp_time: float = 40e-9, **kwargs) -> "DriveParams":
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


@dataclass(frozen=True)
class SpectatorConfig:
    """Averaged description of the four off-resonant spectator transitions.

    Each qubit level couples to two spectator levels, detuned by plus and
    minus ``detuning_s`` from the drive, with Rabi rate ``rabi_ratio`` times
    the qubit rate.  ``t2_s`` is the spectator coherence time used for the
    decoherence part of the error bound.
    """

    detuning_s: float = 2 * np.pi * 104e6
    rabi_ratio: float = 1.4
    t2_s: float = 40e-3


def _ramp_profile(shape: str, s: np.ndarray) -> np.ndarray:
    """Normalized ramp-up profile on s in [0, 1]."""
    if shape == "linear":
        return s
    return np.sin(0.5 * np.pi * s) ** 2


def _ab_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 matrix of the time-ordered product of the Cayley-Klein pairs ``(a[k], b[k])``.

    Pair ``k`` acts before pair ``k + 1``.  Neighbours are multiplied as a
    pairwise tree; ``apply_ab`` on the first column of the earlier factor
    gives the first column, and so the pair, of the product.
    """
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    while len(a) > 1:
        even = len(a) - len(a) % 2
        apply_ab(a[1::2], b[1::2], a[:even:2], b[:even:2])
        a, b = a[::2], b[::2]  # an odd last factor is carried up unchanged
    return np.array([[a[0], -np.conj(b[0])], [b[0], np.conj(a[0])]])


# 4-point Gauss-Legendre nodes on [0, 1] and their weights
_GL_NODES = 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                            0.3399810435848563, 0.8611363115940526]) + 0.5
_GL_WEIGHTS = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                              0.6521451548625461, 0.3478548451374538])


@lru_cache(maxsize=64)
def _pulse_grid(tr, tf, t_half_pi, ramp_shape, ramp_substeps, flat_substeps):
    """Read-only (edges, ramp shape at cell midpoints, quadrature times) of a
    pulse window; the same for every pulse of a train, so cached."""
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
        shape[up] = _ramp_profile(ramp_shape, mids[up] / tr)
        shape[down] = _ramp_profile(ramp_shape, (t_half_pi - mids[down]) / tr)
    ts = edges[:-1, None] + np.diff(edges)[:, None] * _GL_NODES
    for arr in (edges, shape, ts):
        arr.flags.writeable = False
    return edges, shape, ts


def _pulse_cells(
    pulse: PulseSpec,
    drive: DriveParams,
    amplitude_trace: AmplitudeTrace | None,
    ramp_substeps: int,
    flat_substeps: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed discretization grid of the pulse window (excluding the gap).

    Returns (edges, relative_amplitudes): cell edges in seconds from pulse
    start and the relative drive amplitude (fraction of omega_q) on each
    cell: the ramp shape at the cell midpoint times the cell average of the
    trace.  A callable trace is called once, on the ``(n_cells, 4)`` array
    of quadrature times.  The grid does not depend on the evaluation
    interval, so propagators over adjacent sub-intervals compose exactly.
    """
    if ramp_substeps < 64:
        raise ValueError("ramp_substeps must be at least 64")
    if flat_substeps is None:
        flat_substeps = 256 if callable(amplitude_trace) else 1
    edges, shape, ts = _pulse_grid(
        pulse.ramp_time, pulse.flat_time, pulse.t_half_pi, drive.ramp_shape, ramp_substeps, flat_substeps
    )
    if callable(amplitude_trace):
        # cell-average the trace (Gauss-Legendre) so that slowly oscillating
        # multipliers contribute their exact pulse area even on a coarse grid
        trace = np.broadcast_to(amplitude_trace(ts), ts.shape) @ _GL_WEIGHTS
    else:
        trace = 1.0 if amplitude_trace is None else float(amplitude_trace)
    return edges, pulse.amp_scale * shape * trace


def pulse_propagator(
    pulse: PulseSpec,
    drive: DriveParams,
    amplitude_trace: AmplitudeTrace | None = None,
    zeeman: ZeemanModel | None = None,
    t_start: float = 0.0,
    t_end: float | None = None,
    ramp_substeps: int = 64,
    flat_substeps: int | None = None,
    include_gap: bool = True,
) -> UnitaryOp:
    """Propagator of one pulse (plus trailing gap) over [t_start, t_end].

    Times are measured from the start of the pulse.  The underlying
    piecewise-constant Hamiltonian is defined on a fixed grid, so splitting
    the interval and composing the pieces reproduces the whole to machine
    precision.  A callable `amplitude_trace` gets the array of all
    quadrature times of the pulse in one call.  Every cell's exact
    propagator comes from one ``pulse_ab`` call on arrays, and the cells
    are multiplied as a pairwise tree.
    """
    window = pulse.total_time if include_gap else pulse.t_half_pi
    t_end = window if t_end is None else t_end
    if not 0.0 <= t_start <= t_end <= window + 1e-18:
        raise ValueError("evaluation interval must lie inside the pulse window")

    edges, rel_amp = _pulse_cells(pulse, drive, amplitude_trace, ramp_substeps, flat_substeps)
    starts, ends = edges[:-1], edges[1:]
    if include_gap:
        # trailing gap: free evolution at zero amplitude, so no ac Zeeman shift
        starts, ends = np.append(starts, pulse.t_half_pi), np.append(ends, window)
        rel_amp = np.append(rel_amp, 0.0)
    # cells outside [t_start, t_end] get zero length, i.e. the identity
    dt = np.maximum(np.minimum(ends, t_end) - np.maximum(starts, t_start), 0.0)
    vz = -drive.detuning if zeeman is None else zeeman.shift(rel_amp) - drive.detuning
    a, b = pulse_ab(drive.omega_q * rel_amp, vz, dt)
    return UnitaryOp(_ab_product(a, b * np.exp(1j * (pulse.effective_phase + drive.phase))))


def evolve_sequence(
    state: QubitState,
    pulses: Sequence[PulseSpec],
    drive: DriveParams,
    zeeman: ZeemanModel | None = None,
    amplitude_trace: AmplitudeTrace | None = None,
    z_phases: Sequence[float] | np.ndarray | None = None,
    ramp_substeps: int = 64,
    flat_substeps: int | None = None,
) -> QubitState:
    """Evolve `state` through a pulse train (each pulse with its trailing gap).

    A callable `amplitude_trace` is a function of the time since the start
    of the train; each pulse's ``pulse_propagator`` call gets it shifted by
    that pulse's start time and calls it once, on the array of the pulse's
    quadrature times.  ``z_phases[k]`` is the angle of the z rotation
    (``UnitaryOp.rz``) applied after pulse k and its gap.
    """
    starts = np.cumsum([0.0] + [p.total_time for p in pulses[:-1]])
    if z_phases is not None:
        rz = np.exp(0.5j * np.multiply.outer(np.asarray(z_phases, dtype=float), [-1.0, 1.0]))
    psi = state.amplitudes
    for k, pulse in enumerate(pulses):
        trace = amplitude_trace
        if callable(amplitude_trace):
            trace = lambda t, t0=starts[k]: amplitude_trace(t0 + t)
        prop = pulse_propagator(
            pulse, drive, trace, zeeman, ramp_substeps=ramp_substeps, flat_substeps=flat_substeps
        )
        psi = prop.matrix @ psi
        if z_phases is not None:
            psi = rz[k] * psi
    return QubitState(psi)


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

CARDINAL_STATES = tuple(
    QubitState(v)
    for v in (
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, -1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
        np.array([1, -1j], dtype=complex) / np.sqrt(2),
    )
)


def avg_pulse_error(actual: UnitaryOp, ideal: UnitaryOp) -> float:
    """State infidelity averaged over the six cardinal Bloch states."""
    err = actual.matrix.conj().T @ ideal.matrix
    fids = [
        abs(np.vdot(s.amplitudes, err @ s.amplitudes)) ** 2 for s in CARDINAL_STATES
    ]
    return 1.0 - float(np.mean(fids))


# ---------------------------------------------------------------------------
# Spectator transitions (six-level model)
# ---------------------------------------------------------------------------

# basis ordering: |0>, |1>, s0-, s0+, s1-, s1+
_N_LEVELS = 6


def _spectator_hamiltonian(
    omega: float, phi: float, config: SpectatorConfig
) -> np.ndarray:
    h = np.zeros((_N_LEVELS, _N_LEVELS), dtype=complex)
    # qubit drive
    h[0, 1] = 0.5 * omega * np.exp(-1j * phi)
    h[1, 0] = np.conj(h[0, 1])
    # spectator couplings, sharing the drive phase
    omega_s = config.rabi_ratio * omega
    for q, s_minus, s_plus in ((0, 2, 3), (1, 4, 5)):
        for s in (s_minus, s_plus):
            h[q, s] = 0.5 * omega_s * np.exp(-1j * phi)
            h[s, q] = np.conj(h[q, s])
    h[2, 2] = -config.detuning_s
    h[3, 3] = +config.detuning_s
    h[4, 4] = -config.detuning_s
    h[5, 5] = +config.detuning_s
    return h


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.conj().T


def simulate_spectator(
    pulse: PulseSpec,
    drive: DriveParams,
    config: SpectatorConfig,
    state: np.ndarray | None = None,
    ramp_substeps: int = 512,
    flat_substeps: int = 1,
) -> tuple[np.ndarray, float]:
    """Propagate the six-level system through one pulse.

    Returns the final six-component amplitude vector and the population
    that leaked out of the qubit subspace.  The flat top is advanced with a
    single exact exponential; the ramps are discretized (the default of 512
    substeps over a 40 ns ramp keeps the discretization bias well below the
    1e-9 leakage scale being estimated).
    """
    if state is None:
        state = np.zeros(_N_LEVELS, dtype=complex)
        state[0] = 1.0
    state = np.asarray(state, dtype=complex)

    tr, tf = pulse.ramp_time, pulse.flat_time
    phi = pulse.effective_phase + drive.phase

    def step(omega: float, dt: float, vec: np.ndarray) -> np.ndarray:
        return _expm_hermitian(_spectator_hamiltonian(omega, phi, config), dt) @ vec

    if tr > 0:
        dt = tr / ramp_substeps
        mids = (np.arange(ramp_substeps) + 0.5) * dt
        for m in mids:
            omega = drive.omega_q * pulse.amp_scale * float(
                _ramp_profile(drive.ramp_shape, np.array([m / tr]))[0]
            )
            state = step(omega, dt, state)
    if tf > 0:
        dtf = tf / flat_substeps
        for _ in range(flat_substeps):
            state = step(drive.omega_q * pulse.amp_scale, dtf, state)
    if tr > 0:
        dt = tr / ramp_substeps
        mids = (np.arange(ramp_substeps) + 0.5) * dt
        for m in mids:
            omega = drive.omega_q * pulse.amp_scale * float(
                _ramp_profile(drive.ramp_shape, np.array([(tr - m) / tr]))[0]
            )
            state = step(omega, dt, state)
    if pulse.gap_time > 0:
        state = step(0.0, pulse.gap_time, state)

    leak = 1.0 - float(abs(state[0]) ** 2 + abs(state[1]) ** 2)
    return state, max(leak, 0.0)


def spectator_error_per_gate(
    t_half_pi: float,
    ramp_time: float = 40e-9,
    gap_time: float = 40e-9,
    config: SpectatorConfig | None = None,
    pulses_per_clifford: float = MEAN_PULSES_PER_CLIFFORD,
    n_pulses: int = 24,
    seed: int = 20260825,
    ramp_substeps: int = 512,
) -> float:
    """Spectator error bound per Clifford from a short random pulse train.

    Combines the simulated leakage accumulated over ``n_pulses`` random-axis
    pulses with the dressed-population decoherence bound
    ``<P_spectator> * t / (3 * t2_s)``.
    """
    config = config or SpectatorConfig()
    drive = DriveParams.nominal(t_half_pi, ramp_time)
    rng = np.random.default_rng(seed)
    state = np.zeros(_N_LEVELS, dtype=complex)
    state[0] = 1.0
    dressed = (config.rabi_ratio * drive.omega_q / config.detuning_s) ** 2
    leak_total = 0.0
    for _ in range(n_pulses):
        pulse = PulseSpec(
            phase=float(rng.choice([0.0, np.pi / 2])),
            sign=int(rng.choice([-1, 1])),
            t_half_pi=t_half_pi,
            ramp_time=ramp_time,
            gap_time=gap_time,
        )
        state, leak = simulate_spectator(
            pulse, drive, config, state=state, ramp_substeps=ramp_substeps
        )
    leak_total = leak
    leak_per_pulse = leak_total / n_pulses
    deco_per_pulse = dressed * t_half_pi / (3 * config.t2_s)
    return pulses_per_clifford * (leak_per_pulse + deco_per_pulse)


# ---------------------------------------------------------------------------
# Counter-rotating drive term
# ---------------------------------------------------------------------------


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
    physical_omega_q: float = 2 * np.pi * 3.123e9,
    substeps_per_period: int = 64,
    pulses_per_clifford: float = MEAN_PULSES_PER_CLIFFORD,
) -> CounterRotatingResult:
    """Estimate the error contributed by the counter-rotating drive term.

    The term oscillating at twice the qubit frequency is integrated
    explicitly for a rectangular pi/2 pulse at artificially low qubit
    frequencies (>= 10x the Rabi rate), the resulting pulse errors are fit
    to the known quadratic scaling in Omega/omega_q, and the fit is
    extrapolated to the physical frequency.
    """
    omega = drive.omega_q
    duration = (np.pi / 2) / omega
    ideal = UnitaryOp.rotation(0.0, np.pi / 2)

    ratios, errors = [], []
    for factor in omega_q_factors:
        omega_q_scaled = factor * omega
        if omega_q_scaled < 10 * omega:
            raise ValueError("scaled qubit frequency must be at least 10x the Rabi rate")
        period = np.pi / omega_q_scaled  # of the 2*omega_q oscillation
        n_steps = int(np.ceil(duration / period)) * substeps_per_period
        dt = duration / n_steps
        # the Rabi vector omega (1 + e^{i theta}), theta = 2 omega_q t, is a
        # drive of rate 2 omega cos(theta/2) at phase theta/2
        half_theta = omega_q_scaled * (np.arange(n_steps) + 0.5) * dt
        a, b = pulse_ab(2 * omega * np.cos(half_theta), 0.0, dt)
        err = avg_pulse_error(UnitaryOp(_ab_product(a, b * np.exp(1j * half_theta))), ideal)
        ratios.append(omega / omega_q_scaled)
        errors.append(err)

    ratios_arr = np.array(ratios)
    errors_arr = np.array(errors)
    coeff = float(np.sum(errors_arr * ratios_arr**2) / np.sum(ratios_arr**4))
    per_pulse = coeff * (omega / physical_omega_q) ** 2
    return CounterRotatingResult(
        coefficient=coeff,
        per_pulse_error=per_pulse,
        per_gate_error=pulses_per_clifford * per_pulse,
        sampled_ratios=tuple(ratios),
        sampled_errors=tuple(errors),
    )
