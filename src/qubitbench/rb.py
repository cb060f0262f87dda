"""Randomized benchmarking over the single-qubit Clifford group.

A plan fixes the random Clifford sequences (drawn from deterministic,
lane-separated RNG streams); the engine then replays them through one of
two physics tiers:

* ``fast`` — each pulse is a rectangle of duration ``t_half_pi`` whose
  exact propagator, in Cayley-Klein ``(a, b)`` form, is applied to every
  sequence and shot of a given length at once.  Amplitude noise is
  quasi-static per shot, residual harmonic motion scales each pulse area
  by the exact average of its sinusoidal modulation, slow dephasing
  enters as Gaussian phase kicks between pulses, and
  depolarizing/idle/readout errors act on outcomes.
* ``full`` — ramped waveforms integrated piecewise-exactly by
  ``pulsesim.pulse_propagator``, batched over sequences and shots: one call
  per length without motional noise (every pulse of a shot is then the
  same), one per block of ``_STEP_BLOCK`` pulses with it.

Both tiers replay the plan through one loop: it sorts the sequences by
pulse count, draws the noise and folds the dephasing kicks, idle phase and
drive phase into each pulse, so a tier supplies only the propagators at
drive phase 0 and both tiers see identical noise realizations.

The fast tier takes the small per-pulse angles (dephasing half-kick, motional
correction to the pulse half-angle) through degree-6/7 Taylor polynomials in
real arithmetic, and a block of pulses with any angle at or above
``_SMALL_ANGLE`` through ``np.cos``/``np.sin``.  A detuning or a drive-induced
shift keeps ``pulse_ab``.

Each length draws only from its own RNG lanes, so ``run_rb`` may compute
them in any split.  On Linux (``os.sched_getaffinity``) it deals them, longest
first by estimated pulse-shots, over min(usable CPUs, lengths) bins; each bin
other than the longest length's that reaches ``_FORK_PULSE_SHOTS`` runs in an
``os.fork``ed worker, which pickles its arrays back over a pipe.  Threads
would not help: the engine holds the interpreter lock.

Benchmarking with a per-pulse idle delay (used to probe slow dephasing and
idle-time error rates) reuses the same machinery with stretched gaps.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import noise as noise_mod
from . import pulsesim
from .cliffords import (
    GENERATOR_QUARTERS,
    CliffordGroup,
    apply_ab,
    build_clifford_table,
    pulse_ab,
    pulse_from_label,
    recovery_gate,
)
from .fitting import DecayFit, mle_fit, weighted_line
from .noise import (
    LANE_AMPLITUDE,
    LANE_DEPHASING,
    LANE_MOTIONAL,
    LANE_PLAN,
    LANE_READOUT,
    NoiseConfig,
    rng_stream,
)
from .presets import GAP_TIME, MEAN_PULSES_PER_CLIFFORD, RAMP_TIME, RB_LENGTHS, T_HALF_PI
from .pulsesim import DriveParams, ZeemanModel

__all__ = [
    "RBPlan",
    "RBDataset",
    "RBTiming",
    "generate_plan",
    "run_rb",
    "irmb_slope",
    "IRMBResult",
]

DATASET_FORMAT = "qubitbench.rb_dataset.v1"

#: exp(1j * q * pi / 2) for q quarter turns, exactly
_PHASORS = np.array([1, 1j, -1, -1j])
#: pulses whose noise the replay evaluates at once (bounds its temporaries)
_STEP_BLOCK = 4
#: below this |angle| ``_cos_sin`` uses degree-6/7 polynomials (error < 3e-21)
_SMALL_ANGLE = 1e-2
#: estimated pulse-shots a bin of lengths needs to run in a forked worker:
#: about 60 ms of engine, against a few ms to fork and read the arrays back
_FORK_PULSE_SHOTS = 1_000_000


@dataclass(frozen=True)
class RBTiming:
    """Pulse timing shared by every gate in a run.

    ``t_half_pi`` includes both amplitude ramps; ``gap_time`` separates
    consecutive pulses; ``delay_per_pulse`` is an extra programmable idle
    inserted after every pulse (zero for plain benchmarking).
    """

    t_half_pi: float = T_HALF_PI
    ramp_time: float = RAMP_TIME
    gap_time: float = GAP_TIME
    delay_per_pulse: float = 0.0

    def __post_init__(self):
        if self.t_half_pi <= 2 * self.ramp_time:
            raise ValueError("t_half_pi must exceed both ramps")
        if self.gap_time < 0 or self.delay_per_pulse < 0:
            raise ValueError("gap_time and delay_per_pulse must be non-negative")

    @property
    def pulse_spacing(self) -> float:
        return self.t_half_pi + self.gap_time + self.delay_per_pulse


@dataclass(frozen=True)
class RBPlan:
    """Deterministic description of a benchmarking run.

    Sequences are not stored; they are regenerated on demand from the
    plan's seed, so a plan object is cheap no matter how long the
    sequences are.
    """

    master_seed: int
    lengths: tuple[int, ...]
    n_sequences: int = 30
    shots_per_sequence: int = 100
    prepared_state: int = 0

    def __post_init__(self):
        if len(self.lengths) == 0 or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("lengths must be unique")
        if self.n_sequences < 1 or self.shots_per_sequence < 1:
            raise ValueError("need at least one sequence and one shot")
        if self.prepared_state not in (0, 1):
            raise ValueError("prepared_state must be 0 or 1")

    def clifford_indices(self, length: int, seq_id: int, group: CliffordGroup) -> np.ndarray:
        """Random group-element indices for one sequence (recovery excluded)."""
        if length not in self.lengths:
            raise ValueError(f"length {length} is not part of this plan")
        if not 0 <= seq_id < self.n_sequences:
            raise ValueError(f"seq_id {seq_id} out of range")
        rng = rng_stream(self.master_seed, LANE_PLAN, length, seq_id)
        return rng.integers(0, len(group.elements), size=length)

    def sequence(self, length: int, seq_id: int, group: CliffordGroup | None = None) -> np.ndarray:
        """Group-element indices of one sequence, the recovery element last."""
        group = group or build_clifford_table()
        idx = self.clifford_indices(length, seq_id, group)
        return np.append(idx, recovery_gate(idx, group=group))


def generate_plan(
    master_seed: int,
    lengths: Sequence[int] = RB_LENGTHS,
    n_sequences: int = 30,
    shots_per_sequence: int = 100,
    prepared_state: int = 0,
) -> RBPlan:
    return RBPlan(
        master_seed=master_seed,
        lengths=tuple(sorted(lengths)),
        n_sequences=n_sequences,
        shots_per_sequence=shots_per_sequence,
        prepared_state=prepared_state,
    )


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


@dataclass
class RBDataset:
    """Error counts per (length, sequence), plus run metadata."""

    lengths: np.ndarray
    seq_ids: np.ndarray
    errors: np.ndarray
    shots: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=int)
        self.seq_ids = np.asarray(self.seq_ids, dtype=int)
        self.errors = np.asarray(self.errors, dtype=int)
        self.shots = np.asarray(self.shots, dtype=int)
        n = len(self.lengths)
        if not (len(self.seq_ids) == len(self.errors) == len(self.shots) == n):
            raise ValueError("all record columns must have equal length")
        if np.any(self.errors < 0) or np.any(self.errors > self.shots):
            raise ValueError("need 0 <= errors <= shots")

    @property
    def successes(self) -> np.ndarray:
        return self.shots - self.errors

    def fit(self) -> DecayFit:
        return mle_fit(self.lengths, self.successes, self.shots)

    def to_json(self) -> str:
        records = [
            {
                "length": int(l),
                "seq_id": int(s),
                "errors": int(e),
                "shots": int(n),
            }
            for l, s, e, n in zip(self.lengths, self.seq_ids, self.errors, self.shots)
        ]
        doc = {"format": DATASET_FORMAT, "meta": self.meta, "records": records}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RBDataset":
        doc = json.loads(text)
        if doc.get("format") != DATASET_FORMAT:
            raise ValueError(f"unrecognized dataset format: {doc.get('format')!r}")
        recs = doc["records"]
        return cls(
            lengths=np.array([r["length"] for r in recs], dtype=int),
            seq_ids=np.array([r["seq_id"] for r in recs], dtype=int),
            errors=np.array([r["errors"] for r in recs], dtype=int),
            shots=np.array([r["shots"] for r in recs], dtype=int),
            meta=doc.get("meta", {}),
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["length", "seq_id", "errors", "shots"])
        for l, s, e, n in zip(self.lengths, self.seq_ids, self.errors, self.shots):
            writer.writerow([int(l), int(s), int(e), int(n)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RBDataset":
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        return cls(
            lengths=np.array([int(r["length"]) for r in rows]),
            seq_ids=np.array([int(r["seq_id"]) for r in rows]),
            errors=np.array([int(r["errors"]) for r in rows]),
            shots=np.array([int(r["shots"]) for r in rows]),
        )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _phase_table(group: CliffordGroup) -> list[np.ndarray]:
    """Drive phase of each pulse in each group element's word, in quarter turns."""
    return [
        np.array([GENERATOR_QUARTERS[label] for label in el.pulses], dtype=np.int8)
        for el in group.elements
    ]


def _cos_sin(x):
    """``(cos x, sin x)`` of an array: Taylor polynomials evaluated in place when
    every ``|x|`` is below ``_SMALL_ANGLE``, else exactly ``np.cos``/``np.sin``."""
    if np.ndim(x) == 0 or not np.max(np.abs(x)) < _SMALL_ANGLE:
        return np.cos(x), np.sin(x)
    # Horner's rule in x^2: c = 1 - x^2/2! + x^4/4! - x^6/6!, s = x - x^3/3! + ... - x^7/7!
    x2 = x * x
    c, s = x2 * (-1 / 720), x2 * (-1 / 5040)
    for p, coefs in ((c, (1 / 24, -1 / 2)), (s, (1 / 120, -1 / 6))):
        for k in coefs:
            p += k
            p *= x2
    c += 1.0
    s *= x
    s += x
    return c, s


def _z_fold(a, b, c, s):
    """``(e^{it} a, e^{-it} b)`` for ``c, s = cos t, sin t``: the pulse ``(a, b)``
    then a z rotation by ``-2t``.  Real ``a``, ``b`` stand for the pulse
    ``(a, 1j * b)`` about x and fold in real arithmetic."""
    if np.iscomplexobj(b):
        rot = c + 1j * s
        return rot * a, np.conj(rot) * b
    shape = np.broadcast_shapes(np.shape(c), a.shape)
    fa, fb = np.empty(shape, complex), np.empty(shape, complex)
    for x, y, out in ((c, a, fa.real), (s, a, fa.imag), (s, b, fb.real), (c, b, fb.imag)):
        np.multiply(x, y, out=out)
    return fa, fb


def _has_coherent_noise(noise: NoiseConfig) -> bool:
    return (
        noise.amplitude is not None
        or noise.motional is not None
        or noise.dephasing_t2 is not None
        or noise.detuning_offset != 0.0
    )


def _draw_shot_noise(plan: RBPlan, length: int, noise: NoiseConfig):
    """Per-shot amplitude multipliers and motional phases, and the dephasing-kick
    generator, each from its own lane; ``None`` for an absent noise source."""
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    seed = plan.master_seed
    if noise.amplitude is not None:
        amp_rng = rng_stream(seed, LANE_AMPLITUDE, length)
        mult = noise.amplitude.sample_multipliers(amp_rng, n_seq * n_shot).reshape(n_seq, n_shot)
    else:
        mult = np.ones((n_seq, n_shot))
    mot_phase0 = None
    if noise.motional is not None:
        mot_rng = rng_stream(seed, LANE_MOTIONAL, length)
        mot_phase0 = mot_rng.uniform(0.0, 2 * np.pi, (n_seq, n_shot))
    deph_rng = rng_stream(seed, LANE_DEPHASING, length) if noise.dephasing_t2 else None
    return mult, mot_phase0, deph_rng


def _replay(
    plan: RBPlan,
    length: int,
    group: CliffordGroup,
    noise: NoiseConfig,
    timing: RBTiming,
    z_offset: float,
    tier_ab: Callable,
) -> np.ndarray:
    """Survival probability of each (sequence, shot) before readout effects.

    Rows are sorted by pulse count, longest first, so the sequences still
    playing at pulse k are the leading ``n_active[k]`` rows.  ``tier_ab(mult,
    phase0, n_active)`` gets the rows' amplitude multipliers and motional phases
    and returns ``ab(k0, k1)``: the (a, b) at drive phase 0 of pulses
    ``k0:k1``, shape ``(k1 - k0, n_active[k0], n_shot)`` (a row's pairs past
    its last pulse are ignored); real arrays ``(c, s)`` stand for the pulse
    ``(c, 1j * s)`` about x.  Each pulse is followed by a z rotation by
    ``z_offset`` plus a dephasing kick, one draw per pulse for every row.
    The survival is read as a share of ``|alpha|^2 + |beta|^2``, so the
    rounding of each pulse's norm does not build up over a long sequence.
    """
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    phase_table = _phase_table(group)
    words = [
        np.concatenate([phase_table[i] for i in plan.sequence(length, s, group)])
        for s in range(n_seq)
    ]
    n_pulses = np.array([len(w) for w in words])
    order = np.argsort(-n_pulses, kind="stable")
    p_max = int(n_pulses[order[0]])
    quarters = np.zeros((n_seq, p_max), dtype=np.int8)
    for row, s in enumerate(order):
        quarters[row, : n_pulses[s]] = words[s]
    n_active = np.searchsorted(-n_pulses[order], -np.arange(p_max))

    mult, mot_phase0, deph_rng = _draw_shot_noise(plan, length, noise)
    ab = tier_ab(mult[order], None if mot_phase0 is None else mot_phase0[order], n_active)
    kick_std = 0.0
    if noise.dephasing_t2:
        kick_std = float(noise_mod.brownian_phase_std(timing.pulse_spacing, noise.dephasing_t2))

    alpha = np.full((n_seq, n_shot), 1.0 + 0.0j if plan.prepared_state == 0 else 0.0j)
    beta = np.full((n_seq, n_shot), 1.0 + 0.0j if plan.prepared_state == 1 else 0.0j)
    for k0 in range(0, p_max, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, p_max)
        rows = n_active[k0]
        # the z rotation after each pulse folds into its (a, b); at default
        # noise every half-angle is far below _SMALL_ANGLE
        half = -0.5 * z_offset
        if kick_std:
            kicks = deph_rng.standard_normal((k1 - k0, n_seq, n_shot))
            half = (-0.5 * kick_std) * kicks[:, order[:rows]] + half
        a, b = _z_fold(*ab(k0, k1), *_cos_sin(half))
        b = b * _PHASORS[quarters[:rows, k0:k1].T][:, :, None]
        a = np.broadcast_to(a, b.shape)
        for j, k in enumerate(range(k0, k1)):
            n = n_active[k]
            apply_ab(a[j, :n], b[j, :n], alpha[:n], beta[:n])

    pop_a, pop_b = np.abs(alpha) ** 2, np.abs(beta) ** 2
    survival = np.empty((n_seq, n_shot))
    survival[order] = (pop_a if plan.prepared_state == 0 else pop_b) / (pop_a + pop_b)
    return survival


def _coherent_survival_fast(
    plan: RBPlan,
    length: int,
    group: CliffordGroup,
    noise: NoiseConfig,
    timing: RBTiming,
    zeeman: ZeemanModel | None = None,
) -> np.ndarray:
    """Survival of each (sequence, shot), every pulse an exact rectangle."""
    delta, motional = noise.detuning_offset, noise.motional

    def tier_ab(mult, phase0, n_active):
        omega0 = (np.pi / 2) / timing.t_half_pi * mult
        # drive-induced shift scales with the played power
        vz = -delta + (zeeman.shift(mult) if zeeman is not None else np.zeros_like(mult))
        detuned = np.any(vz)
        # without vz a pulse is the real pair (cos h, -sin h), h = h0 + d_k by angle
        # addition: h0 is rounded as in pulse_ab and d_k = h0 Im(e^{i phi0} u_k) is
        # small, since 1 + Im(e^{i phi0} u_k) = mean_area_factor(depth, phi0 + omega_m t_k, T)
        h0 = 0.5 * omega0 * timing.t_half_pi
        c0, s0 = np.cos(h0), -np.sin(h0)
        if motional is not None:
            e_phase0 = np.exp(1j * phase0)
            d_im, d_re = h0 * e_phase0.real, h0 * e_phase0.imag  # weights of Im u_k, Re u_k
            t_k = timing.pulse_spacing * np.arange(len(n_active))
            u_all = (motional.depth_at(t_k) * motional.area_phasor(t_k, timing.t_half_pi))[:, None, None]

        def ab(k0, k1):
            rows = n_active[k0]
            if motional is None:
                return pulse_ab(omega0[:rows], vz[:rows], timing.t_half_pi) if detuned else (c0[:rows], s0[:rows])
            u = u_all[k0:k1]
            if detuned:
                return pulse_ab(omega0[:rows] * (1.0 + (e_phase0[:rows] * u).imag), vz[:rows], timing.t_half_pi)
            cos_d, sin_d = _cos_sin(d_im[:rows] * u.imag + d_re[:rows] * u.real)
            c, s = c0[:rows], s0[:rows]
            s_h = s * cos_d
            s_h -= c * sin_d
            cos_d *= c
            sin_d *= s
            cos_d += sin_d
            return cos_d, s_h

        return ab

    # the rectangle has no gap, and the idle phase is tracked: no z offset
    return _replay(plan, length, group, noise, timing, 0.0, tier_ab)


def _coherent_survival_full(
    plan: RBPlan,
    length: int,
    group: CliffordGroup,
    noise: NoiseConfig,
    timing: RBTiming,
    zeeman: ZeemanModel | None = None,
) -> np.ndarray:
    """Pulse-level (ramped-waveform) version of the survival computation.

    Shares the noise draws and the replay with the fast tier so that the two
    tiers can be compared on identical noise realizations.  The propagators
    are ``pulse_propagator`` calls on the ``+X90`` pulse, batched over rows
    and shots: without motion every pulse of a shot is the same, one call
    per length; with motion, one call per block of ``_STEP_BLOCK`` pulses,
    each pulse's modulation read from its start in train time.
    """
    motional = noise.motional
    drive = DriveParams.nominal(timing.t_half_pi, timing.ramp_time, detuning=noise.detuning_offset)
    base_gap = timing.gap_time + timing.delay_per_pulse
    spec = pulse_from_label(
        "+X90", t_half_pi=timing.t_half_pi, ramp_time=timing.ramp_time, gap_time=base_gap
    )

    def propagate(trace):
        u = pulsesim.pulse_propagator(spec, drive, trace, zeeman)
        return u[0, 0], u[1, 0]

    def tier_ab(mult, phase0, n_active):
        if motional is None:
            a, b = propagate(mult)
            return lambda k0, k1: (a[: n_active[k0]], b[: n_active[k0]])

        def ab(k0, k1):
            rows = n_active[k0]
            m, phi0 = mult[:rows, :, None, None], phase0[:rows, :, None, None]
            t0 = (timing.pulse_spacing * np.arange(k0, k1))[:, None, None, None, None]

            def trace(t):
                t = t0 + t
                return m * (1.0 + motional.depth_at(t) * np.cos(motional.omega_m * t + phi0))

            return propagate(trace)

        return ab

    # cancel the phase the detuning accrues during the gap and the idle delay
    return _replay(plan, length, group, noise, timing, drive.detuning * base_gap, tier_ab)


def _survivals(plan: RBPlan, engine: Callable, group: CliffordGroup, noise: NoiseConfig, timing: RBTiming) -> list:
    """``engine``'s survival array of each length, in plan order, split over
    forked workers as the module docstring says.  A worker's exception is
    raised here; every worker is reaped before this returns or raises, and
    killed first if it raises."""
    lengths = plan.lengths
    n_bins = min(len(os.sched_getaffinity(0)), len(lengths)) if hasattr(os, "sched_getaffinity") else 1
    bins, loads = [[] for _ in range(n_bins)], [0.0] * n_bins
    per_clifford = MEAN_PULSES_PER_CLIFFORD * plan.n_sequences * plan.shots_per_sequence
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        j = loads.index(min(loads))  # the longest length goes to bin 0
        bins[j].append(i)
        loads[j] += (lengths[i] + 1) * per_clifford
    forked = [b for b, load in zip(bins[1:], loads[1:]) if load >= _FORK_PULSE_SHOTS]
    here = [i for b in bins if b not in forked for i in b]

    def run(indices):
        return {i: engine(plan, lengths[i], group, noise, timing) for i in indices}

    workers = []  # (pid, read end of its pipe)
    try:
        for indices in forked:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's frames
                try:
                    try:
                        payload = pickle.dumps((True, run(indices)))
                    except BaseException as exc:
                        payload = pickle.dumps((False, exc))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_fd)
            workers.append((pid, os.fdopen(read_fd, "rb")))
        out = run(here)
        for pid, pipe in workers:
            payload = pipe.read()
            if not payload:
                raise RuntimeError(f"survival worker {pid} ended without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            out.update(value)
    except BaseException:
        import signal

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return [out[i] for i in range(len(lengths))]


def run_rb(
    plan: RBPlan,
    noise: NoiseConfig | None = None,
    timing: RBTiming | None = None,
    tier: str = "fast",
    group: CliffordGroup | None = None,
) -> RBDataset:
    """Execute a benchmarking plan and return per-sequence error counts.

    The qubit phase is tracked through the gaps and programmed idle delays,
    so a static detuning offset acts only while pulses are playing.

    All survival arrays are computed before the readout.  On Linux, lengths
    beyond the longest run in forked workers, one per further usable CPU,
    where a worker's share reaches ``_FORK_PULSE_SHOTS`` estimated
    pulse-shots (``taskset -c 0`` gives a one-process run); the dataset is
    the same byte for byte.
    """
    noise = noise or NoiseConfig()
    timing = timing or RBTiming()
    group = group or build_clifford_table()
    if tier not in ("fast", "full"):
        raise ValueError("tier must be 'fast' or 'full'")

    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    if _has_coherent_noise(noise) or tier == "full":
        engine = _coherent_survival_fast if tier == "fast" else _coherent_survival_full
        survivals = _survivals(plan, engine, group, noise, timing)
    else:
        survivals = [np.ones((n_seq, n_shot))] * len(plan.lengths)

    rec_lengths, rec_seq, rec_err, rec_shots = [], [], [], []
    for length, survival in zip(plan.lengths, survivals):
        read_rng = rng_stream(plan.master_seed, LANE_READOUT, length)
        n_gates = length + 1  # recovery counts as a gate for error channels
        if noise.depolarizing_per_gate:
            n_events = read_rng.binomial(n_gates, noise.depolarizing_per_gate, (n_seq, n_shot))
            survival = np.where(n_events > 0, 0.5, survival)
        success = read_rng.random((n_seq, n_shot)) < survival
        if noise.idle is not None and timing.delay_per_pulse > 0:
            # outcome-level reduction of idle-time errors: the per-gate flip
            # probability is the state-twirled average of the idle rates
            t_idle_total = n_gates * MEAN_PULSES_PER_CLIFFORD * timing.delay_per_pulse
            p_flip = noise.idle.probability(noise.idle.rb_error_rate_per_s(), t_idle_total)
            success ^= read_rng.random((n_seq, n_shot)) < p_flip
        if noise.spam:
            success ^= read_rng.random((n_seq, n_shot)) < noise.spam

        errors = (~success).sum(axis=1)
        rec_lengths.extend([length] * n_seq)
        rec_seq.extend(range(n_seq))
        rec_err.extend(int(e) for e in errors)
        rec_shots.extend([n_shot] * n_seq)

    meta = {
        "master_seed": plan.master_seed,
        "tier": tier,
        "prepared_state": plan.prepared_state,
        "n_sequences": plan.n_sequences,
        "shots_per_sequence": plan.shots_per_sequence,
        "t_half_pi": timing.t_half_pi,
        "gap_time": timing.gap_time,
        "delay_per_pulse": timing.delay_per_pulse,
    }
    return RBDataset(
        lengths=np.array(rec_lengths),
        seq_ids=np.array(rec_seq),
        errors=np.array(rec_err),
        shots=np.array(rec_shots),
        meta=meta,
    )


@dataclass(frozen=True)
class IRMBResult:
    """Linear dependence of the benchmarking error on the per-pulse delay."""

    delays: tuple[float, ...]
    epsilons: tuple[float, ...]
    slope_per_s: float
    slope_stderr: float
    intercept: float


def irmb_slope(delays: Sequence[float], epsilons: Sequence[float], sigmas: Sequence[float] | None = None) -> IRMBResult:
    """Weighted linear fit of per-element error versus per-pulse delay.

    The slope error is scaled by the residual scatter; fewer than two
    distinct delays raise ``ValueError``.
    """
    delays = np.asarray(delays, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
    w = np.ones_like(delays) if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float) ** 2
    slope, intercept, sxx = weighted_line(delays, eps, w)
    resid = eps - (intercept + slope * delays)
    dof = max(len(delays) - 2, 1)
    var = (w * resid**2).sum() / dof / sxx
    return IRMBResult(
        delays=tuple(float(d) for d in delays),
        epsilons=tuple(float(e) for e in eps),
        slope_per_s=float(slope),
        slope_stderr=float(np.sqrt(var)),
        intercept=float(intercept),
    )
