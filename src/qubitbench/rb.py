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
* ``full`` — pulses are ramped waveforms integrated piecewise-exactly by
  the pulse simulator, sharing the same noise draws as the fast tier so
  the two can be compared realization by realization.  Each shot is one
  ``pulsesim.evolve_sequence`` call over plain arrays: the amplitude
  multiplier and motional modulation form the amplitude trace, and the
  dephasing kicks (and the idle-phase cancellation) are z rotations after
  each pulse, as in the fast tier.

Benchmarking with a per-pulse idle delay (used to probe slow dephasing and
idle-time error rates) reuses the same machinery with stretched gaps.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import noise as noise_mod
from .cliffords import (
    CliffordGroup,
    GateSequence,
    QubitState,
    apply_ab,
    build_clifford_table,
    pulse_ab,
    pulse_from_label,
    recovery_gate,
)
from .fitting import DecayFit, mle_fit
from .noise import (
    LANE_AMPLITUDE,
    LANE_DEPHASING,
    LANE_MOTIONAL,
    LANE_PLAN,
    LANE_READOUT,
    NoiseConfig,
    rng_stream,
)
from .pulsesim import DriveParams, ZeemanModel, evolve_sequence

__all__ = [
    "RBPlan",
    "RBDataset",
    "RBTiming",
    "generate_plan",
    "geometric_lengths",
    "run_rb",
    "run_idle_rb",
    "irmb_slope",
    "IRMBResult",
]

DATASET_FORMAT = "qubitbench.rb_dataset.v1"

_LABEL_QUARTERS = {"+X90": 0, "+Y90": 1, "-X90": 2, "-Y90": 3}
#: exp(1j * q * pi / 2) for q quarter turns, exactly
_PHASORS = np.array([1, 1j, -1, -1j])
#: pulses whose noise the fast tier evaluates at once (bounds its temporaries)
_STEP_BLOCK = 4


@dataclass(frozen=True)
class RBTiming:
    """Pulse timing shared by every gate in a run.

    ``t_half_pi`` includes both amplitude ramps; ``gap_time`` separates
    consecutive pulses; ``delay_per_pulse`` is an extra programmable idle
    inserted after every pulse (zero for plain benchmarking).
    """

    t_half_pi: float = 6.0e-6
    ramp_time: float = 40e-9
    gap_time: float = 40e-9
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

    def sequence(self, length: int, seq_id: int, group: CliffordGroup | None = None) -> GateSequence:
        group = group or build_clifford_table()
        idx = self.clifford_indices(length, seq_id, group)
        rec = recovery_gate(idx, group=group)
        return GateSequence(
            cliffords=tuple(int(i) for i in idx),
            recovery=int(rec),
            prepared_state=self.prepared_state,
        )


def geometric_lengths(l_min: int = 300, l_max: int = 30000, n: int = 5) -> tuple[int, ...]:
    """Roughly geometric ladder of sequence lengths, deduplicated."""
    if not 1 <= l_min <= l_max or n < 1:
        raise ValueError("need 1 <= l_min <= l_max and n >= 1")
    vals = np.unique(np.rint(np.geomspace(l_min, l_max, n)).astype(int))
    return tuple(int(v) for v in vals)


def generate_plan(
    master_seed: int,
    lengths: Sequence[int] | None = None,
    n_sequences: int = 30,
    shots_per_sequence: int = 100,
    prepared_state: int = 0,
) -> RBPlan:
    lengths = tuple(lengths) if lengths is not None else geometric_lengths()
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

    def fit(self, **kwargs) -> DecayFit:
        return mle_fit(self.lengths, self.successes, self.shots, **kwargs)

    def survival_by_length(self) -> tuple[np.ndarray, np.ndarray]:
        uniq = np.unique(self.lengths)
        frac = np.array(
            [
                self.successes[self.lengths == l].sum() / self.shots[self.lengths == l].sum()
                for l in uniq
            ]
        )
        return uniq, frac

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
    def from_csv(cls, text: str, meta: dict | None = None) -> "RBDataset":
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        return cls(
            lengths=np.array([int(r["length"]) for r in rows]),
            seq_ids=np.array([int(r["seq_id"]) for r in rows]),
            errors=np.array([int(r["errors"]) for r in rows]),
            shots=np.array([int(r["shots"]) for r in rows]),
            meta=meta or {},
        )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _phase_table(group: CliffordGroup) -> list[np.ndarray]:
    """Drive phase of each pulse in each group element's word, in quarter turns."""
    return [
        np.array([_LABEL_QUARTERS[label] for label in el.pulses], dtype=np.int8)
        for el in group.elements
    ]


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


def _kick_std(noise: NoiseConfig, timing: RBTiming) -> float:
    """Std dev of the dephasing kick drawn after every pulse (0 without dephasing)."""
    if not noise.dephasing_t2:
        return 0.0
    return float(noise_mod.brownian_phase_std(timing.pulse_spacing, noise.dephasing_t2))


def _coherent_survival_fast(
    plan: RBPlan,
    length: int,
    group: CliffordGroup,
    phase_table: list[np.ndarray],
    noise: NoiseConfig,
    timing: RBTiming,
    compensate_idle_phase: bool,
    zeeman: ZeemanModel | None = None,
) -> np.ndarray:
    """Survival probability of each (sequence, shot) before readout effects.

    Rows are sorted by pulse count, longest first, so the sequences still
    playing at pulse k are the leading ``n_active[k]`` rows.  The dephasing
    stream yields one ``(n_seq, n_shot)`` draw per pulse, finished rows included.
    """
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    words = [
        np.concatenate([phase_table[i] for i in plan.sequence(length, s, group).all_indices()])
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
    mult = mult[order]
    omega0 = (np.pi / 2) / timing.t_half_pi * mult
    delta = noise.detuning_offset
    # drive-induced shift scales with the played power
    vz = -delta + (zeeman.shift(mult) if zeeman is not None else np.zeros_like(mult))
    motional = noise.motional
    if motional is not None:
        # mean_area_factor(depth, phi0 + omega_m t, T) == 1 + depth Im(e^{i phi0} s)
        e_phase0 = np.exp(1j * mot_phase0[order])
    kick_std = _kick_std(noise, timing)
    idle_phase = delta * (timing.gap_time + timing.delay_per_pulse) if not compensate_idle_phase else 0.0

    alpha = np.full((n_seq, n_shot), 1.0 + 0.0j if plan.prepared_state == 0 else 0.0j)
    beta = np.full((n_seq, n_shot), 1.0 + 0.0j if plan.prepared_state == 1 else 0.0j)
    for k0 in range(0, p_max, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, p_max)
        rows = n_active[k0]
        omega = omega0[:rows]
        if motional is not None:
            t_k = timing.pulse_spacing * np.arange(k0, k1)
            u = motional.depth_at(t_k) * motional.area_phasor(t_k, timing.t_half_pi)
            omega = omega * (1.0 + (e_phase0[:rows] * u[:, None, None]).imag)
        a, b = pulse_ab(omega, vz[:rows], timing.t_half_pi)
        if kick_std or idle_phase:
            theta = -idle_phase
            if kick_std:
                kicks = deph_rng.standard_normal((k1 - k0, n_seq, n_shot))
                theta = kick_std * kicks[:, order[:rows]] - idle_phase
            # the z rotation after each pulse folds into its (a, b)
            rot = np.exp(-0.5j * theta)
            a, b = rot * a, np.conj(rot) * b
        b = b * _PHASORS[quarters[:rows, k0:k1].T][:, :, None]
        a = np.broadcast_to(a, b.shape)
        for j, k in enumerate(range(k0, k1)):
            n = n_active[k]
            apply_ab(a[j, :n], b[j, :n], alpha[:n], beta[:n])

    survival = np.empty((n_seq, n_shot))
    survival[order] = np.abs(alpha if plan.prepared_state == 0 else beta) ** 2
    return survival


def _coherent_survival_full(
    plan: RBPlan,
    length: int,
    group: CliffordGroup,
    noise: NoiseConfig,
    timing: RBTiming,
    compensate_idle_phase: bool,
    zeeman: ZeemanModel | None,
    ramp_substeps: int,
) -> np.ndarray:
    """Pulse-level (ramped-waveform) version of the survival computation.

    Shares the quasi-static noise draws with the fast tier so that the two
    tiers can be compared on identical noise realizations.
    """
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    mult, mot_phase0, deph_rng = _draw_shot_noise(plan, length, noise)
    motional = noise.motional
    drive = DriveParams.nominal(timing.t_half_pi, timing.ramp_time, detuning=noise.detuning_offset)
    base_gap = timing.gap_time + timing.delay_per_pulse
    specs = {
        label: pulse_from_label(
            label, t_half_pi=timing.t_half_pi, ramp_time=timing.ramp_time, gap_time=base_gap
        )
        for label in _LABEL_QUARTERS
    }
    seq_pulses = [
        [specs[lab] for i in plan.sequence(length, s, group).all_indices() for lab in group.elements[i].pulses]
        for s in range(n_seq)
    ]
    p_max = max(len(pulses) for pulses in seq_pulses)
    # the z rotation after each pulse: the cancellation of the phase the
    # detuning accrues during the programmed idle, plus the dephasing kick,
    # drawn pulse-index-major as in the fast tier
    idle_phase = drive.detuning * base_gap if compensate_idle_phase else 0.0
    z_phases = np.full((p_max, n_seq, n_shot), idle_phase)
    kick_std = _kick_std(noise, timing)
    if kick_std:
        z_phases += kick_std * deph_rng.standard_normal((p_max, n_seq, n_shot))

    survival = np.zeros((n_seq, n_shot))
    for s, pulses in enumerate(seq_pulses):
        for q in range(n_shot):
            m = mult[s, q]
            if motional is None:
                trace = m
            else:
                phi0 = mot_phase0[s, q]

                def trace(t):
                    return m * (1.0 + motional.depth_at(t) * np.cos(motional.omega_m * t + phi0))

            state = evolve_sequence(
                QubitState.basis(plan.prepared_state),
                pulses,
                drive,
                zeeman=zeeman,
                amplitude_trace=trace,
                z_phases=z_phases[: len(pulses), s, q],
                ramp_substeps=ramp_substeps,
            )
            survival[s, q] = state.probability(plan.prepared_state)
    return survival


def run_rb(
    plan: RBPlan,
    noise: NoiseConfig | None = None,
    timing: RBTiming | None = None,
    tier: str = "fast",
    group: CliffordGroup | None = None,
    compensate_idle_phase: bool = True,
    zeeman: ZeemanModel | None = None,
    ramp_substeps: int = 64,
    meta: dict | None = None,
) -> RBDataset:
    """Execute a benchmarking plan and return per-sequence error counts.

    ``compensate_idle_phase`` mimics tracking of the qubit phase during
    programmed idle periods: when True, a static detuning offset acts only
    while pulses are playing.
    """
    noise = noise or NoiseConfig()
    timing = timing or RBTiming()
    group = group or build_clifford_table()
    if tier not in ("fast", "full"):
        raise ValueError("tier must be 'fast' or 'full'")
    phase_table = _phase_table(group)

    rec_lengths, rec_seq, rec_err, rec_shots = [], [], [], []
    for length in plan.lengths:
        n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
        if _has_coherent_noise(noise) or tier == "full" or zeeman is not None:
            if tier == "fast":
                survival = _coherent_survival_fast(
                    plan, length, group, phase_table, noise, timing, compensate_idle_phase, zeeman
                )
            else:
                survival = _coherent_survival_full(
                    plan,
                    length,
                    group,
                    noise,
                    timing,
                    compensate_idle_phase,
                    zeeman,
                    ramp_substeps,
                )
        else:
            survival = np.ones((n_seq, n_shot))

        read_rng = rng_stream(plan.master_seed, LANE_READOUT, length)
        n_gates = length + 1  # recovery counts as a gate for error channels
        if noise.depolarizing_per_gate:
            n_events = read_rng.binomial(n_gates, noise.depolarizing_per_gate, (n_seq, n_shot))
            survival = np.where(n_events > 0, 0.5, survival)
        success = read_rng.random((n_seq, n_shot)) < survival
        if noise.idle is not None and timing.delay_per_pulse > 0:
            # outcome-level reduction of idle-time errors: the per-gate flip
            # probability is the state-twirled average of the idle rates
            mean_pulses = group.mean_pulses_per_clifford
            t_idle_total = n_gates * mean_pulses * timing.delay_per_pulse
            p_flip = noise.idle.probability(noise.idle.rb_error_rate_per_s(), t_idle_total)
            success ^= read_rng.random((n_seq, n_shot)) < p_flip
        if noise.spam:
            success ^= read_rng.random((n_seq, n_shot)) < noise.spam

        errors = (~success).sum(axis=1)
        rec_lengths.extend([length] * n_seq)
        rec_seq.extend(range(n_seq))
        rec_err.extend(int(e) for e in errors)
        rec_shots.extend([n_shot] * n_seq)

    base_meta = {
        "master_seed": plan.master_seed,
        "tier": tier,
        "prepared_state": plan.prepared_state,
        "n_sequences": plan.n_sequences,
        "shots_per_sequence": plan.shots_per_sequence,
        "t_half_pi": timing.t_half_pi,
        "gap_time": timing.gap_time,
        "delay_per_pulse": timing.delay_per_pulse,
    }
    if meta:
        base_meta.update(meta)
    return RBDataset(
        lengths=np.array(rec_lengths),
        seq_ids=np.array(rec_seq),
        errors=np.array(rec_err),
        shots=np.array(rec_shots),
        meta=base_meta,
    )


def run_idle_rb(
    plan: RBPlan,
    delay_per_pulse: float,
    noise: NoiseConfig | None = None,
    timing: RBTiming | None = None,
    **kwargs,
) -> RBDataset:
    """Benchmarking with a programmable idle delay after every pulse."""
    timing = timing or RBTiming()
    timing = replace(timing, delay_per_pulse=delay_per_pulse)
    return run_rb(plan, noise=noise, timing=timing, **kwargs)


@dataclass(frozen=True)
class IRMBResult:
    """Linear dependence of the benchmarking error on the per-pulse delay."""

    delays: tuple[float, ...]
    epsilons: tuple[float, ...]
    slope_per_s: float
    slope_stderr: float
    intercept: float

    def as_dict(self) -> dict:
        return {
            "delays": list(self.delays),
            "epsilons": list(self.epsilons),
            "slope_per_s": self.slope_per_s,
            "slope_stderr": self.slope_stderr,
            "intercept": self.intercept,
        }


def irmb_slope(delays: Sequence[float], epsilons: Sequence[float], sigmas: Sequence[float] | None = None) -> IRMBResult:
    """Weighted linear fit of per-element error versus per-pulse delay."""
    delays = np.asarray(delays, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
    if len(delays) < 2:
        raise ValueError("need at least two delays")
    w = np.ones_like(delays) if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float) ** 2
    sw = w.sum()
    xm = (w * delays).sum() / sw
    ym = (w * eps).sum() / sw
    sxx = (w * (delays - xm) ** 2).sum()
    slope = (w * (delays - xm) * (eps - ym)).sum() / sxx
    intercept = ym - slope * xm
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
