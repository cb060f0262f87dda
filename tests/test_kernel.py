"""Property tests for the shared SU(2) pulse kernel and the code built on it.

Each kernel is checked against a plain reference: the Cayley-Klein pulse
against the matrix exponential, the tree recovery against the sequential
fold, the motional area phasor against ``mean_area_factor``, the
vectorized pulse propagator against a cell-by-cell product of matrix
exponentials, the small-angle cos/sin against numpy's, and the
prefix-sorted fast engine against a masked engine that steps every sequence
with explicit 2x2 matrices, both with strong noise (exact cos/sin) and at
the preset strengths (small-angle polynomials).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qubitbench.cliffords import (
    PulseSpec,
    apply_ab,
    build_clifford_table,
    pulse_ab,
    recovery_gate,
)
from qubitbench.noise import (
    LANE_AMPLITUDE,
    LANE_DEPHASING,
    LANE_MOTIONAL,
    AmplitudeNoiseModel,
    MotionalMode,
    NoiseConfig,
    brownian_phase_std,
    rng_stream,
)
from qubitbench.pulsesim import (
    DriveParams,
    ZeemanModel,
    _ab_product,
    _pulse_cells,
    _pulse_grid,
    pulse_propagator,
)
from qubitbench import presets, rb
from qubitbench.rb import (
    _SMALL_ANGLE,
    RBPlan,
    RBTiming,
    _coherent_survival_fast,
    _cos_sin,
    run_rb,
)

GROUP = build_clifford_table()
EPS = np.finfo(float).eps
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_LABEL_PHASE = {"+X90": 0.0, "+Y90": np.pi / 2, "-X90": np.pi, "-Y90": 3 * np.pi / 2}

rates = st.floats(-1e6, 1e6, allow_nan=False)


def _ab_matrix(a, b) -> np.ndarray:
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


class TestPulseKernel:
    @given(
        omega=rates,
        vz=st.one_of(st.just(0.0), rates),
        quarter=st.integers(0, 3),
        duration=st.floats(1e-8, 2e-5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_matrix_exponential(self, omega, vz, quarter, duration):
        phase = quarter * np.pi / 2
        hamiltonian = 0.5 * omega * (np.cos(phase) * _SX + np.sin(phase) * _SY) + 0.5 * vz * _SZ
        a, b = pulse_ab(omega, vz, duration)
        u = _ab_matrix(a, b * 1j**quarter)
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12
        assert np.max(np.abs(u - expm(-1j * duration * hamiltonian))) <= 1e-12

    @given(
        omega=st.lists(rates, min_size=1, max_size=6),
        vz=rates,
        quarter=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_matches_matrix_product(self, omega, vz, quarter, seed):
        omega = np.array(omega)
        rng = np.random.default_rng(seed)
        state = rng.standard_normal((2, len(omega))) + 1j * rng.standard_normal((2, len(omega)))
        state /= np.linalg.norm(state, axis=0)
        a, b = pulse_ab(omega, vz, 6e-6)
        b = b * 1j**quarter
        alpha, beta = state.copy()
        apply_ab(a, b, alpha, beta)
        for n in range(len(omega)):
            expected = _ab_matrix(a[n], b[n]) @ state[:, n]
            assert np.max(np.abs([alpha[n], beta[n]] - expected)) <= 1e-12
        assert np.allclose(np.abs(alpha) ** 2 + np.abs(beta) ** 2, 1.0, rtol=0, atol=1e-12)


class _CountingNumpy:
    """numpy, with the elements passed to ``cos``, ``sin`` and ``exp`` counted."""

    def __init__(self):
        self.elements = dict.fromkeys(("cos", "sin", "exp"), 0)

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.elements:
            return fn

        def counted(x, *args, **kwargs):
            self.elements[name] += np.size(x)
            return fn(x, *args, **kwargs)

        return counted


def _counted_cos_sin(x):
    counting = _CountingNumpy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rb, "np", counting)
        c, s = _cos_sin(x)
    return c, s, counting.elements


small_angles = st.floats(-_SMALL_ANGLE, _SMALL_ANGLE, exclude_min=True, exclude_max=True)


class TestSmallAngleCosSin:
    @given(st.lists(small_angles, min_size=1, max_size=40))
    @example([_SMALL_ANGLE * (1 - EPS)])
    @example([0.0, -0.0, 5e-324])
    @settings(max_examples=200, deadline=None)
    def test_polynomials_match_numpy_below_the_bound(self, angles):
        x = np.array(angles)
        c, s, libm = _counted_cos_sin(x)
        assert libm == {"cos": 0, "sin": 0, "exp": 0}
        assert np.max(np.abs(c - np.cos(x))) <= 2e-16
        assert np.max(np.abs(s - np.sin(x))) <= 2e-16

    @given(
        st.lists(st.floats(-1e3, 1e3), max_size=20),
        st.floats(_SMALL_ANGLE, 1e3),
        st.sampled_from([1.0, -1.0]),
        st.integers(0, 20),
    )
    @example([], _SMALL_ANGLE, 1.0, 0)
    @example([1e-3], _SMALL_ANGLE, -1.0, 1)
    @settings(max_examples=100, deadline=None)
    def test_numpy_at_or_above_the_bound(self, angles, big, sign, where):
        angles.insert(min(where, len(angles)), sign * big)
        for x in (np.array(angles), sign * big):
            c, s, libm = _counted_cos_sin(x)
            assert libm["cos"] == libm["sin"] == np.size(x)
            np.testing.assert_array_equal(c, np.cos(x))
            np.testing.assert_array_equal(s, np.sin(x))


class TestTreeRecovery:
    @given(st.lists(st.integers(0, len(GROUP) - 1), max_size=300))
    @example([])
    @example([7])
    def test_equals_sequential_fold(self, indices):
        expected = GROUP.inverse(GROUP.fold(indices))
        assert recovery_gate(indices, group=GROUP) == expected
        assert recovery_gate(np.array(indices, dtype=int), group=GROUP) == expected


class TestMotionalAreaPhasor:
    @given(
        depth=st.floats(0.0, 0.2),
        phase0=st.floats(0.0, 2 * np.pi),
        t_start=st.floats(0.0, 1e-3),
        duration=st.floats(1e-7, 5e-5),
        omega_m=st.floats(2 * np.pi * 1e4, 2 * np.pi * 1e7),
    )
    @settings(max_examples=200, deadline=None)
    def test_phasor_form_equals_reference(self, depth, phase0, t_start, duration, omega_m):
        mode = MotionalMode(omega_m=omega_m)
        phase = phase0 + omega_m * t_start
        wt = omega_m * duration
        reference = mode.mean_area_factor(depth, phase, duration)
        phasor_form = 1.0 + depth * np.imag(np.exp(1j * phase0) * mode.area_phasor(t_start, duration))
        # both forms take a difference of sines at arguments up to
        # |phase| + wt and divide it by wt
        tol = 1e-14 + 8 * EPS * depth * (phase + wt + 1.0) / wt
        assert abs(phasor_form - reference) <= tol

    def test_array_times_give_one_phasor_per_pulse(self):
        mode = MotionalMode()
        t = 6.08e-6 * np.arange(5)
        expected = [mode.area_phasor(x, 6e-6) for x in t]
        np.testing.assert_allclose(mode.area_phasor(t, 6e-6), expected, rtol=1e-14, atol=0)


_GL_NODES = 0.5 + 0.5 * np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL_WEIGHTS = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def _sequential_propagator(pulse, drive, trace, zeeman, flat_substeps):
    """Cell-by-cell product of matrix exponentials on the propagator's grid,
    with the trace averaged by scalar calls at each quadrature node."""
    starts, ends, shape = _pulse_cells(pulse, None, 64, flat_substeps)
    phi = pulse.effective_phase
    cells = []
    for lo, hi, amp in zip(starts[:-1], ends[:-1], shape):
        if callable(trace):
            amp *= sum(w * float(trace(lo + (hi - lo) * x)) for w, x in zip(_GL_WEIGHTS, _GL_NODES))
        elif trace is not None:
            amp *= trace
        cells.append((lo, hi, amp))
    cells.append((pulse.t_half_pi, pulse.total_time, 0.0))
    u = np.eye(2, dtype=complex)
    for lo, hi, amp in cells:
        vz = (zeeman.shift(amp) if zeeman else 0.0) - drive.detuning
        omega = drive.omega_q * amp
        h = 0.5 * (omega * (np.cos(phi) * _SX + np.sin(phi) * _SY) + vz * _SZ)
        u = expm(-1j * (hi - lo) * h) @ u
    return u


class TestPulsePropagator:
    @given(
        rate_factor=st.floats(0.5, 2.0),
        detuning=st.floats(-2 * np.pi * 5e4, 2 * np.pi * 5e4),
        phase=st.floats(0.0, 2 * np.pi),
        sign=st.sampled_from([1, -1]),
        ramp_time=st.sampled_from([0.0, 40e-9, 300e-9]),
        zeeman_hz=st.one_of(st.none(), st.floats(-1e4, 1e4)),
        trace_kind=st.sampled_from(["none", "scalar", "array", "scalar-callable"]),
        trace_level=st.floats(0.98, 1.02),
        flat_substeps=st.integers(1, 24),
        gap_time=st.sampled_from([0.0, 1e-6]),
    )
    @example(1.0, 0.0, 0.7, 1, 40e-9, None, "array", 1.0, 8, 1e-6)
    @example(1.0, 1e5, 1.0, -1, 40e-9, 9.0, "scalar", 1.0, 1, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_matrix_exponentials(
        self, rate_factor, detuning, phase, sign, ramp_time, zeeman_hz,
        trace_kind, trace_level, flat_substeps, gap_time,
    ):
        pulse = PulseSpec(phase=phase, sign=sign, t_half_pi=6e-6, ramp_time=ramp_time, gap_time=gap_time)
        drive = DriveParams(
            omega_q=rate_factor * (np.pi / 2) / (6e-6 - ramp_time),
            detuning=detuning,
        )
        zeeman = None if zeeman_hz is None else ZeemanModel(shift_at_full_amp=2 * np.pi * zeeman_hz)
        trace = {
            "none": None,
            "scalar": trace_level,
            "array": lambda t: trace_level + 0.01 * np.cos(2 * np.pi * 3e5 * t + phase),
            "scalar-callable": lambda t: trace_level,
        }[trace_kind]
        grid = dict(zeeman=zeeman, flat_substeps=flat_substeps)
        u = pulse_propagator(pulse, drive, amplitude_trace=trace, **grid)
        expected = _sequential_propagator(pulse, drive, trace, zeeman, flat_substeps)
        assert np.max(np.abs(u - expected)) <= 1e-12

        # batched over a (3, 2) grid of trace levels, given as an array of
        # multipliers and as a callable with the batch axes in front: each
        # element is the unbatched call
        levels = trace_level * np.array([[1.0, 0.999], [1.001, 0.9995], [1.0005, 1.002]])
        wobble = lambda t: 0.01 * np.cos(2 * np.pi * 3e5 * t + phase)
        for batched, single in (
            (levels, lambda level: level),
            (lambda t: levels[..., None, None] + wobble(t), lambda level: lambda t: level + wobble(t)),
        ):
            ub = pulse_propagator(pulse, drive, amplitude_trace=batched, **grid)
            assert ub.shape == (2, 2, *levels.shape)
            for idx in np.ndindex(levels.shape):
                one = pulse_propagator(pulse, drive, amplitude_trace=single(levels[idx]), **grid)
                assert np.max(np.abs(ub[(..., *idx)] - one)) <= 1e-14

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_tree_product_equals_sequential_product(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = pulse_ab(rng.normal(0.0, 1e6, n), rng.normal(0.0, 1e6, n), 6e-6)
        b = b * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
        expected = np.eye(2, dtype=complex)
        for k in range(n):
            expected = _ab_matrix(a[k], b[k]) @ expected
        assert np.max(np.abs(_ab_product(a, b) - expected)) <= 1e-12

    def test_cached_grid_matches_a_fresh_grid_for_every_key(self):
        # one process walks through grids that differ in a single key field;
        # each must come back as if computed afresh, and read-only
        configs = [
            (6e-6, 40e-9, 40e-9, 64, None, None),
            (6e-6, 300e-9, 40e-9, 64, None, None),
            (8e-6, 40e-9, 40e-9, 64, None, None),
            (6e-6, 40e-9, 1e-6, 64, None, None),
            (6e-6, 40e-9, 0.0, 64, None, None),
            (6e-6, 40e-9, 40e-9, 128, None, None),
            (6e-6, 40e-9, 40e-9, 64, 8, None),
            (6e-6, 40e-9, 40e-9, 64, None, lambda t: 1.0 + 1e3 * t),
            (6e-6, 40e-9, 40e-9, 64, None, None),
        ]
        for t_half_pi, ramp_time, gap_time, ramp_substeps, flat_substeps, trace in configs:
            pulse = PulseSpec(phase=0.0, t_half_pi=t_half_pi, ramp_time=ramp_time, gap_time=gap_time)
            starts, ends, rel_amp = _pulse_cells(pulse, trace, ramp_substeps, flat_substeps)
            flat = flat_substeps or (256 if trace else 1)
            fresh_starts, fresh_ends, shape, ts = _pulse_grid.__wrapped__(
                ramp_time, t_half_pi, gap_time, ramp_substeps, flat
            )
            expected = shape * (1.0 if trace is None else trace(ts) @ _GL_WEIGHTS)
            np.testing.assert_array_equal(starts, fresh_starts)
            np.testing.assert_array_equal(ends, fresh_ends)
            np.testing.assert_array_equal(rel_amp, expected)
            # the pulse's cells, then the trailing gap
            n_cells = flat + (2 * ramp_substeps if ramp_time else 0)
            assert len(rel_amp) == n_cells and len(starts) == len(ends) == n_cells + 1
            assert (starts[-1], ends[-1]) == (t_half_pi, pulse.total_time)
            np.testing.assert_array_equal(starts[1:-1], ends[:-2])
            for arr in (starts, ends):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0


def _masked_survival(plan, length, noise, timing, zeeman):
    """The fast tier as a masked engine: every sequence steps p_max times,
    with explicit 2x2 propagators and per-pulse noise draws.  The idle phase
    is tracked, so the detuning acts only during the pulses."""
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    phases = []
    for s in range(n_seq):
        idx = [int(i) for i in plan.clifford_indices(length, s, GROUP)]
        word = [p for i in (*idx, GROUP.inverse(GROUP.fold(idx))) for p in GROUP.elements[i].pulses]
        phases.append([_LABEL_PHASE[p] for p in word])
    p_max = max(len(p) for p in phases)
    phase = np.zeros((n_seq, p_max))
    valid = np.zeros((n_seq, p_max), dtype=bool)
    for s, p in enumerate(phases):
        phase[s, : len(p)] = p
        valid[s, : len(p)] = True

    seed = plan.master_seed
    mult = np.ones((n_seq, n_shot))
    if noise.amplitude is not None:
        rng = rng_stream(seed, LANE_AMPLITUDE, length)
        mult = noise.amplitude.sample_multipliers(rng, n_seq * n_shot).reshape(n_seq, n_shot)
    if noise.motional is not None:
        phase0 = rng_stream(seed, LANE_MOTIONAL, length).uniform(0.0, 2 * np.pi, (n_seq, n_shot))
    deph_rng = rng_stream(seed, LANE_DEPHASING, length) if noise.dephasing_t2 else None
    kick_std = brownian_phase_std(timing.pulse_spacing, noise.dephasing_t2) if deph_rng else 0.0
    delta = noise.detuning_offset

    state = np.zeros((n_seq, n_shot, 2), dtype=complex)
    state[..., plan.prepared_state] = 1.0
    for k in range(p_max):
        omega = (np.pi / 2) / timing.t_half_pi * mult
        if noise.motional is not None:
            mode, t_k = noise.motional, k * timing.pulse_spacing
            omega = omega * mode.mean_area_factor(
                mode.depth_at(t_k), phase0 + mode.omega_m * t_k, timing.t_half_pi
            )
        vz = -delta + (zeeman.shift(mult) if zeeman is not None else 0.0)
        vz = np.broadcast_to(vz, omega.shape)
        ph = np.broadcast_to(phase[:, k, None], omega.shape)
        u = np.array(
            [
                [
                    expm(-0.5j * timing.t_half_pi * (w * (np.cos(p) * _SX + np.sin(p) * _SY) + z * _SZ))
                    for w, z, p in zip(omega[s], vz[s], ph[s])
                ]
                for s in range(n_seq)
            ]
        )
        mask = valid[:, k, None, None]
        state = np.where(mask, np.einsum("sqij,sqj->sqi", u, state), state)
        theta = np.zeros((n_seq, n_shot))
        if kick_std:
            theta = theta + kick_std * deph_rng.standard_normal((n_seq, n_shot))
        rz = np.stack([np.exp(-0.5j * theta), np.exp(0.5j * theta)], axis=-1)
        state = np.where(mask, state * rz, state)
    return np.abs(state[..., plan.prepared_state]) ** 2


class TestPrefixSortedEngine:
    @given(
        seed=st.integers(0, 2**16),
        length=st.integers(2, 12),
        n_seq=st.integers(2, 4),
        shots=st.integers(1, 3),
        amplitude=st.booleans(),
        motional=st.booleans(),
        dephasing=st.booleans(),
        detuning_hz=st.sampled_from([0.0, 3e3]),
        zeeman=st.booleans(),
        prep=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_masked_matrix_engine(
        self, seed, length, n_seq, shots, amplitude, motional, dephasing, detuning_hz, zeeman, prep,
    ):
        plan = RBPlan(seed, (length,), n_sequences=n_seq, shots_per_sequence=shots, prepared_state=prep)
        counts = [
            sum(GROUP.elements[i].pulse_count for i in plan.sequence(length, s, GROUP))
            for s in range(n_seq)
        ]
        assume(len(set(counts)) > 1)
        noise = NoiseConfig(
            amplitude=AmplitudeNoiseModel(sigma_rel=0.02) if amplitude else None,
            # strong, slow modulation so that a wrong area factor would show
            motional=MotionalMode(eta=0.03, omega_m=2 * np.pi * 3e5) if motional else None,
            dephasing_t2=1e-3 if dephasing else None,
            detuning_offset=2 * np.pi * detuning_hz,
        )
        timing = RBTiming(delay_per_pulse=2e-6)
        z = ZeemanModel(shift_at_full_amp=2 * np.pi * 2e3) if zeeman else None
        fast = _coherent_survival_fast(plan, length, GROUP, noise, timing, z)
        reference = _masked_survival(plan, length, noise, timing, z)
        assert np.max(np.abs(fast - reference)) <= 1e-11

    @given(
        seed=st.integers(0, 2**16),
        length=st.integers(2, 12),
        n_seq=st.integers(2, 4),
        shots=st.integers(1, 3),
        amplitude=st.booleans(),
        motional=st.booleans(),
        dephasing=st.booleans(),
        detuning_hz=st.sampled_from([0.0, 3.0]),
        zeeman=st.booleans(),
        delay=st.sampled_from([0.0, 1e-5]),
        prep=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_masked_matrix_engine_at_preset_strength(
        self, seed, length, n_seq, shots, amplitude, motional, dephasing, detuning_hz, zeeman,
        delay, prep,
    ):
        # every small angle stays below _SMALL_ANGLE here, so the engine
        # takes the polynomials that the strong-noise case above never does
        plan = RBPlan(seed, (length,), n_sequences=n_seq, shots_per_sequence=shots, prepared_state=prep)
        preset = presets.default_noise_config()
        noise = NoiseConfig(
            amplitude=preset.amplitude if amplitude else None,
            motional=preset.motional if motional else None,
            dephasing_t2=preset.dephasing_t2 if dephasing else None,
            detuning_offset=2 * np.pi * detuning_hz,
        )
        timing = RBTiming(delay_per_pulse=delay)
        z = ZeemanModel(shift_at_full_amp=2 * np.pi * presets.ZEEMAN_RESIDUAL_HZ) if zeeman else None
        fast = _coherent_survival_fast(plan, length, GROUP, noise, timing, z)
        reference = _masked_survival(plan, length, noise, timing, z)
        assert np.max(np.abs(fast - reference)) <= 1e-11

    @pytest.mark.parametrize("prep", [0, 1])
    def test_survival_is_read_relative_to_the_state_norm(self, monkeypatch, prep):
        # a norm that drifts pulse by pulse, as rounding makes it do over a
        # long sequence, must not move the survival
        plan = RBPlan(5, (40,), n_sequences=3, shots_per_sequence=4, prepared_state=prep)
        args = plan, 40, GROUP, presets.default_noise_config(), RBTiming()
        exact = _coherent_survival_fast(*args)
        apply = rb.apply_ab

        def growing(a, b, alpha, beta):
            apply(a, b, alpha, beta)
            alpha *= 1.001
            beta *= 1.001

        monkeypatch.setattr(rb, "apply_ab", growing)
        np.testing.assert_allclose(_coherent_survival_fast(*args), exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "noise, delay",
    [(presets.default_noise_config(), 0.0), (NoiseConfig(dephasing_t2=presets.T2_STAR_STAR), 1e-5)],
    ids=["rb", "irmb"],
)
def test_default_noise_takes_the_small_angle_path(monkeypatch, noise, delay):
    # a fallback to libm would evaluate cos/sin once per pulse-shot
    counting = _CountingNumpy()
    monkeypatch.setattr(rb, "np", counting)
    plan = RBPlan(5, lengths=(40, 200), n_sequences=4, shots_per_sequence=10)
    run_rb(plan, noise=noise, timing=RBTiming(delay_per_pulse=delay))
    per_shot = len(plan.lengths) * plan.n_sequences * plan.shots_per_sequence
    assert counting.elements == {"cos": per_shot, "sin": per_shot, "exp": per_shot if noise.motional else 0}


@pytest.mark.parametrize("length", [1, 5, 40])
def test_engine_without_noise_keeps_every_sequence_at_identity(length):
    plan = RBPlan(3, (length,), n_sequences=5, shots_per_sequence=2)
    survival = _coherent_survival_fast(plan, length, GROUP, NoiseConfig(), RBTiming())
    assert np.allclose(survival, 1.0, rtol=0, atol=1e-12)
