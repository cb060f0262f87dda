"""Tests for randomized-benchmarking plans, engines, and datasets."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitbench import pulsesim, rb
from qubitbench.cliffords import pulse_from_label
from qubitbench.noise import (
    LANE_AMPLITUDE,
    LANE_DEPHASING,
    LANE_MOTIONAL,
    AmplitudeNoiseModel,
    IdleRates,
    MotionalMode,
    NoiseConfig,
    brownian_phase_std,
    rng_stream,
)
from qubitbench.presets import default_noise_config
from qubitbench.pulsesim import DriveParams, ZeemanModel, pulse_propagator
from qubitbench.rb import (
    RBDataset,
    RBPlan,
    RBTiming,
    _coherent_survival_fast,
    _coherent_survival_full,
    generate_plan,
    irmb_slope,
    run_rb,
)

# per-element error from a quasi-static relative Rabi-rate offset x is
# (pi^2 / 24) * S * x^2, where S = 17/6 averages the squared coherent sum
# of same-axis over-rotations within each minimal generator word
_AMP_COEFF = np.pi**2 * (17.0 / 6.0) / 24.0


class TestPlans:
    def test_indices_are_deterministic(self, group):
        plan = RBPlan(master_seed=5, lengths=(100,), n_sequences=4)
        a = plan.clifford_indices(100, 2, group)
        b = plan.clifford_indices(100, 2, group)
        assert np.array_equal(a, b)
        assert len(a) == 100
        assert a.min() >= 0 and a.max() < 24

    def test_sequences_differ_and_lengths_are_independent_streams(self, group):
        plan = RBPlan(master_seed=5, lengths=(100, 200), n_sequences=4)
        assert not np.array_equal(
            plan.clifford_indices(100, 0, group), plan.clifford_indices(100, 1, group)
        )
        assert not np.array_equal(
            plan.clifford_indices(100, 0, group), plan.clifford_indices(200, 0, group)[:100]
        )

    def test_sequence_recovery_closes_to_identity(self, group):
        plan = RBPlan(master_seed=5, lengths=(50,), n_sequences=2)
        seq = plan.sequence(50, 1, group)
        folded = group.fold(seq)
        assert folded == group.identity_index

    def test_generate_plan_defaults(self):
        plan = generate_plan(99)
        assert plan.master_seed == 99
        assert plan.n_sequences == 30
        assert plan.shots_per_sequence == 100
        assert plan.lengths == (300, 950, 3000, 9500, 30000)  # the CLI's ladder


class TestOutcomeChannels:
    def test_depolarizing_rate_maps_to_half_per_element(self):
        # outcome-level depolarizing with probability p per element fits as
        # eps = p / 2 (a depolarized state reads out correctly half the time)
        plan = RBPlan(
            master_seed=8, lengths=(100, 400, 1600, 6400), n_sequences=60, shots_per_sequence=200
        )
        ds = run_rb(plan, noise=NoiseConfig(depolarizing_per_gate=4.0e-4), tier="fast")
        fit = ds.fit()
        assert fit.converged and fit.identifiable
        assert fit.epsilon == pytest.approx(2.0e-4, rel=0.05)

    def test_spam_floor_reduces_survival_at_short_lengths(self):
        plan = RBPlan(master_seed=3, lengths=(20,), n_sequences=10, shots_per_sequence=200)
        ds = run_rb(plan, noise=NoiseConfig(spam=0.2), tier="fast")
        surv = ds.successes.sum() / ds.shots.sum()
        sigma = np.sqrt(0.2 * 0.8 / ds.shots.sum())
        assert abs(surv - 0.8) < 3 * sigma

    def test_idle_flip_probability_matches_linear_model(self):
        rates = IdleRates(
            bright_per_s=1.6e-2,
            dark_plus_leak_prep0_per_s=1.3e-2,
            dark_plus_leak_prep1_per_s=1.2e-2,
        )
        length, delay = 50, 0.002
        plan = RBPlan(master_seed=21, lengths=(length,), n_sequences=40, shots_per_sequence=500)
        ds = run_rb(plan, noise=NoiseConfig(idle=rates), timing=RBTiming(delay_per_pulse=delay))
        surv = ds.successes.sum() / ds.shots.sum()
        mu = 52.0 / 24.0
        p_pred = rates.rb_error_rate_per_s() * (length + 1) * mu * delay
        sigma = np.sqrt(p_pred / ds.shots.sum())
        assert abs((1 - surv) - p_pred) < 3 * sigma

    def test_idle_delay_is_recorded_in_meta(self):
        plan = RBPlan(master_seed=21, lengths=(10,), n_sequences=2, shots_per_sequence=5)
        ds = run_rb(plan, timing=RBTiming(delay_per_pulse=0.01))
        assert ds.meta["delay_per_pulse"] == 0.01


class TestCoherentOracles:
    def test_dephasing_matches_white_noise_rate(self, group):
        # white frequency noise with coherence time T2 costs
        # gate_time / (3 T2) per element
        t2, length = 6.9, 3000
        plan = RBPlan(master_seed=12, lengths=(length,), n_sequences=20, shots_per_sequence=50)
        surv = _coherent_survival_fast(
            plan, length, group, NoiseConfig(dephasing_t2=t2), RBTiming()
        )
        gate_time = (52.0 / 24.0) * RBTiming().pulse_spacing
        deficit_pred = length * gate_time / (3.0 * t2)
        sem = surv.std() / np.sqrt(surv.size)
        assert abs((1 - surv.mean()) - deficit_pred) < 3 * sem

    def test_quasi_static_amplitude_error_coefficient(self, group):
        sigma, length = 1e-3, 1000
        plan = RBPlan(master_seed=14, lengths=(length,), n_sequences=200, shots_per_sequence=30)
        surv = _coherent_survival_fast(
            plan,
            length,
            group,
            NoiseConfig(amplitude=AmplitudeNoiseModel(sigma_rel=sigma)),
            RBTiming(),
        )
        coeff = (1 - surv.mean()) / (length * sigma**2)
        sem = surv.mean(axis=1).std() / np.sqrt(surv.shape[0]) / (length * sigma**2)
        assert abs(coeff - _AMP_COEFF) < 3 * sem
        assert 0.9 < coeff < 1.4

    def test_static_detuning_error_coefficient(self, group):
        # a small static detuning during the pulses costs roughly
        # (2 pi delta t_half)^2 / 6 per pulse (close to the isotropic-twirl
        # value; the simulated coefficient is ~0.17)
        delta_hz, length = 100.0, 500
        plan = RBPlan(master_seed=17, lengths=(length,), n_sequences=150, shots_per_sequence=1)
        surv = _coherent_survival_fast(
            plan,
            length,
            group,
            NoiseConfig(detuning_offset=2 * np.pi * delta_hz),
            RBTiming(),
        )
        scale = length * (52.0 / 24.0) * (2 * np.pi * delta_hz * 6e-6) ** 2
        c_eff = (1 - surv.mean()) / scale
        sem = surv.std() / np.sqrt(surv.size) / scale
        assert abs(c_eff - 0.1778) < 3 * sem + 0.01
        assert 0.12 < c_eff < 0.24


class TestTierAgreement:
    PLAN = RBPlan(master_seed=33, lengths=(24,), n_sequences=2, shots_per_sequence=3)

    def _mismatch(self, group, cfg, zeeman=None):
        sf = _coherent_survival_fast(self.PLAN, 24, group, cfg, RBTiming(), zeeman)
        su = _coherent_survival_full(self.PLAN, 24, group, cfg, RBTiming(), zeeman)
        return float(np.abs(sf - su).max())

    def test_quasi_static_channels_agree_to_machine_precision(self, group):
        assert self._mismatch(group, NoiseConfig(amplitude=AmplitudeNoiseModel(sigma_rel=4e-4))) < 1e-11
        assert self._mismatch(group, NoiseConfig(dephasing_t2=2.0)) < 1e-11

    def test_detuning_agrees_to_ramp_shape_accuracy(self, group):
        # the full tier plays sin^2 ramps, the fast tier a rectangle of equal
        # area; a static detuning probes that difference at the 1e-5 level
        assert self._mismatch(group, NoiseConfig(detuning_offset=2 * np.pi * 200.0)) < 1e-5

    def test_drive_induced_shift_agrees_between_tiers(self, group):
        z = ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0)
        assert self._mismatch(group, NoiseConfig(), zeeman=z) < 1e-4

    def test_motional_and_combined_noise_agree(self, group):
        assert self._mismatch(group, NoiseConfig(motional=MotionalMode())) < 1e-7
        assert self._mismatch(group, default_noise_config()) < 1e-6

    @staticmethod
    def _tiers(group, length, cfg, zeeman=None):
        """(fast, full) survival of a 2x2 plan at one length."""
        plan = RBPlan(master_seed=33, lengths=(length,), n_sequences=2, shots_per_sequence=2)
        fast = _coherent_survival_fast(plan, length, group, cfg, RBTiming(), zeeman)
        full = _coherent_survival_full(plan, length, group, cfg, RBTiming(), zeeman)
        return fast, full

    def test_tiers_agree_at_length_1000(self, group):
        fast, full = self._tiers(group, 1000, default_noise_config())
        assert np.abs(fast - full).max() <= 1e-4
        # the coherent error of the ramps grows with length, so the detuning
        # and shift channels are compared by their infidelities
        for cfg, zeeman in (
            (NoiseConfig(detuning_offset=2 * np.pi * 200.0), None),
            (NoiseConfig(), ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0)),
        ):
            fast, full = self._tiers(group, 1000, cfg, zeeman)
            assert np.all(np.abs(fast - full) <= 0.05 * (1.0 - full))

    @pytest.mark.parametrize("length", [3000, 30000])
    def test_static_channels_agree_at_the_papers_lengths(self, group, length):
        # the full tier as an exact reference at the paper's sequence lengths,
        # with the bounds of the L = 24 and L = 1000 checks
        for cfg, zeeman in (
            (NoiseConfig(detuning_offset=2 * np.pi * 200.0), None),
            (NoiseConfig(), ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0)),
        ):
            fast, full = self._tiers(group, length, cfg, zeeman)
            assert np.all(np.abs(fast - full) <= 0.05 * (1.0 - full))
        fast, full = self._tiers(group, length, NoiseConfig(amplitude=AmplitudeNoiseModel(sigma_rel=4e-4)))
        assert np.abs(fast - full).max() < 1e-11

    def test_outcome_counts_identical_across_tiers(self):
        cfg = NoiseConfig(amplitude=AmplitudeNoiseModel(sigma_rel=4e-4), spam=0.05)
        fast = run_rb(self.PLAN, noise=cfg, tier="fast")
        full = run_rb(self.PLAN, noise=cfg, tier="full")
        assert np.array_equal(fast.errors, full.errors)


def _reference_full_survival(plan, length, group, noise, timing, zeeman):
    """Full-tier survival from per-pulse matrices, drawn and derived independently.

    The z phase ``c_k`` accumulated before pulse k (dephasing kicks drawn one
    pulse at a time, plus the idle-phase cancellation) enters as the pulse
    phase ``phi - c_k``: ``Rz(c) U(phi) = U(phi - c) Rz(c)``, and the leading
    ``Rz`` does not change populations.  Each pulse gets its own motional
    trace, read from its start time ``k * pulse_spacing``.
    """
    n_seq, n_shot = plan.n_sequences, plan.shots_per_sequence
    seed, prep = plan.master_seed, plan.prepared_state
    mult = np.ones((n_seq, n_shot))
    if noise.amplitude is not None:
        amp_rng = rng_stream(seed, LANE_AMPLITUDE, length)
        mult = noise.amplitude.sample_multipliers(amp_rng, n_seq * n_shot).reshape(n_seq, n_shot)
    mode = noise.motional
    if mode is not None:
        phase0 = rng_stream(seed, LANE_MOTIONAL, length).uniform(0.0, 2 * np.pi, (n_seq, n_shot))
    base_gap = timing.gap_time + timing.delay_per_pulse
    drive = DriveParams.nominal(timing.t_half_pi, timing.ramp_time, detuning=noise.detuning_offset)
    labels = [
        [lab for i in plan.sequence(length, s, group) for lab in group.elements[i].pulses]
        for s in range(n_seq)
    ]
    p_max = max(len(lab) for lab in labels)
    kicks = np.zeros((p_max, n_seq, n_shot))
    if noise.dephasing_t2:
        deph_rng = rng_stream(seed, LANE_DEPHASING, length)
        kick_std = brownian_phase_std(timing.pulse_spacing, noise.dephasing_t2)
        kicks = kick_std * np.stack([deph_rng.standard_normal((n_seq, n_shot)) for _ in range(p_max)])
    idle_phase = drive.detuning * base_gap

    survival = np.empty((n_seq, n_shot))
    for s in range(n_seq):
        for q in range(n_shot):
            u, c_k = np.eye(2, dtype=complex), 0.0
            for k, lab in enumerate(labels[s]):
                pulse = pulse_from_label(
                    lab, t_half_pi=timing.t_half_pi, ramp_time=timing.ramp_time, gap_time=base_gap
                )
                trace = mult[s, q]
                if mode is not None:
                    t0 = timing.pulse_spacing * k

                    def trace(t, t0=t0, m=mult[s, q], phi0=phase0[s, q]):
                        t_abs = t0 + t
                        return m * (1.0 + mode.depth_at(t_abs) * np.cos(mode.omega_m * t_abs + phi0))

                pulse = replace(pulse, phase=pulse.phase - c_k)
                step = pulse_propagator(pulse, drive, trace, zeeman, ramp_substeps=64)
                u = step @ u
                c_k += kicks[k, s, q] + idle_phase
            survival[s, q] = abs(u[prep, prep]) ** 2
    return survival


_FULL_TIER_CASES = {
    "default-noise": (default_noise_config(), None, RBTiming()),
    "detuning-20kHz": (NoiseConfig(detuning_offset=2 * np.pi * 2e4), None, RBTiming()),
    "detuning-200Hz-delay": (
        NoiseConfig(detuning_offset=2 * np.pi * 200.0),
        None,
        RBTiming(delay_per_pulse=3e-6),
    ),
    "zeeman-200Hz": (NoiseConfig(), ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0), RBTiming()),
    # the idle delay stretches the pulse spacing: the dephasing kicks, the
    # motional trace start times and the tracked idle phase all follow it
    "default-noise-delay": (default_noise_config(), None, RBTiming(delay_per_pulse=3e-6)),
    "detuning-20kHz-delay": (
        NoiseConfig(detuning_offset=2 * np.pi * 2e4),
        None,
        RBTiming(delay_per_pulse=3e-6),
    ),
    "zeeman-200Hz-delay": (
        NoiseConfig(),
        ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0),
        RBTiming(delay_per_pulse=3e-6),
    ),
}


class TestFullTier:
    @pytest.mark.parametrize("prepared_state", [0, 1])
    @pytest.mark.parametrize("length", [8, 24])
    @pytest.mark.parametrize("case", sorted(_FULL_TIER_CASES))
    def test_matches_per_pulse_drive_phase_reference(self, group, case, length, prepared_state):
        noise, zeeman, timing = _FULL_TIER_CASES[case]
        plan = RBPlan(
            master_seed=33,
            lengths=(length,),
            n_sequences=2,
            shots_per_sequence=2,
            prepared_state=prepared_state,
        )
        full = _coherent_survival_full(plan, length, group, noise, timing, zeeman)
        reference = _reference_full_survival(plan, length, group, noise, timing, zeeman)
        assert np.abs(full - reference).max() <= 1e-12

    @pytest.mark.parametrize("motional", [None, MotionalMode()], ids=["static", "motional"])
    def test_one_propagator_call_per_length_or_pulse_block(self, group, monkeypatch, motional):
        # without motion every pulse of a shot is the same: one call per
        # length; with it, one call per block of _STEP_BLOCK pulses.  Never a
        # fast-tier call: the traced rb-full benchmark expects its pulse-shot
        # counter, read from the fast engine, to stay at zero
        calls, fast_calls = [], []
        counted = pulsesim.pulse_propagator

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(pulsesim, "pulse_propagator", counting)
        monkeypatch.setattr(rb, "_coherent_survival_fast", lambda *a, **kw: fast_calls.append(1))
        plan = RBPlan(master_seed=4, lengths=(3, 5), n_sequences=2, shots_per_sequence=3)
        run_rb(plan, noise=NoiseConfig(motional=motional, spam=0.01), tier="full", group=group)
        longest = [
            max(
                sum(group.elements[i].pulse_count for i in plan.sequence(length, s, group))
                for s in range(plan.n_sequences)
            )
            for length in plan.lengths
        ]
        blocks = sum(math.ceil(p / rb._STEP_BLOCK) for p in longest)
        assert len(calls) == (len(plan.lengths) if motional is None else blocks)
        assert fast_calls == []


_USABLE_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
_needs_two_cpus = pytest.mark.skipif(
    len(_USABLE_CPUS) < 2, reason="lengths fan out only to a second usable CPU, and this process has one"
)

# each argv's document on stdout, each argv's exit code and os.fork count as a
# JSON line on stderr; argv[1] is the CPU set to narrow to ([] keeps the mask)
_COUNTED_RUN = """
import json, os, sys
cpus, argvs = json.loads(sys.argv[1])
if cpus:
    os.sched_setaffinity(0, cpus)
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from qubitbench.cli import main
for argv in argvs:
    forks.clear()
    code = main(argv)
    print(json.dumps([code, len(forks)]), file=sys.stderr)
"""


class TestLengthFanOut:
    # at 30 x 100 trajectories a length of L is (L + 1) * 6500 estimated
    # pulse-shots: 152 is just below the fork threshold, 153 just above
    BELOW = RBPlan(master_seed=6, lengths=(152, 1000), n_sequences=30, shots_per_sequence=100)
    ABOVE = replace(BELOW, lengths=(153, 1000))

    @staticmethod
    def _fake_engine(monkeypatch, failing=None, fail=None):
        def engine(plan, length, *args):
            if length == failing:
                fail(length)
            return np.full((plan.n_sequences, plan.shots_per_sequence), length / 2000)

        monkeypatch.setattr(rb, "_coherent_survival_fast", engine)

    @staticmethod
    def _count_forks(monkeypatch) -> list:
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_a_run_below_the_threshold_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked below the threshold")

        monkeypatch.setattr(os, "fork", no_fork)
        run_rb(RBPlan(master_seed=6, lengths=(20, 60), n_sequences=3, shots_per_sequence=20),
               noise=default_noise_config())
        self._fake_engine(monkeypatch)
        run_rb(self.BELOW, noise=default_noise_config())

    @_needs_two_cpus
    def test_a_bin_above_the_threshold_runs_in_a_worker(self, monkeypatch):
        self._fake_engine(monkeypatch)
        forks = self._count_forks(monkeypatch)
        parallel = run_rb(self.ABOVE, noise=default_noise_config())
        assert forks == [1]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run_rb(self.ABOVE, noise=default_noise_config())
        assert forks == [1]
        assert parallel.to_json() == serial.to_json()

    @_needs_two_cpus
    @pytest.mark.parametrize("failing", [153, 1000], ids=["in-worker", "in-caller"])
    def test_an_engine_error_reaches_the_caller_as_in_a_serial_run(self, monkeypatch, failing):
        def fail(length):
            raise ValueError(f"no survival at length {length}")

        self._fake_engine(monkeypatch, failing, fail)
        forks = self._count_forks(monkeypatch)
        with pytest.raises(ValueError) as parallel:
            run_rb(self.ABOVE, noise=default_noise_config())
        assert forks == [1]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ValueError) as serial:
            run_rb(self.ABOVE, noise=default_noise_config())
        assert forks == [1]
        assert str(parallel.value) == str(serial.value) == f"no survival at length {failing}"

    @_needs_two_cpus
    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        self._fake_engine(monkeypatch, 153, lambda length: os._exit(3))
        with pytest.raises(RuntimeError, match="ended without a result"):
            run_rb(self.ABOVE, noise=default_noise_config())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @_needs_two_cpus
    def test_documents_are_the_same_on_one_cpu(self):
        # the rb-fast benchmark's command, the same plan with the engine
        # bypassed, and an irmb whose lengths fan out
        argvs = [
            ["rb", "--lengths", "300,950,1500", "--sequences", "30", "--shots", "100"],
            ["rb", "--noise", "depol", "--lengths", "300,950,1500", "--sequences", "30", "--shots", "100"],
            ["irmb", "--delays", "0,1e-5", "--lengths", "200,400", "--sequences", "30", "--shots", "100"],
        ]
        runs = [
            subprocess.run([sys.executable, "-c", _COUNTED_RUN, json.dumps([cpus, argvs])],
                           capture_output=True, text=True, timeout=120)
            for cpus in ([], [min(_USABLE_CPUS)])
        ]
        counts = [[json.loads(line) for line in run.stderr.splitlines()] for run in runs]
        rb_forks = min(len(_USABLE_CPUS), 3) - 1  # every length is above the threshold
        assert counts == [[[0, rb_forks], [0, 0], [0, 2]], [[0, 0]] * 3], [run.stderr for run in runs]
        assert runs[0].stdout == runs[1].stdout


@st.composite
def _datasets(draw):
    """One to eight records with 0 <= errors <= shots (both ends included
    often), and meta holding finite floats, integers and text."""
    shots = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    n = len(shots)
    return RBDataset(
        lengths=draw(st.lists(st.integers(1, 10**5), min_size=n, max_size=n)),
        seq_ids=draw(st.lists(st.integers(0, 100), min_size=n, max_size=n)),
        errors=[draw(st.sampled_from([0, s]) | st.integers(0, s)) for s in shots],
        shots=shots,
        meta=draw(st.dictionaries(
            st.text(max_size=8),
            st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.text(max_size=8),
            max_size=4,
        )),
    )


def _same_records(a: RBDataset, b: RBDataset) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("lengths", "seq_ids", "errors", "shots"))


def _assert_json_roundtrip(ds: RBDataset) -> None:
    back = RBDataset.from_json(ds.to_json())
    assert back.meta == ds.meta
    assert _same_records(back, ds)


def _assert_csv_roundtrip(ds: RBDataset) -> None:
    text = ds.to_csv()
    assert text.splitlines()[0] == "length,seq_id,errors,shots"
    assert _same_records(RBDataset.from_csv(text), ds)


class TestDataset:
    def _small_dataset(self):
        plan = RBPlan(master_seed=3, lengths=(10, 20), n_sequences=3, shots_per_sequence=7)
        return run_rb(plan, noise=NoiseConfig(spam=0.1), tier="fast")

    def test_json_roundtrip_preserves_everything(self):
        _assert_json_roundtrip(self._small_dataset())

    @given(ds=_datasets())
    @example(ds=RBDataset([30000], [0], [5], [5], meta={"spam": 1.1e-3, "prepared_state": 0}))
    @example(ds=RBDataset([1, 300], [0, 29], [0, 0], [1, 100]))
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_preserves_any_records(self, ds):
        _assert_json_roundtrip(ds)

    def test_csv_roundtrip_preserves_counts(self):
        _assert_csv_roundtrip(self._small_dataset())

    @given(ds=_datasets())
    @example(ds=RBDataset([30000], [0], [5], [5]))
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_preserves_any_counts(self, ds):
        _assert_csv_roundtrip(ds)

    def test_successes_complement_errors(self):
        ds = self._small_dataset()
        assert np.array_equal(ds.successes + ds.errors, ds.shots)

    def test_run_is_deterministic(self):
        a = self._small_dataset()
        b = self._small_dataset()
        assert np.array_equal(a.errors, b.errors)


class TestInterleavedSlope:
    def test_weighted_fit_recovers_line(self):
        delays = np.array([0.0, 0.01, 0.02, 0.04])
        slope_true, intercept_true = 3.4e-6, 1.5e-7
        eps = intercept_true + slope_true * delays
        res = irmb_slope(delays, eps, sigmas=np.full(4, 1e-9))
        assert res.slope_per_s == pytest.approx(slope_true, rel=1e-9)
        assert res.intercept == pytest.approx(intercept_true, rel=1e-9)

    def test_weights_prefer_precise_points(self):
        delays = np.array([0.0, 0.01, 0.02])
        eps = np.array([1e-7, 2e-7, 1e-6])  # last point is an outlier
        tight = irmb_slope(delays, eps, sigmas=np.array([1e-9, 1e-9, 1e-3]))
        # with the outlier effectively removed the slope comes from the
        # first two points alone
        assert tight.slope_per_s == pytest.approx(1e-5, rel=1e-3)

    def test_slope_stderr_scales_with_sigmas(self):
        delays = np.array([0.0, 0.01, 0.02, 0.04])
        eps = 1e-7 + 3e-6 * delays
        a = irmb_slope(delays, eps, sigmas=np.full(4, 1e-9))
        b = irmb_slope(delays, eps, sigmas=np.full(4, 2e-9))
        assert b.slope_stderr == pytest.approx(2 * a.slope_stderr, rel=1e-6)


    @pytest.mark.parametrize("delays", [[1e-6, 1e-6], [2e-6], [3e-6, 3e-6, 3e-6]])
    def test_repeated_delays_are_rejected(self, delays):
        with pytest.raises(ValueError, match="two distinct"):
            irmb_slope(delays, np.linspace(1e-7, 2e-7, len(delays)))
