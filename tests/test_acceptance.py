"""Acceptance gate: one test per release criterion, each logging a PASS/FAIL line.

Every test freezes its random seeds and statistical plan so the whole gate is
deterministic.  Each criterion records one ``ACCEPTANCE <tag> PASS/FAIL`` line;
the conftest terminal-summary hook replays them at the end of every ``pytest``
run so the per-criterion verdicts are always visible, with the measured values
inline.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from qubitbench import presets
from qubitbench.budget import (
    MEAN_PULSES_PER_CLIFFORD,
    budget_curve,
    budget_table,
    err_zeeman,
    estimate_idle_rates,
    idle_scheme_error_prob,
)
from qubitbench.calibration import (
    SimulatedQubitTestbed,
    amplitude_cal_loop,
    constant_train_p_zero_gaussian,
    frequency_cal_loop,
    modulated_train_p_zero,
    walsh_coefficient,
    walsh_sign_train,
)
from qubitbench.calibration import CalLoopConfig
from qubitbench.filterfunc import (
    ControlTimeline,
    PhasePSD,
    Segment,
    chi_ramsey,
    filter_function,
    g_echo,
    predict_irmb,
)
from qubitbench.fitting import bootstrap_ci
from qubitbench.noise import (
    LANE_BOOTSTRAP,
    LANE_IDLE,
    FrequencyNoiseTrajectory,
    IdleRates,
    MotionalMode,
    NoiseConfig,
    rng_stream,
)
from qubitbench.pulsesim import ZeemanModel
from qubitbench.rb import (
    RBPlan,
    RBTiming,
    _coherent_survival_fast,
    _coherent_survival_full,
    irmb_slope,
    run_rb,
)

from oracles import min_pulse_decomposition as decompose_clifford, word_matrix

_MU = MEAN_PULSES_PER_CLIFFORD


REPORT_LINES: list[str] = []


def _report(tag: str, ok: bool, detail: str) -> None:
    """Record one unconditional pass/fail line per criterion, then assert."""
    line = f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_01_rb_error_round_trip(group):
    """Injected per-element error is recovered within 2 bootstrap sigma.

    Twenty independent replications of a full-scale benchmarking run (five
    lengths up to 30,000, 30 sequences x 100 shots) against a depolarizing
    channel of known strength; at least 90% of the replications must cover
    the truth at two bootstrap standard deviations.
    """
    truth = 1.5e-7
    noise = NoiseConfig(depolarizing_per_gate=2 * truth)
    hits = 0
    single_run = np.inf
    for seed in range(101, 121):
        t0 = time.time()
        plan = RBPlan(
            seed,
            lengths=(30, 300, 3000, 10000, 30000),
            n_sequences=30,
            shots_per_sequence=100,
        )
        ds = run_rb(plan, noise=noise, tier="fast", group=group)
        fit = ds.fit()
        _, _, estimates = bootstrap_ci(
            ds.lengths,
            ds.successes,
            ds.shots,
            rng_stream(seed, LANE_BOOTSTRAP),
            n_resamples=200,
        )
        hits += abs(fit.epsilon - truth) <= 2.0 * estimates.std()
        single_run = min(single_run, time.time() - t0)
    _report(
        "C1",
        hits >= 18 and single_run < 300.0,
        f"fitted error within 2 bootstrap sigma of truth in {hits}/20 "
        f"replications (need >= 18); single run {single_run:.1f} s (< 300 s)",
    )


def test_02_error_budget_reference_values():
    """Budget rows reproduce the independently established reference values.

    Reference contributions for the 13 us operating point, in units of 1e-7
    with one-sigma uncertainties; bound rows are upper limits.
    """
    reference = {
        "decoherence": (0.64e-7, 0.07e-7),
        "idle_and_leakage": (0.62e-7, 0.07e-7),
        "amplitude_noise": (0.23e-7, 0.02e-7),
        "harmonic_motion": (0.13e-7, 0.02e-7),
        "amplitude_drift": (0.09e-7, 0.07e-7),
        "zeeman_residual": (0.03e-7, 0.02e-7),
    }
    bounds = {
        "spectator_transitions": 1e-9,
        "pulse_ramping": 1e-9,
        "counter_rotating": 1e-10,
    }
    table = budget_table()
    rows = {r.name: r.value for r in table.rows}
    ok = True
    worst = ""
    for name, (value, sigma) in reference.items():
        dev = abs(rows[name] - value)
        if dev > sigma:
            ok = False
            worst += f" {name} off by {dev:.2g}>{sigma:.2g};"
    ok &= abs(rows["awg_resolution"] - 0.015e-7) < 0.0005e-7
    for name, bound in bounds.items():
        ok &= rows[name] <= bound * (1 + 1e-12)
    total = table.total()
    ok &= 1.6e-7 < total < 1.8e-7
    _report(
        "C2",
        ok,
        f"all budget rows within reference uncertainties, total "
        f"{total:.3e} in (1.6e-7, 1.8e-7){worst}",
    )


def test_03_budget_curve_shape():
    """Total error grows with element duration once decoherence dominates.

    Above 13 us the total must rise strictly with duration, and at 35 us the
    two decoherence-type rows must be the two largest contributions, covering
    more than 80% of the total.
    """
    curve = budget_curve()
    gt = np.asarray(curve["gate_time"])
    total = np.asarray(curve["total"])
    mask = gt >= 13e-6
    monotone = bool(np.all(np.diff(total[mask]) > 0))
    i35 = int(np.argmin(np.abs(gt - 35e-6)))
    row_names = [k for k in curve if k not in ("gate_time", "total")]
    at35 = {k: curve[k][i35] for k in row_names}
    top2 = set(sorted(at35, key=at35.get, reverse=True)[:2])
    slow_fraction = (at35["decoherence"] + at35["idle_and_leakage"]) / total[i35]
    dominated = top2 == {"decoherence", "idle_and_leakage"} and slow_fraction > 0.8
    _report(
        "C3",
        monotone and dominated,
        f"total strictly increasing above 13 us (toward shorter gates it "
        f"decreases); decoherence+idle are the top rows at 35 us with "
        f"fraction {slow_fraction:.2f} > 0.8",
    )


def test_04_calibration_loops_suppress_drift():
    """Closed-loop calibration pushes drift errors below their targets.

    Amplitude: after ~550 s of thermal amplitude drift the per-element
    contribution is ~1.4e-7; the loop must bring it to <= 1.5e-8.
    Frequency: a 9 Hz shift (~6e-8 contribution) must be corrected to
    <= 1e-8.
    """
    tb = SimulatedQubitTestbed(master_seed=40, amp_drift=presets.thermal_amp_drift())
    tb.clock = 550.0
    pre_amp = 0.5 * _MU * tb.true_relative_error(tb.clock) ** 2
    amplitude_cal_loop(tb)
    post_amp = 0.5 * _MU * tb.true_relative_error(tb.clock) ** 2

    shift = 2 * np.pi * 9.0
    tb2 = SimulatedQubitTestbed(
        master_seed=10,
        freq_drift=lambda t: np.full_like(np.asarray(t, dtype=float), shift),
    )
    pre_freq = err_zeeman(9.0, tb2.t_half_pi, convention="worst_case")
    frequency_cal_loop(tb2, CalLoopConfig(n_max=1024, shots=400))
    residual_hz = (shift - tb2.detuning_setting) / (2 * np.pi)
    post_freq = err_zeeman(abs(residual_hz), tb2.t_half_pi, convention="worst_case")

    ok = (
        pre_amp == pytest.approx(1.4e-7, rel=0.15)
        and post_amp <= 1.5e-8
        and 3e-8 < pre_freq < 1e-7
        and post_freq <= 1e-8
    )
    _report(
        "C4",
        ok,
        f"amplitude loop {pre_amp:.2e} -> {post_amp:.2e} (<= 1.5e-8); "
        f"frequency loop {pre_freq:.2e} -> {post_freq:.2e} (<= 1e-8, "
        f"residual {residual_hz:.2f} Hz)",
    )


def test_05_walsh_drift_cancellation():
    """Sign-balanced trains cancel polynomial drifts and match the closed form.

    A train keyed to order 2^M - 1 must annihilate every polynomial drift of
    degree below M (to 1e-14), and the closed-form bright probability must
    match an exact same-axis matrix product for a cubic drift to 1e-8.
    """
    n = 64
    t = (np.arange(n) + 0.5) / n
    worst_coeff = 0.0
    for m in range(1, 5):
        order = 2**m - 1
        for k in range(m):
            worst_coeff = max(worst_coeff, abs(walsh_coefficient(t**k, order)))
    cubic = 1e-3 * (t**3 - 0.4 * t + 0.1)
    worst_closed = 0.0
    for order in (1, 2, 3, 5, 7):
        signs = walsh_sign_train(order, n)
        theta = np.sum(signs * (np.pi / 2) * (1.0 + cubic)) + np.pi / 2
        p_product = np.cos(theta / 2.0) ** 2
        coeff = walsh_coefficient(cubic, order)
        worst_closed = max(worst_closed, abs(p_product - modulated_train_p_zero(n, coeff)))
    ok = worst_coeff < 1e-14 and worst_closed < 1e-8
    _report(
        "C5",
        ok,
        f"polynomial annihilation residual {worst_coeff:.1e} < 1e-14; "
        f"closed form vs matrix product {worst_closed:.1e} < 1e-8",
    )


def test_06_shot_noise_decay_law():
    """Sampled pulse-train survival follows the Gaussian-average closed form.

    For three shot-to-shot amplitude-noise levels, measured bright
    probabilities up to 15,000 pulses must stay within 3 binomial sigma of
    the closed form, and at 1.4e-4 the train must decay to <= 0.52.
    """
    grid = (4, 100, 1000, 4000, 15000)
    shots = 5000
    worst_pull = 0.0
    p_at_15000 = None
    for i, sigma0 in enumerate((5e-5, 1.4e-4, 5e-4)):
        tb = SimulatedQubitTestbed(
            master_seed=60 + i, sigma0_rel=sigma0, spam=0.0, bits=None
        )
        for n in grid:
            p_hat = tb.run_train(np.zeros(n), shots) / shots
            model = constant_train_p_zero_gaussian(n, 0.0, sigma0)
            sigma = np.sqrt(max(model * (1 - model), 1e-12) / shots)
            worst_pull = max(worst_pull, abs(p_hat - model) / sigma)
            if sigma0 == 1.4e-4 and n == 15000:
                p_at_15000 = p_hat
    ok = worst_pull <= 3.0 and p_at_15000 is not None and p_at_15000 <= 0.52
    _report(
        "C6",
        ok,
        f"worst pull {worst_pull:.2f} sigma (<= 3) over 3 noise levels x "
        f"{len(grid)} train lengths; P(15000 pulses) = {p_at_15000:.3f} <= 0.52",
    )


def test_07_filter_function_consistency():
    """Spectral decay predictions agree with independent routes.

    (a) white-frequency-noise free-precession decay exponent from the
    overlap pipeline vs a 4000-trajectory tone-superposition Monte Carlo,
    within 5%; (b) numeric echo filter function vs its analytic form to
    1e-6 relative; (c) the slope of the predicted error-vs-delay line for
    the bundled noise spectrum maps back to a 69 s coherence time +- 10%.
    """
    psd = PhasePSD.white_fm(1.0)
    tau = 1.0
    chi_pipe = chi_ramsey(psd, tau)
    rng = rng_stream(4242, 11)
    phis = np.empty(4000)
    for i in range(phis.size):
        traj = FrequencyNoiseTrajectory.from_psd(
            lambda f: (2 * np.pi * f) ** 2 * psd(f), 1e-6, 1e6, rng, tones_per_decade=48
        )
        w = 2 * np.pi * traj.frequencies
        phis[i] = np.sum(
            traj.amplitudes * (np.sin(w * tau + traj.phases) - np.sin(traj.phases)) / w
        )
    chi_mc = 0.5 * float(np.var(phis))
    mc_rel = abs(chi_mc - chi_pipe) / chi_pipe

    tau_e = 1.0
    timeline = ControlTimeline(
        segments=(
            Segment(duration=tau_e / 2),
            Segment(duration=0.0, angle=np.pi),
            Segment(duration=tau_e / 2),
        )
    )
    omega = np.logspace(-1, 2, 50)
    numeric = filter_function(timeline, omega)
    analytic = g_echo(omega, tau_e)
    echo_rel = float(np.max(np.abs(numeric - analytic) / analytic))

    delays = np.array([0.0, 1e-3, 3e-3, 1e-2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        eps = predict_irmb(presets.default_phase_psd(), delays, baseline=2e-7)
    slope = irmb_slope(delays, eps).slope_per_s
    t2_fit = _MU / (3.0 * slope)

    ok = mc_rel <= 0.05 and echo_rel <= 1e-6 and abs(t2_fit - 69.0) <= 6.9
    _report(
        "C7",
        ok,
        f"trajectory MC vs overlap pipeline {100 * mc_rel:.1f}% (<= 5%); "
        f"echo filter function {echo_rel:.1e} rel (<= 1e-6); "
        f"error-vs-delay slope -> {t2_fit:.1f} s coherence (69 +- 6.9)",
    )


def test_08_idle_rate_recovery():
    """Multi-scheme idle measurements invert back to the injected rates.

    Synthetic data for all three preparation/shelving schemes at six hold
    durations; the bright-state rate must come back within 2 sigma, the
    spin-flip rate must be bounded below 3.6e-3/s, and the budget row built
    from the standard idle rates must land at 0.62e-7 +- 0.07e-7.
    """
    truth = IdleRates(
        bright_per_s=1.6e-2,
        dark_plus_leak_prep0_per_s=1.3e-2,
        dark_plus_leak_prep1_per_s=1.2e-2,
    )
    durations = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    shots = 20000
    rng = rng_stream(20260825, LANE_IDLE)
    data = {}
    for scheme in ("none", "other", "expected"):
        for prep in (0, 1):
            counts = np.array(
                [rng.binomial(shots, idle_scheme_error_prob(scheme, prep, d, truth)) for d in durations]
            )
            data[(scheme, prep)] = (durations, counts, np.full(len(durations), shots))
    est = estimate_idle_rates(data)
    bright_dev = abs(est.rates.bright_per_s - truth.bright_per_s)
    flip_bound = est.rates.flip_per_s + 2 * est.sigma_flip

    idle_row = {r.name: r.value for r in budget_table().rows}["idle_and_leakage"]
    ok = (
        bright_dev <= 2 * est.sigma_bright
        and flip_bound <= 3.6e-3
        and abs(idle_row - 0.62e-7) <= 0.07e-7
    )
    _report(
        "C8",
        ok,
        f"bright rate recovered at {bright_dev / est.sigma_bright:.2f} sigma "
        f"(<= 2); flip bound {flip_bound:.2e}/s (<= 3.6e-3); idle budget row "
        f"{idle_row:.3e} in 0.62e-7 +- 0.07e-7",
    )


def test_09_oracle_equivalences(group):
    """Independent routes to the same answers agree.

    (a) minimal pulse decompositions match a breadth-first search over
    quarter-turn products; (b) the fast analytic tier matches the full
    piecewise-propagator tier to 1e-4 survival; (c) each analytic budget row
    matches its Monte-Carlo counterpart within its validity factor
    (2x for quasi-static amplitude and static detuning, 1.5x for dephasing
    and harmonic modulation at occupations 1, 10, 100).
    """
    gens = [word_matrix((lab,)) for lab in ("+X90", "-X90", "+Y90", "-Y90")]
    depth = {group.find_index(np.eye(2, dtype=complex)): 0}
    frontier = [np.eye(2, dtype=complex)]
    level = 0
    while len(depth) < 24:
        level += 1
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                idx = group.find_index(prod)
                if idx not in depth:
                    depth[idx] = level
                    nxt.append(prod)
        frontier = nxt
    bfs_ok = all(len(decompose_clifford(i, group)) == depth[i] for i in range(24))

    tplan = RBPlan(master_seed=33, lengths=(24,), n_sequences=2, shots_per_sequence=3)

    def mismatch(cfg, zeeman=None):
        fast = _coherent_survival_fast(tplan, 24, group, cfg, RBTiming(), zeeman)
        full = _coherent_survival_full(tplan, 24, group, cfg, RBTiming(), zeeman)
        return float(np.abs(fast - full).max())

    tier_worst = max(
        mismatch(presets.default_noise_config()),
        mismatch(NoiseConfig(detuning_offset=2 * np.pi * 200.0)),
        mismatch(NoiseConfig(), ZeemanModel(shift_at_full_amp=2 * np.pi * 200.0)),
    )

    def survival(seed, length, n_seq, shots, cfg):
        plan = RBPlan(
            master_seed=seed, lengths=(length,), n_sequences=n_seq, shots_per_sequence=shots
        )
        return _coherent_survival_fast(plan, length, group, cfg, RBTiming())

    t2 = 6.9
    surv = survival(12, 3000, 20, 50, NoiseConfig(dephasing_t2=t2))
    gate_time = _MU * RBTiming().pulse_spacing
    deph_ratio = (1 - surv.mean()) / (3000 * gate_time / (3.0 * t2))

    surv = survival(14, 1000, 200, 30, NoiseConfig(sigma0_rel=1e-3))
    amp_ratio = ((1 - surv.mean()) / (1000 * 1e-6)) / (np.pi**2 * (17.0 / 6.0) / 24.0)

    surv = survival(17, 500, 150, 1, NoiseConfig(detuning_offset=2 * np.pi * 100.0))
    det_scale = 500 * _MU * (2 * np.pi * 100.0 * 6e-6) ** 2 / 6.0
    det_ratio = (1 - surv.mean()) / det_scale

    from qubitbench.budget import err_harmonic

    motional_ratios = []
    for n_bar, eta, lengths, n_seq, seed in (
        (1.0, 0.06, (6000, 24000), 30, 30),
        (10.0, 0.025, (6000, 24000), 30, 31),
        (100.0, 0.0102, (1500, 6000), 60, 32),
    ):
        mode = MotionalMode(eta=eta, omega_m=2 * np.pi * 5.6e6, n_bar0=n_bar, heating_rate=0.0)
        plan = RBPlan(seed, lengths=lengths, n_sequences=n_seq, shots_per_sequence=30)
        eps = run_rb(plan, noise=NoiseConfig(motional=mode), group=group).fit().epsilon
        motional_ratios.append(eps / err_harmonic(eta, 2 * np.pi * 5.6e6, n_bar, 6e-6))

    in_window = lambda r, f: 1.0 / f <= r <= f
    ok = (
        bfs_ok
        and tier_worst <= 1e-4
        and in_window(deph_ratio, 1.5)
        and in_window(amp_ratio, 2.0)
        and in_window(det_ratio, 2.0)
        and all(in_window(r, 1.5) for r in motional_ratios)
    )
    _report(
        "C9",
        ok,
        f"minimal decompositions match BFS; tier mismatch {tier_worst:.1e} "
        f"(<= 1e-4); analytic/MC ratios: dephasing {deph_ratio:.2f}, "
        f"amplitude {amp_ratio:.2f}, detuning {det_ratio:.2f}, harmonic "
        f"{', '.join(f'{r:.2f}' for r in motional_ratios)} (all in window)",
    )


def test_10_forward_model_substitute():
    """The measured headline error of the hardware cannot be re-derived here.

    What the toolkit can warrant is forward-model fidelity: every mechanism
    feeding that number is covered by the deterministic checks above, which
    together act as the property-based substitute.
    """
    expected = {f"test_{i:02d}" for i in range(1, 10)}
    present = {name[:7] for name in globals() if name.startswith("test_0")}
    ok = expected <= present
    _report(
        "C10",
        ok,
        "headline hardware error is a physical measurement; forward-model "
        "checks 1-9 stand in for it and are all present",
    )
