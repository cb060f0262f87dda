"""Command-line interface.

Every subcommand resolves its parameters from three layers (command line
over config file over built-in defaults), hashes the resolved parameters,
and stamps the hash and seed into the output so that runs are fully
reproducible: the same resolved configuration and seed produce
byte-identical output.

Config files are strict JSON: ``{"schema": "qubitbench.config.v1",
"command": "<name>", <param>: <value>, ...}``.  Unknown keys are rejected.
The environment variables ``QUBITBENCH_SEED`` and ``QUBITBENCH_WORKERS``
supply fallback values for ``--seed`` and ``--workers``.  ``--workers`` is
checked and otherwise ignored: ``rb`` and ``irmb`` spread their lengths over
the CPUs the process may use on their own (``rb.run_rb``), and no other
command runs in parallel (a thread pool was slower).

Each option has one declared domain, written next to its type, default and
help in ``_PARAMS`` (``_RUN_PARAMS`` for ``--seed`` and ``--workers``).
``_resolve`` checks every value against it, whether it comes from a flag, a
config file or one of the two environment variables, before any work runs.
A value outside its domain, or a config value of the wrong type (``2.9`` or
``true`` for an integer), exits 1 with one error line that names the option.
A rule that joins options, such as ``rb``'s ``--t-half-pi`` above twice
``--ramp-time``, names each of them (``_about``).

At module level this file imports only the standard library, numpy,
``__version__`` and ``presets``, which the option tables read.  Each handler
imports what it calls from the module that defines it, so a command loads
only the modules it runs: ``clifford-table`` loads ``cliffords`` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__, presets

CONFIG_SCHEMA = "qubitbench.config.v1"


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


class _Domain:
    """The values an option accepts: ``ok`` tests one, ``text`` names them."""

    def __init__(self, text: str, ok):
        self.text, self.ok = text, ok


_FINITE = _Domain("a finite number", lambda v: abs(v) < np.inf)
_POSITIVE = _Domain("a finite number > 0", lambda v: 0 < v < np.inf)
_NON_NEGATIVE = _Domain("a finite number >= 0", lambda v: 0 <= v < np.inf)
_SPAM = _Domain("a probability in [0, 0.5)", lambda v: 0 <= v < 0.5)
_PROBABILITY = _Domain("a probability in [0, 1)", lambda v: 0 <= v < 1)
_FRACTION = _Domain("a number in (0, 1]", lambda v: 0 < v <= 1)
_RELATIVE = _Domain("a relative change in (-1, 1)", lambda v: -1 < v < 1)
_SWITCH = _Domain("0 or 1", lambda v: v in (0, 1))
_TEXT = _Domain("text", lambda v: True)


def _at_least(k: int, most: float = np.inf) -> _Domain:
    text = f"an integer >= {k}" if most == np.inf else f"an integer in [{k}, {most}]"
    return _Domain(text, lambda v: k <= v <= most)


def _one_of(*choices: str) -> _Domain:
    return _Domain("one of " + ", ".join(choices), lambda v: v in choices)


def _list_of(parse, each: _Domain, least: int = 0, unique: bool = False) -> _Domain:
    """Comma-separated values read by `parse`, each in `each`: at least
    `least` distinct ones, and none repeated if `unique`."""

    def ok(text: str) -> bool:
        values = parse(text)
        distinct = len(set(values))
        return distinct >= least and not (unique and distinct < len(values)) and all(map(each.ok, values))

    rules = [f"at least {least} distinct"] * bool(least) + ["none repeated"] * unique
    return _Domain(", ".join([f"comma-separated values, each {each.text}", *rules]), ok)


_LENGTHS = _list_of(_parse_int_list, _at_least(1), least=1, unique=True)
_DECAY_LENGTHS = _list_of(_parse_int_list, _at_least(1), least=2, unique=True)  # one length cannot separate eps from A
_TIMES = _list_of(_parse_float_list, _NON_NEGATIVE)
_TWO_TIMES = _list_of(_parse_float_list, _NON_NEGATIVE, least=2)  # a line fit's abscissae
_SWEEP = _list_of(_parse_int_list, _Domain("a positive multiple of 4", lambda v: v > 0 and v % 4 == 0), least=1)

# parameter tables: name -> (type, default, help, domain); a None default
# means "not set", and a config file may set such an option to null
_PARAMS = {
    "rb": {
        "lengths": (str, ",".join(map(str, presets.RB_LENGTHS)), "comma-separated sequence lengths", _LENGTHS),
        "sequences": (int, presets.RB_SEQUENCES, "random sequences per length", _at_least(1)),
        "shots": (int, presets.RB_SHOTS, "shots per sequence", _at_least(1)),
        "tier": (str, "fast", "physics tier: fast or full", _one_of("fast", "full")),
        "prep": (int, 0, "prepared basis state (0 or 1)", _SWITCH),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration incl. ramps, s", _POSITIVE),
        "ramp_time": (float, presets.RAMP_TIME, "amplitude ramp duration, s", _NON_NEGATIVE),
        "gap_time": (float, presets.GAP_TIME, "inter-pulse gap, s", _NON_NEGATIVE),
        "delay": (float, 0.0, "extra idle after every pulse, s", _NON_NEGATIVE),
        "noise": (str, "default", "noise preset: default, none, or depol", _one_of("default", "none", "depol")),
        "depol": (float, 1e-4, "per-element depolarizing probability (noise=depol)", _PROBABILITY),
        "sigma0": (float, None, "override shot-to-shot relative amplitude noise", _NON_NEGATIVE),
        "detuning_hz": (float, 0.0, "static drive-qubit detuning, Hz", _FINITE),
        "t2": (float, None, "override dephasing coherence time, s", _POSITIVE),
        "spam": (float, None, "override readout flip probability", _SPAM),
        "motional": (int, 1, "include motional modulation (1) or not (0)", _SWITCH),
        "fit": (int, 1, "include decay fit in JSON output", _SWITCH),
        "bootstrap": (int, 0, "bootstrap resamples for the fit uncertainty", _at_least(0)),
    },
    "irmb": {
        "delays": (str, "0,2e-6,5e-6,1e-5", "comma-separated per-pulse delays, s", _TWO_TIMES),
        "lengths": (str, ",".join(map(str, presets.RB_LENGTHS)), "comma-separated sequence lengths", _DECAY_LENGTHS),
        "sequences": (int, presets.RB_SEQUENCES, "random sequences per length", _at_least(1)),
        "shots": (int, presets.RB_SHOTS, "shots per sequence", _at_least(1)),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration incl. ramps, s", _POSITIVE),
        "gap_time": (float, presets.GAP_TIME, "inter-pulse gap, s", _NON_NEGATIVE),
        "t2": (float, presets.T2_STAR_STAR, "dephasing coherence time, s", _POSITIVE),
        "spam": (float, presets.SPAM, "readout flip probability", _SPAM),
    },
    "calibrate": {
        "kind": (str, "both", "amplitude, frequency, or both", _one_of("amplitude", "frequency", "both")),
        "shots": (int, presets.CAL_SHOTS, "shots per calibration point", _at_least(10)),
        "n_max": (int, presets.CAL_N_MAX, "maximum pulse-group count", _at_least(1)),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise", _NON_NEGATIVE),
        "spam": (float, presets.SPAM, "readout flip probability", _SPAM),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration, s", _POSITIVE),
        "amp_fraction": (float, presets.AWG_FRACTION, "full-scale fraction at nominal amplitude", _FRACTION),
        "bits": (int, presets.AWG_BITS, "amplitude resolution bits", _at_least(1, most=40)),
        "drift_a_inf": (float, presets.DRIFT_A_INF, "asymptotic relative amplitude drift", _RELATIVE),
        "drift_tau": (float, presets.DRIFT_TAU, "amplitude drift time constant, s", _POSITIVE),
        "freq_drift_hz_per_s": (float, 0.0, "linear qubit-frequency drift rate", _FINITE),
    },
    "walsh": {
        "max_order": (int, presets.WALSH_MAX_ORDER, "highest Walsh order to measure", _at_least(0)),
        "n_pulses": (int, presets.WALSH_N_PULSES, "pulses per modulated train", _at_least(1)),
        "shots": (int, presets.WALSH_SHOTS, "shots per train", _at_least(1)),
        "sweep": (str, ",".join(map(str, presets.WALSH_SWEEP)), "unmodulated train lengths (multiples of 4)", _SWEEP),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise", _NON_NEGATIVE),
        "spam": (float, presets.SPAM, "readout flip probability", _SPAM),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration, s", _POSITIVE),
        "drift_a_inf": (float, presets.DRIFT_A_INF, "asymptotic relative amplitude drift", _RELATIVE),
        "drift_tau": (float, presets.DRIFT_TAU, "amplitude drift time constant, s", _POSITIVE),
    },
    "phase-noise": {
        "ssb": (str, None, "CSV file frequency_hz,dbc_per_hz (default: synthetic)", _TEXT),
        "taus": (str, "1,3,10,30,69,100", "free-precession times, s", _TIMES),
        "predict_t2": (int, 1, "solve for the 1/e coherence time", _SWITCH),
        "irmb_delays": (str, "", "per-pulse delays for the predicted error curve, s", _TIMES),
    },
    "budget": {
        "gate_time": (float, presets.GATE_TIME, "average element duration, s", _POSITIVE),
        "t2": (float, presets.T2_STAR_STAR, "coherence time, s", _POSITIVE),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise", _NON_NEGATIVE),
        "zeeman_hz": (float, presets.ZEEMAN_RESIDUAL_HZ, "residual drive-induced shift, Hz", _FINITE),
        "zeeman_convention": (str, "twirl", "twirl or worst_case", _one_of(*presets.ZEEMAN_CONVENTIONS)),
        "harmonic_coefficient": (str, "rb", "rb or single_pulse", _one_of(*presets.HARMONIC_COEFFICIENTS)),
        "curve": (int, 0, "sweep gate time instead of a single table", _SWITCH),
        "curve_min": (float, presets.CURVE_GATE_TIME_MIN, "sweep start, s", _POSITIVE),
        "curve_max": (float, presets.CURVE_GATE_TIME_MAX, "sweep end, s", _POSITIVE),
        "curve_points": (int, presets.CURVE_POINTS, "sweep points", _at_least(1)),
    },
    "idle-rates": {
        "bright": (float, presets.BRIGHT_PER_S, "true bright-error rate, 1/s", _NON_NEGATIVE),
        "combo0": (float, presets.DARK_PLUS_LEAK_PREP0_PER_S, "true dark+leak rate, preparation 0, 1/s", _NON_NEGATIVE),
        "combo1": (float, presets.DARK_PLUS_LEAK_PREP1_PER_S, "true dark+leak rate, preparation 1, 1/s", _NON_NEGATIVE),
        "flip": (float, 0.0, "true spin-flip rate, 1/s", _NON_NEGATIVE),
        "spam": (float, presets.SPAM, "readout flip probability", _SPAM),
        "durations": (str, "0.5,1,2,4", "idle durations, s", _TWO_TIMES),
        "shots": (int, 20000, "shots per setting", _at_least(1)),
    },
    "clifford-table": {},
}

# options of every command, in the same form: where the flag is absent the
# environment variable QUBITBENCH_<NAME> sets them, no config key does, and
# they are not hashed
_RUN_PARAMS = {
    "seed": (int, 20260825, "master seed (env QUBITBENCH_SEED)", _at_least(0)),
    "workers": (int, 1, "ignored: rb and irmb use the CPUs they may (env QUBITBENCH_WORKERS)", _at_least(1)),
}

# --format choices of the commands that can write more than the JSON document
_FORMATS = {
    "rb": ("json", "csv"),
    "calibrate": ("json", "jsonl"),
    "budget": ("json", "csv"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitbench",
        description="single-qubit gate benchmarking, calibration, and error-budget toolkit",
    )
    parser.add_argument("--version", action="version", version=f"qubitbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in _PARAMS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None, help="strict JSON config file")
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", type=str, default="json", choices=_FORMATS.get(command, ("json",)))
        for name, (typ, _default, help_text, _domain) in {**_RUN_PARAMS, **params}.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None, help=help_text)
    return parser


def _checked(label: str, typ: type, domain: _Domain, raw):
    """`raw` as `typ`, or ValueError naming `label` if it is no value of `domain`.

    ``true`` is neither a number nor text, and an integer option takes no
    fraction: ``true`` is not read as 1, nor ``2.9`` truncated to 2.
    """
    lossy = isinstance(raw, bool) or (typ is int and isinstance(raw, float) and not raw.is_integer())
    try:
        if not lossy and domain.ok(value := typ(raw)):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{label} must be {domain.text}, not {raw!r}")


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[dict, int]:
    """The command's parameters (CLI > config file > defaults) and the seed.

    A malformed config file is a usage error (exit 2).  Every value, from a
    flag, a config file or ``QUBITBENCH_SEED``/``QUBITBENCH_WORKERS`` (an
    empty variable is unset), is checked against its option's domain; one
    outside it raises ValueError.
    """
    params = _PARAMS[args.command]
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if config.get("schema") != CONFIG_SCHEMA:
            parser.error(f"config schema must be {CONFIG_SCHEMA!r}")
        declared = config.pop("command", args.command)
        if declared != args.command:
            parser.error(f"config is for command {declared!r}, not {args.command!r}")
        config.pop("schema")
        unknown = set(config) - set(params)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")

    resolved = {}
    for name, (typ, default, _help, domain) in {**params, **_RUN_PARAMS}.items():
        flag, env = getattr(args, name), f"QUBITBENCH_{name.upper()}"
        if flag is not None:
            label, raw = f"--{name.replace('_', '-')}", flag
        elif name in config:
            label, raw = f"config key {name!r}", config[name]
            if isinstance(raw, (list, dict)):
                parser.error(f"{label} must be a scalar")
        elif name in _RUN_PARAMS and os.environ.get(env):
            label, raw = f"{env} (--{name})", os.environ[env]
        else:
            resolved[name] = default
            continue
        resolved[name] = None if raw is None and default is None else _checked(label, typ, domain, raw)
    del resolved["workers"]
    return resolved, resolved.pop("seed")


def _config_hash(command: str, resolved: dict, seed: int) -> str:
    blob = json.dumps({"command": command, "params": resolved, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(command: str, resolved: dict, seed: int, payload: dict) -> str:
    doc = {
        "run": {
            "command": command,
            "config_hash": _config_hash(command, resolved, seed),
            "seed": seed,
            "version": __version__,
        },
        **payload,
    }
    # NaN and infinity are not JSON: refuse them rather than print them
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextlib.contextmanager
def _about(resolved: dict, *names: str):
    """Prefix a ValueError raised inside with the options `names` and their values."""
    try:
        yield
    except ValueError as exc:
        options = " and ".join(f"--{name.replace('_', '-')} {resolved[name]!r}" for name in names)
        raise ValueError(f"{options}: {exc}") from None


def _noise_from(resolved: dict):
    """The preset's noise, then every override set: each applies to every preset."""
    from .noise import AmplitudeNoiseModel, NoiseConfig

    preset = resolved["noise"]
    if preset == "none":
        noise = NoiseConfig()
    elif preset == "depol":
        noise = NoiseConfig(depolarizing_per_gate=resolved["depol"], spam=presets.SPAM)
    else:
        noise = presets.default_noise_config(include_motional=bool(resolved["motional"]))
    if resolved["sigma0"] is not None:
        sigma0, amp = resolved["sigma0"], noise.amplitude
        amp = replace(amp, sigma_rel=sigma0) if amp else AmplitudeNoiseModel(sigma_rel=sigma0)
        noise = replace(noise, amplitude=amp)
    if resolved["t2"] is not None:
        noise = replace(noise, dephasing_t2=resolved["t2"])
    if resolved["spam"] is not None:
        noise = replace(noise, spam=resolved["spam"])
    if resolved["detuning_hz"]:
        noise = replace(noise, detuning_offset=2 * np.pi * resolved["detuning_hz"])
    return noise


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_rb(resolved: dict, seed: int, fmt: str) -> str | dict:
    from .fitting import bootstrap_ci
    from .noise import LANE_BOOTSTRAP, rng_stream
    from .rb import RBPlan, RBTiming, run_rb

    if resolved["bootstrap"] and (fmt == "csv" or not resolved["fit"]):
        clash = "--format csv" if fmt == "csv" else "--fit 0"
        raise ValueError(f"--bootstrap {resolved['bootstrap']} needs the JSON fit, which {clash} leaves out")
    plan = RBPlan(seed, lengths=_parse_int_list(resolved["lengths"]), n_sequences=resolved["sequences"],
                  shots_per_sequence=resolved["shots"], prepared_state=resolved["prep"])
    noise = _noise_from(resolved)
    with _about(resolved, "t_half_pi", "ramp_time"):
        timing = RBTiming(
            t_half_pi=resolved["t_half_pi"],
            ramp_time=resolved["ramp_time"],
            gap_time=resolved["gap_time"],
            delay_per_pulse=resolved["delay"],
        )
    dataset = run_rb(plan, noise=noise, timing=timing, tier=resolved["tier"])
    if fmt == "csv":
        return dataset.to_csv()
    payload: dict = {"dataset": json.loads(dataset.to_json())}
    if resolved["fit"]:
        fit = dataset.fit()
        fit_doc = {k: getattr(fit, k) for k in ("epsilon", "amplitude", "converged", "at_boundary", "identifiable")}
        if resolved["bootstrap"]:
            lo, hi, _ = bootstrap_ci(
                dataset.lengths, dataset.successes, dataset.shots, rng_stream(seed, LANE_BOOTSTRAP),
                n_resamples=resolved["bootstrap"], fit=fit,
            )
            fit_doc["epsilon_ci68"] = [lo, hi]
        payload["fit"] = fit_doc
    return payload


def _cmd_irmb(resolved: dict, seed: int, fmt: str) -> dict:
    from .budget import err_decoherence
    from .noise import NoiseConfig
    from .rb import RBPlan, RBTiming, irmb_slope, run_rb

    delays = _parse_float_list(resolved["delays"])
    lengths = _parse_int_list(resolved["lengths"])
    noise = NoiseConfig(dephasing_t2=resolved["t2"], spam=resolved["spam"])
    results = []
    for i, delay in enumerate(delays):
        plan = RBPlan(seed + i, lengths=lengths, n_sequences=resolved["sequences"], shots_per_sequence=resolved["shots"])
        with _about(resolved, "t_half_pi"):
            timing = RBTiming(t_half_pi=resolved["t_half_pi"], gap_time=resolved["gap_time"], delay_per_pulse=delay)
        ds = run_rb(plan, noise=noise, timing=timing)
        fit = ds.fit()
        results.append({"delay": delay, "epsilon": fit.epsilon, "converged": fit.converged})
    slope = irmb_slope([r["delay"] for r in results], [r["epsilon"] for r in results])
    return {
        "points": results,
        "slope_per_s": slope.slope_per_s,
        "slope_stderr": slope.slope_stderr,
        "intercept": slope.intercept,
        "predicted_slope_per_s": err_decoherence(presets.MEAN_PULSES_PER_CLIFFORD, resolved["t2"]),
    }


def _make_testbed(resolved: dict, seed: int):
    """The testbed of `calibrate` or `walsh`, from the options the command
    declares; the testbed's own defaults set the rest."""
    from .calibration import SimulatedQubitTestbed
    from .noise import QuantizerConfig

    hardware = {}
    if "bits" in resolved:  # calibrate's waveform generator
        hardware = {"amp_fraction": resolved["amp_fraction"], "quantizer": QuantizerConfig(bits=resolved["bits"])}
    if resolved.get("freq_drift_hz_per_s"):
        hardware["freq_drift"] = presets.linear_freq_drift(resolved["freq_drift_hz_per_s"])
    if resolved["drift_a_inf"]:
        hardware["amp_drift"] = presets.thermal_amp_drift(resolved["drift_a_inf"], resolved["drift_tau"])
    return SimulatedQubitTestbed(
        seed, t_half_pi=resolved["t_half_pi"], sigma0_rel=resolved["sigma0"], spam=resolved["spam"], **hardware
    )


def _cmd_calibrate(resolved: dict, seed: int, fmt: str):
    from .calibration import CalLoopConfig, amplitude_cal_loop, frequency_cal_loop, records_to_jsonl

    testbed = _make_testbed(resolved, seed)
    config = CalLoopConfig(n_max=resolved["n_max"], shots=resolved["shots"])
    records = []
    if resolved["kind"] in ("amplitude", "both"):
        records.extend(amplitude_cal_loop(testbed, config))
    if resolved["kind"] in ("frequency", "both"):
        records.extend(frequency_cal_loop(testbed, config))
    if fmt == "jsonl":
        return records_to_jsonl(records)
    residual = testbed.true_relative_error(testbed.clock)
    return {
        "records": [asdict(r) for r in records],
        "final": {
            "amp_setting": testbed.amp_setting,
            "detuning_setting": testbed.detuning_setting,
            "wall_clock": testbed.clock,
            "residual_relative_error": residual,
        },
    }


def _cmd_walsh(resolved: dict, seed: int, fmt: str) -> dict:
    from .calibration import walsh_fit, walsh_sign_train

    if resolved["max_order"]:
        with _about(resolved, "n_pulses", "max_order"):
            walsh_sign_train(resolved["max_order"], resolved["n_pulses"])  # raises if the trains do not fit
    testbed = _make_testbed(resolved, seed)
    result = walsh_fit(
        testbed, max_order=resolved["max_order"], n_pulses=resolved["n_pulses"], shots=resolved["shots"],
        n_sweep=_parse_int_list(resolved["sweep"]),
    )
    return {
        "mean_rel": result["mean_rel"],
        "sigma_rel": result["sigma_rel"],
        "coefficients": {
            str(k): {f: getattr(v, f) for f in ("coefficient", "sigma", "n_pulses", "p_zero")}
            for k, v in result["coefficients"].items()
        },
    }


def _cmd_phase_noise(resolved: dict, seed: int, fmt: str) -> dict:
    from .filterfunc import PhasePSD, SSBCurve, chi_echo, chi_ramsey, predict_irmb, predict_t2

    taus = _parse_float_list(resolved["taus"])
    delays = _parse_float_list(resolved["irmb_delays"])
    if path := resolved["ssb"]:
        try:
            with open(path) as fh:
                curve = SSBCurve.from_csv(fh.read())
        except (OSError, ValueError) as exc:
            raise ValueError(f"--ssb {path!r}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
        psd = PhasePSD.from_ssb(curve)
    else:
        psd = presets.default_phase_psd()
    rows = []
    for tau in taus:
        chi_r = chi_ramsey(psd, tau)
        chi_e = chi_echo(psd, tau)
        rows.append(
            {
                "tau": tau,
                "chi_ramsey": chi_r,
                "coherence_ramsey": float(np.exp(-chi_r)),
                "fidelity_ramsey": float(0.5 * (1 + np.exp(-chi_r))),
                "chi_echo": chi_e,
                "coherence_echo": float(np.exp(-chi_e)),
            }
        )
    payload: dict = {"psd": psd.label, "curves": rows}
    if resolved["predict_t2"]:
        payload["t2_ramsey_s"] = predict_t2(psd, "ramsey")
    if resolved["irmb_delays"]:
        eps = predict_irmb(psd, delays)
        payload["irmb_prediction"] = [
            {"delay": d, "epsilon_increase": float(e)} for d, e in zip(delays, eps)
        ]
    return payload


def _cmd_budget(resolved: dict, seed: int, fmt: str):
    from .budget import BudgetInput, budget_curve, budget_table

    inputs = BudgetInput(
        gate_time=resolved["gate_time"],
        t2=resolved["t2"],
        sigma0_rel=resolved["sigma0"],
        zeeman_residual_hz=resolved["zeeman_hz"],
        zeeman_convention=resolved["zeeman_convention"],
        harmonic_coefficient=resolved["harmonic_coefficient"],
    )
    if resolved["curve"]:
        times = np.linspace(resolved["curve_min"], resolved["curve_max"], resolved["curve_points"])
        curve = budget_curve(inputs, times)
        if fmt == "csv":
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            keys = list(curve.keys())
            w.writerow(keys)
            for i in range(len(curve["gate_time"])):
                w.writerow([repr(curve[k][i]) for k in keys])
            return buf.getvalue()
        return {"curve": curve}
    table = budget_table(inputs)
    if fmt == "csv":
        return table.to_csv()
    return {"budget": table.as_dict()}


def _cmd_idle_rates(resolved: dict, seed: int, fmt: str) -> dict:
    from .budget import IDLE_SCHEMES, estimate_idle_rates, idle_scheme_error_prob
    from .noise import LANE_IDLE, IdleRates, rng_stream

    true = IdleRates(
        bright_per_s=resolved["bright"],
        dark_plus_leak_prep0_per_s=resolved["combo0"],
        dark_plus_leak_prep1_per_s=resolved["combo1"],
        flip_per_s=resolved["flip"],
    )
    durations = np.array(_parse_float_list(resolved["durations"]))
    shots, spam = resolved["shots"], resolved["spam"]
    rng = rng_stream(seed, LANE_IDLE)
    data = {}
    try:
        for scheme in IDLE_SCHEMES:
            for prep in (0, 1):
                errs = rng.binomial(shots, [idle_scheme_error_prob(scheme, prep, t, true, spam) for t in durations])
                data[(scheme, prep)] = (durations, errs, np.full(len(durations), shots))
    except ValueError as exc:  # a duration too long for the linearized rates
        raise ValueError(f"--durations {resolved['durations']!r}: {exc}") from None
    est = estimate_idle_rates(data)
    rates = ("bright_per_s", "dark_plus_leak_prep0_per_s", "dark_plus_leak_prep1_per_s", "flip_per_s")
    return {
        "true": {k: getattr(true, k) for k in rates},
        "estimated": {
            **{k: getattr(est.rates, k) for k in rates},
            "sigma_bright": est.sigma_bright,
            "sigma_flip": est.sigma_flip,
        },
        "flip_consistent": est.flip_consistent,
        "rb_error_rate_per_s": est.rates.rb_error_rate_per_s(),
    }


def _cmd_clifford_table(resolved: dict, seed: int, fmt: str) -> str:
    from .cliffords import build_clifford_table

    return build_clifford_table().to_json()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolved, seed = _resolve(args, parser)
        handler = {
            "rb": _cmd_rb,
            "irmb": _cmd_irmb,
            "calibrate": _cmd_calibrate,
            "walsh": _cmd_walsh,
            "phase-noise": _cmd_phase_noise,
            "budget": _cmd_budget,
            "idle-rates": _cmd_idle_rates,
            "clifford-table": _cmd_clifford_table,
        }[args.command]
        result = handler(resolved, seed, args.format)
        if isinstance(result, str):
            _emit(result, args.out)
        else:
            _emit(_json_doc(args.command, resolved, seed, result), args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"qubitbench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
