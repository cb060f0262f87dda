"""Command-line interface.

Every subcommand resolves its parameters from three layers (command line
over config file over built-in defaults), hashes the resolved parameters,
and stamps the hash and seed into the output so that runs are fully
reproducible: the same resolved configuration and seed produce
byte-identical output.

Config files are strict JSON: ``{"schema": "qubitbench.config.v1",
"command": "<name>", <param>: <value>, ...}``.  Unknown keys are rejected.
The environment variables ``QUBITBENCH_SEED`` and ``QUBITBENCH_WORKERS``
supply fallback values for ``--seed`` and ``--workers``.  ``--workers`` must
be at least 1, but every command runs serially (a thread pool was slower).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, presets
from .budget import (
    IDLE_SCHEMES,
    BudgetInput,
    budget_curve,
    budget_table,
    estimate_idle_rates,
    sample_idle_scheme,
)
from .calibration import (
    CalLoopConfig,
    SimulatedQubitTestbed,
    amplitude_cal_loop,
    frequency_cal_loop,
    records_to_jsonl,
    walsh_fit,
)
from .cliffords import MEAN_PULSES_PER_CLIFFORD, build_clifford_table
from .filterfunc import PhasePSD, SSBCurve, chi_echo, chi_ramsey, predict_irmb, predict_t2
from .fitting import bootstrap_ci
from .noise import LANE_BOOTSTRAP, LANE_IDLE, AmplitudeNoiseModel, IdleRates, NoiseConfig, rng_stream
from .rb import RBTiming, generate_plan, irmb_slope, run_rb

CONFIG_SCHEMA = "qubitbench.config.v1"

# parameter tables: name -> (type, default, help); bools use "flag"
_PARAMS = {
    "rb": {
        "lengths": (str, "300,950,3000,9500,30000", "comma-separated sequence lengths"),
        "sequences": (int, 30, "random sequences per length"),
        "shots": (int, 100, "shots per sequence"),
        "tier": (str, "fast", "physics tier: fast or full"),
        "prep": (int, 0, "prepared basis state (0 or 1)"),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration incl. ramps, s"),
        "ramp_time": (float, presets.RAMP_TIME, "amplitude ramp duration, s"),
        "gap_time": (float, presets.GAP_TIME, "inter-pulse gap, s"),
        "delay": (float, 0.0, "extra idle after every pulse, s"),
        "noise": (str, "default", "noise preset: default, none, or depol"),
        "depol": (float, 1e-4, "per-element depolarizing probability (noise=depol)"),
        "sigma0": (float, None, "override shot-to-shot relative amplitude noise"),
        "detuning_hz": (float, 0.0, "static drive-qubit detuning, Hz"),
        "t2": (float, None, "override dephasing coherence time, s"),
        "spam": (float, None, "override readout flip probability"),
        "motional": (int, 1, "include motional modulation (1) or not (0)"),
        "fit": (int, 1, "include decay fit in JSON output"),
        "bootstrap": (int, 0, "bootstrap resamples for the fit uncertainty"),
    },
    "irmb": {
        "delays": (str, "0,2e-6,5e-6,1e-5", "comma-separated per-pulse delays, s"),
        "lengths": (str, "300,950,3000,9500,30000", "comma-separated sequence lengths"),
        "sequences": (int, 30, "random sequences per length"),
        "shots": (int, 100, "shots per sequence"),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration incl. ramps, s"),
        "gap_time": (float, presets.GAP_TIME, "inter-pulse gap, s"),
        "t2": (float, presets.T2_STAR_STAR, "dephasing coherence time, s"),
        "spam": (float, presets.SPAM, "readout flip probability"),
    },
    "calibrate": {
        "kind": (str, "both", "amplitude, frequency, or both"),
        "shots": (int, 200, "shots per calibration point"),
        "n_start": (int, 1, "initial pulse-group count"),
        "n_max": (int, 256, "maximum pulse-group count"),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise"),
        "spam": (float, presets.SPAM, "readout flip probability"),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration, s"),
        "amp_fraction": (float, presets.AWG_FRACTION, "full-scale fraction at nominal amplitude"),
        "bits": (int, presets.AWG_BITS, "amplitude resolution bits"),
        "drift_a_inf": (float, 4.3e-4, "asymptotic relative amplitude drift"),
        "drift_tau": (float, 240.0, "amplitude drift time constant, s"),
        "freq_drift_hz_per_s": (float, 0.0, "linear qubit-frequency drift rate"),
    },
    "walsh": {
        "max_order": (int, 7, "highest Walsh order to measure"),
        "n_pulses": (int, 64, "pulses per modulated train"),
        "shots": (int, 400, "shots per train"),
        "sweep": (str, "4,8,16,32,64,128", "unmodulated train lengths (multiples of 4)"),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise"),
        "spam": (float, presets.SPAM, "readout flip probability"),
        "t_half_pi": (float, presets.T_HALF_PI, "pi/2 pulse duration, s"),
        "drift_a_inf": (float, 4.3e-4, "asymptotic relative amplitude drift"),
        "drift_tau": (float, 240.0, "amplitude drift time constant, s"),
    },
    "phase-noise": {
        "ssb": (str, None, "CSV file frequency_hz,dbc_per_hz (default: synthetic)"),
        "taus": (str, "1,3,10,30,69,100", "free-precession times, s"),
        "predict_t2": (int, 1, "solve for the 1/e coherence time"),
        "irmb_delays": (str, "", "per-pulse delays for the predicted error curve, s"),
    },
    "budget": {
        "gate_time": (float, presets.GATE_TIME, "average element duration, s"),
        "t2": (float, presets.T2_STAR_STAR, "coherence time, s"),
        "sigma0": (float, presets.SIGMA0_REL, "shot-to-shot relative amplitude noise"),
        "zeeman_hz": (float, presets.ZEEMAN_RESIDUAL_HZ, "residual drive-induced shift, Hz"),
        "zeeman_convention": (str, "twirl", "twirl or worst_case"),
        "harmonic_coefficient": (str, "rb", "rb or single_pulse"),
        "curve": (int, 0, "sweep gate time instead of a single table"),
        "curve_min": (float, 4.4e-6, "sweep start, s"),
        "curve_max": (float, 35e-6, "sweep end, s"),
        "curve_points": (int, 18, "sweep points"),
    },
    "idle-rates": {
        "bright": (float, 5.3549e-3, "true bright-error rate, 1/s"),
        "combo0": (float, 4.3508e-3, "true dark+leak rate, preparation 0, 1/s"),
        "combo1": (float, 4.0162e-3, "true dark+leak rate, preparation 1, 1/s"),
        "flip": (float, 0.0, "true spin-flip rate, 1/s"),
        "spam": (float, presets.SPAM, "readout flip probability"),
        "durations": (str, "0.5,1,2,4", "idle durations, s"),
        "shots": (int, 20000, "shots per setting"),
    },
    "clifford-table": {},
}

# --format choices of the commands that can write more than the JSON document
_FORMATS = {
    "rb": ("json", "csv"),
    "calibrate": ("json", "jsonl"),
    "budget": ("json", "csv"),
}


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


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
        p.add_argument("--seed", type=int, default=None, help="master seed (env QUBITBENCH_SEED)")
        p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", type=str, default="json", choices=_FORMATS.get(command, ("json",)))
        p.add_argument("--workers", type=int, default=None, help="must be >= 1; runs serially (env QUBITBENCH_WORKERS)")
        for name, (typ, default, help_text) in params.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None, help=help_text)
    return parser


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge CLI > config file > defaults; validate strictly."""
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
    for name, (typ, default, _help) in params.items():
        cli_val = getattr(args, name)
        if cli_val is not None:
            resolved[name] = cli_val
        elif name in config:
            val = config[name]
            if val is not None and not isinstance(val, (int, float, str, bool)):
                parser.error(f"config key {name!r} must be a scalar")
            resolved[name] = typ(val) if val is not None else None
        else:
            resolved[name] = default
    return resolved


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QUBITBENCH_SEED")
    return int(env) if env else 20260825


def _check_workers(args) -> None:
    """Validate ``--workers`` (env ``QUBITBENCH_WORKERS``); every command runs serially."""
    n = args.workers if args.workers is not None else int(os.environ.get("QUBITBENCH_WORKERS", "1"))
    if n < 1:
        raise ValueError("workers must be at least 1")


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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _noise_from(resolved: dict) -> NoiseConfig:
    preset = resolved["noise"]
    if preset == "none":
        noise = NoiseConfig()
    elif preset == "depol":
        noise = NoiseConfig(
            depolarizing_per_gate=resolved["depol"],
            spam=resolved["spam"] if resolved["spam"] is not None else presets.SPAM,
        )
    elif preset == "default":
        noise = presets.default_noise_config(include_motional=bool(resolved["motional"]))
    else:
        raise ValueError("noise must be default, none, or depol")
    if preset != "depol":
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
    plan = generate_plan(
        seed,
        lengths=_parse_int_list(resolved["lengths"]),
        n_sequences=resolved["sequences"],
        shots_per_sequence=resolved["shots"],
        prepared_state=resolved["prep"],
    )
    noise = _noise_from(resolved)
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
        fit_doc = {
            "epsilon": fit.epsilon,
            "amplitude": fit.amplitude,
            "converged": fit.converged,
            "at_boundary": fit.at_boundary,
            "identifiable": fit.identifiable,
        }
        if resolved["bootstrap"]:
            lo, hi, _ = bootstrap_ci(
                dataset.lengths,
                dataset.successes,
                dataset.shots,
                rng_stream(seed, LANE_BOOTSTRAP),
                n_resamples=resolved["bootstrap"],
            )
            fit_doc["epsilon_ci68"] = [lo, hi]
        payload["fit"] = fit_doc
    return payload


def _cmd_irmb(resolved: dict, seed: int, fmt: str) -> dict:
    delays = _parse_float_list(resolved["delays"])
    lengths = _parse_int_list(resolved["lengths"])
    noise = NoiseConfig(dephasing_t2=resolved["t2"], spam=resolved["spam"])
    results = []
    for i, delay in enumerate(delays):
        plan = generate_plan(
            seed + i,
            lengths=lengths,
            n_sequences=resolved["sequences"],
            shots_per_sequence=resolved["shots"],
        )
        timing = RBTiming(
            t_half_pi=resolved["t_half_pi"],
            gap_time=resolved["gap_time"],
            delay_per_pulse=delay,
        )
        ds = run_rb(plan, noise=noise, timing=timing)
        fit = ds.fit()
        results.append({"delay": delay, "epsilon": fit.epsilon, "converged": fit.converged})
    slope = irmb_slope([r["delay"] for r in results], [r["epsilon"] for r in results])
    return {
        "points": results,
        "slope_per_s": slope.slope_per_s,
        "slope_stderr": slope.slope_stderr,
        "intercept": slope.intercept,
        "predicted_slope_per_s": MEAN_PULSES_PER_CLIFFORD / (3 * resolved["t2"]),
    }


def _make_testbed(resolved: dict, seed: int) -> SimulatedQubitTestbed:
    amp_drift = (
        presets.thermal_amp_drift(resolved["drift_a_inf"], resolved["drift_tau"])
        if resolved["drift_a_inf"]
        else None
    )
    freq_drift = (
        presets.linear_freq_drift(resolved["freq_drift_hz_per_s"])
        if resolved.get("freq_drift_hz_per_s")
        else None
    )
    return SimulatedQubitTestbed(
        master_seed=seed,
        t_half_pi=resolved["t_half_pi"],
        amp_fraction=resolved.get("amp_fraction", presets.AWG_FRACTION),
        sigma0_rel=resolved["sigma0"],
        spam=resolved["spam"],
        amp_drift=amp_drift,
        freq_drift=freq_drift,
    )


def _cal_record_doc(records) -> list[dict]:
    return json.loads("[" + ",".join(records_to_jsonl(records).splitlines()) + "]") if records else []


def _cmd_calibrate(resolved: dict, seed: int, fmt: str):
    testbed = _make_testbed(resolved, seed)
    config = CalLoopConfig(
        n_start=resolved["n_start"], n_max=resolved["n_max"], shots=resolved["shots"]
    )
    records = []
    if resolved["kind"] in ("amplitude", "both"):
        records.extend(amplitude_cal_loop(testbed, config))
    if resolved["kind"] in ("frequency", "both"):
        records.extend(frequency_cal_loop(testbed, config))
    if resolved["kind"] not in ("amplitude", "frequency", "both"):
        raise ValueError("kind must be amplitude, frequency, or both")
    if fmt == "jsonl":
        return records_to_jsonl(records)
    residual = testbed.true_relative_error(testbed.clock)
    return {
        "records": _cal_record_doc(records),
        "final": {
            "amp_setting": testbed.amp_setting,
            "detuning_setting": testbed.detuning_setting,
            "wall_clock": testbed.clock,
            "residual_relative_error": residual,
        },
    }


def _cmd_walsh(resolved: dict, seed: int, fmt: str) -> dict:
    local = dict(resolved)
    local.setdefault("freq_drift_hz_per_s", 0.0)
    testbed = _make_testbed(local, seed)
    sweep = _parse_int_list(resolved["sweep"])
    result = walsh_fit(
        testbed,
        max_order=resolved["max_order"],
        n_pulses=resolved["n_pulses"],
        shots=resolved["shots"],
        n_sweep=sweep,
    )
    return {
        "mean_rel": result["mean_rel"],
        "sigma_rel": result["sigma_rel"],
        "coefficients": {
            str(k): {
                "coefficient": v.coefficient,
                "sigma": v.sigma,
                "n_pulses": v.n_pulses,
                "p_zero": v.p_zero,
            }
            for k, v in result["coefficients"].items()
        },
    }


def _cmd_phase_noise(resolved: dict, seed: int, fmt: str) -> dict:
    if resolved["ssb"]:
        with open(resolved["ssb"]) as fh:
            curve = SSBCurve.from_csv(fh.read())
        psd = PhasePSD.from_ssb(curve)
    else:
        psd = presets.default_phase_psd()
    taus = _parse_float_list(resolved["taus"])
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
        payload["t2_ramsey_s"] = predict_t2(psd, "ramsey", bracket=(1e-2, 1e4))
    if resolved["irmb_delays"]:
        delays = _parse_float_list(resolved["irmb_delays"])
        eps = predict_irmb(psd, delays)
        payload["irmb_prediction"] = [
            {"delay": d, "epsilon_increase": float(e)} for d, e in zip(delays, eps)
        ]
    return payload


def _cmd_budget(resolved: dict, seed: int, fmt: str):
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
    true = IdleRates(
        bright_per_s=resolved["bright"],
        dark_plus_leak_prep0_per_s=resolved["combo0"],
        dark_plus_leak_prep1_per_s=resolved["combo1"],
        flip_per_s=resolved["flip"],
    )
    durations = np.array(_parse_float_list(resolved["durations"]))
    shots = resolved["shots"]
    rng = rng_stream(seed, LANE_IDLE)
    data = {}
    for scheme in IDLE_SCHEMES:
        for prep in (0, 1):
            errs = np.array(
                [
                    sample_idle_scheme(rng, scheme, prep, float(t), true, shots, resolved["spam"])
                    for t in durations
                ]
            )
            data[(scheme, prep)] = (durations, errs, np.full(len(durations), shots))
    est = estimate_idle_rates(data)
    return {
        "true": {
            "bright_per_s": true.bright_per_s,
            "dark_plus_leak_prep0_per_s": true.dark_plus_leak_prep0_per_s,
            "dark_plus_leak_prep1_per_s": true.dark_plus_leak_prep1_per_s,
            "flip_per_s": true.flip_per_s,
        },
        "estimated": {
            "bright_per_s": est.rates.bright_per_s,
            "dark_plus_leak_prep0_per_s": est.rates.dark_plus_leak_prep0_per_s,
            "dark_plus_leak_prep1_per_s": est.rates.dark_plus_leak_prep1_per_s,
            "flip_per_s": est.rates.flip_per_s,
            "sigma_bright": est.sigma_bright,
            "sigma_flip": est.sigma_flip,
        },
        "flip_consistent": est.flip_consistent,
        "rb_error_rate_per_s": est.rates.rb_error_rate_per_s(),
    }


def _cmd_clifford_table(resolved: dict, seed: int, fmt: str) -> str:
    return build_clifford_table().to_json()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    resolved = _resolve(args, parser)
    seed = _seed_of(args)
    try:
        _check_workers(args)
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
