"""End-to-end tests of the ``qubitbench`` command-line interface.

Each test launches the CLI in a subprocess, so argument parsing, config
resolution, output formatting, and exit codes are exercised exactly as a
user would see them.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_startup import TINY

from qubitbench import __version__, budget, calibration, cli, rb
from qubitbench.cli import _json_doc
from qubitbench.cliffords import build_clifford_table

# a deliberately tiny randomized-benchmarking run for fast CLI round trips
TINY_RB = (
    "rb",
    "--lengths", "20,60",
    "--sequences", "3",
    "--shots", "20",
    "--noise", "depol",
    "--depol", "1e-3",
)

# the same run as a config file's parameters
TINY_RB_CONFIG = {"lengths": "20,60", "sequences": 3, "shots": 20, "noise": "depol", "depol": 1e-3}


def _config_file(tmp_path, params: dict, command: str = "rb") -> str:
    """Path of a config file for `command` holding `params`; NaN and infinity
    are written as JSON's ``NaN`` and ``Infinity`` literals."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": cli.CONFIG_SCHEMA, "command": command, **params}))
    return str(path)


class _File(str):
    """An argument naming a file that holds this text."""


def _argv(args, tmp_path) -> list[str]:
    """`args` with each dict replaced by a config file and each `_File` by a file."""
    argv = []
    for a in args:
        if isinstance(a, _File):
            (tmp_path / "input.csv").write_text(a)
            a = str(tmp_path / "input.csv")
        argv.append(_config_file(tmp_path, a) if isinstance(a, dict) else a)
    return argv


def run_cli(*args, env_extra=None):
    """Run the CLI in a subprocess with a clean QUBITBENCH_* environment."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUBITBENCH_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qubitbench.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoints:
    def test_console_script_reports_version(self):
        exe = shutil.which("qubitbench")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("qubitbench ")

    def test_pyproject_reads_the_package_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # [tool.setuptools] support is marked beta
            path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
            project = pyprojecttoml.read_configuration(path)["project"]
        assert "version" in project["dynamic"]
        assert project["version"] == __version__

    def test_subcommand_is_required(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_flag_rejected(self):
        proc = run_cli(*TINY_RB, "--no-such-flag", "1")
        assert proc.returncode == 2


class TestRunStamp:
    def test_json_documents_carry_a_run_block(self):
        proc = run_cli(*TINY_RB, "--seed", "11")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        run = doc["run"]
        assert run["command"] == "rb"
        assert run["seed"] == 11
        assert isinstance(run["version"], str) and run["version"]
        assert len(run["config_hash"]) == 16
        int(run["config_hash"], 16)  # hex digest prefix

    def test_reruns_are_byte_identical(self):
        a = run_cli(*TINY_RB, "--seed", "11")
        b = run_cli(*TINY_RB, "--seed", "11")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_seed_changes_data_and_hash(self):
        noisy = TINY_RB[:-1] + ("5e-2",)  # enough errors that counts cannot tie
        a = json.loads(run_cli(*noisy, "--seed", "11").stdout)
        b = json.loads(run_cli(*noisy, "--seed", "12").stdout)
        assert a["run"]["config_hash"] != b["run"]["config_hash"]
        errors = lambda doc: [r["errors"] for r in doc["dataset"]["records"]]
        assert errors(a) != errors(b)

    def test_parameter_changes_the_hash(self):
        a = json.loads(run_cli(*TINY_RB, "--seed", "11").stdout)
        b = json.loads(run_cli(*TINY_RB[:-1], "2e-3", "--seed", "11").stdout)
        assert a["run"]["config_hash"] != b["run"]["config_hash"]


class TestSeedAndWorkers:
    def test_env_seed_is_the_fallback(self):
        doc = json.loads(run_cli(*TINY_RB, env_extra={"QUBITBENCH_SEED": "123"}).stdout)
        assert doc["run"]["seed"] == 123

    def test_flag_beats_env_seed(self):
        proc = run_cli(*TINY_RB, "--seed", "5", env_extra={"QUBITBENCH_SEED": "123"})
        assert json.loads(proc.stdout)["run"]["seed"] == 5

    def test_default_seed_without_flag_or_env(self):
        doc = json.loads(run_cli(*TINY_RB).stdout)
        assert doc["run"]["seed"] == 20260825

    def test_worker_count_does_not_change_output(self):
        serial = run_cli(*TINY_RB, "--seed", "11", "--workers", "1")
        threaded = run_cli(*TINY_RB, "--seed", "11", "--workers", "3")
        via_env = run_cli(*TINY_RB, "--seed", "11", env_extra={"QUBITBENCH_WORKERS": "3"})
        assert serial.stdout == threaded.stdout == via_env.stdout

    def test_nonpositive_workers_fail_at_runtime(self):
        proc = run_cli(*TINY_RB, "--workers", "0")
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestConfigFiles:
    CONFIG = {
        "schema": "qubitbench.config.v1",
        "command": "rb",
        "lengths": "20,60",
        "sequences": 3,
        "shots": 20,
        "noise": "depol",
        "depol": 1e-3,
    }

    def _write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_config_file_matches_flags(self, tmp_path):
        path = self._write(tmp_path, self.CONFIG)
        from_file = run_cli("rb", "--config", path, "--seed", "11")
        from_flags = run_cli(*TINY_RB, "--seed", "11")
        assert from_file.returncode == 0, from_file.stderr
        assert from_file.stdout == from_flags.stdout

    def test_flags_override_the_config(self, tmp_path):
        path = self._write(tmp_path, self.CONFIG)
        proc = run_cli("rb", "--config", path, "--seed", "11", "--shots", "10")
        doc = json.loads(proc.stdout)
        assert doc["dataset"]["meta"]["shots_per_sequence"] == 10
        assert {r["shots"] for r in doc["dataset"]["records"]} == {10}

    def test_wrong_schema_rejected(self, tmp_path):
        bad = dict(self.CONFIG, schema="qubitbench.config.v0")
        proc = run_cli("rb", "--config", self._write(tmp_path, bad))
        assert proc.returncode == 2
        assert "schema" in proc.stderr

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(self.CONFIG, shotss=20)
        proc = run_cli("rb", "--config", self._write(tmp_path, bad))
        assert proc.returncode == 2
        assert "shotss" in proc.stderr

    def test_command_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, self.CONFIG)
        proc = run_cli("budget", "--config", path)
        assert proc.returncode == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        proc = run_cli("rb", "--config", str(path))
        assert proc.returncode == 2

    def test_non_scalar_value_rejected(self, tmp_path):
        bad = dict(self.CONFIG, shots=[20, 30])
        proc = run_cli("rb", "--config", self._write(tmp_path, bad))
        assert proc.returncode == 2


class TestErrorsAndOutput:
    def test_runtime_error_exits_one(self):
        proc = run_cli("rb", "--lengths", "20", "--sequences", "2", "--shots", "5",
                       "--noise", "bogus")
        assert proc.returncode == 1
        assert "qubitbench: error:" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("irmb", "--delays", "1e-6,1e-6", "--lengths", "10,100", "--sequences", "2", "--shots", "10"),
            ("budget", "--t2", "0"),
            ("budget", "--t2", "-5"),
            ("budget", "--gate-time", "0", "--curve", "1"),
            ("budget", "--curve", "1", "--curve-points", "0"),
            (*TINY_RB, "--bootstrap", "-3"),
            # non-finite floats, from flags and (a dict here) from a config file
            (*TINY_RB, "--detuning-hz", "nan"),
            (*TINY_RB, "--detuning-hz", "inf"),
            (*TINY_RB, "--sigma0", "nan"),
            (*TINY_RB, "--t2", "nan"),
            (*TINY_RB, "--delay", "nan"),
            (*TINY_RB, "--delay=-inf"),
            ("budget", "--gate-time", "inf"),
            ("rb", "--config", {**TINY_RB_CONFIG, "t2": float("nan")}),
            ("rb", "--config", {**TINY_RB_CONFIG, "detuning_hz": float("-inf")}),
            ("rb", "--config", {**TINY_RB_CONFIG, "sigma0": "nan"}),
            # 0/1 switches
            (*TINY_RB, "--motional", "2"),
            (*TINY_RB, "--fit", "-1"),
            ("phase-noise", "--predict-t2", "2"),
            # list values checked before any chi curve is computed
            ("phase-noise", "--irmb-delays=-1e-6"),
            ("phase-noise", "--taus", "1,nan"),
            ("walsh", "--shots", "0"),
            ("walsh", "--shots", "-3"),
            # walsh inputs checked before any train runs
            ("walsh", "--sweep="),
            ("walsh", "--sweep", "-4"),
            ("walsh", "--sweep", "0"),
            ("walsh", "--sweep", "4,0,16"),
            ("walsh", "--max-order", "-1"),
            ("budget", "--curve", "2"),
            ("rb", "--config", {**TINY_RB_CONFIG, "motional": 2}),
            # an --ssb file that is missing, has no header or holds text
            ("phase-noise", "--ssb", "no-such-dir/ssb.csv"),
            ("phase-noise", "--ssb", _File("1.0,-100.0\n1000000.0,-140.0\n")),
            ("phase-noise", "--ssb", _File("frequency_hz,dbc_per_hz\n1.0,x\n1000000.0,-140.0\n")),
            # durations past the linearized idle model
            ("idle-rates", "--durations", "100,200", "--shots", "10"),
            # the loops climb from N = 1, so --n-max alone bounds them
            ("calibrate", "--n-max", "0"),
            # rules that join options name each of them
            (*TINY_RB, "--t-half-pi", "1e-8"),
            (*TINY_RB, "--ramp-time", "1e-5"),
            ("irmb", "--t-half-pi", "1e-8", "--lengths", "10,100", "--sequences", "2", "--shots", "10"),
            ("walsh", "--n-pulses", "100"),
            # one length cannot separate the decay from its amplitude
            ("irmb", "--lengths", "10"),
            # a bootstrap needs the JSON fit to report
            (*TINY_RB, "--bootstrap", "5", "--fit", "0"),
            (*TINY_RB, "--bootstrap", "5", "--format", "csv"),
            # an --ssb level that is not finite
            ("phase-noise", "--ssb", _File("frequency_hz,dbc_per_hz\n1.0,nan\n1000000.0,-140.0\n")),
            ("phase-noise", "--ssb", _File("frequency_hz,dbc_per_hz\n1.0,-100.0\n1000000.0,inf\n")),
        ],
    )
    def test_bad_input_exits_one_with_one_error_line(self, args, tmp_path):
        proc = run_cli(*_argv(args, tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert [line for line in proc.stderr.splitlines() if line.startswith("qubitbench: error:")] == [
            proc.stderr.strip()
        ]
        # the error names an option that was set, by flag or config key
        flags = [a.split("=")[0] for a in args if isinstance(a, str) and a.startswith("--")]
        assert any(flag in proc.stderr for flag in flags) or "config key" in proc.stderr
        for option in ("--ssb", "--durations", "--n-max", "--t-half-pi", "--ramp-time", "--n-pulses",
                       "--bootstrap", "--fit", "--format"):
            assert option not in args or option in proc.stderr

    @pytest.mark.parametrize("delays", ["1e-6,1e-6", "0,1e-5,-1e-6", "0,nan", "0,inf"])
    def test_irmb_rejects_bad_delays_before_any_run(self, delays, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(rb, "run_rb", lambda *a, **kw: runs.append(1))
        code = cli.main(["irmb", "--delays", delays, "--lengths", "10,100", "--sequences", "2", "--shots", "10"])
        assert code == 1
        assert runs == []
        assert capsys.readouterr().err.startswith("qubitbench: error:")

    @pytest.mark.parametrize(
        "args",
        [
            (*TINY_RB, "--detuning-hz", "nan"),
            (*TINY_RB, "--delay", "nan"),
            (*TINY_RB, "--motional", "2"),
            (*TINY_RB, "--bootstrap", "5", "--fit", "0"),
            (*TINY_RB, "--bootstrap", "5", "--format", "csv"),
        ],
    )
    def test_bad_values_are_rejected_before_any_run(self, args, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(rb, "run_rb", lambda *a, **kw: runs.append(1))
        assert cli.main(list(args)) == 1
        assert runs == []
        assert capsys.readouterr().err.startswith("qubitbench: error:")

    @pytest.mark.parametrize(
        "args, env, option",
        [
            (("budget", "--sigma0", "-1"), {}, "--sigma0"),
            (("idle-rates", "--shots", "0"), {}, "--shots"),
            (("walsh", "--sigma0", "-1", "--sweep", "4", "--max-order", "0"), {}, "--sigma0"),
            (("rb", "--config", {**TINY_RB_CONFIG, "sequences": 2.9}), {}, "'sequences'"),
            (("rb", "--config", {**TINY_RB_CONFIG, "shots": True}), {}, "'shots'"),
            (("rb", "--config", {**TINY_RB_CONFIG, "shots": None}), {}, "'shots'"),  # was a TypeError traceback
            (("rb", "--lengths", "1.5"), {}, "--lengths"),
            (TINY_RB, {"QUBITBENCH_SEED": "abc"}, "QUBITBENCH_SEED"),
            (TINY_RB, {"QUBITBENCH_WORKERS": "abc"}, "QUBITBENCH_WORKERS"),
        ],
    )
    def test_out_of_domain_values_are_named_before_any_run(self, args, env, option, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(rb, "run_rb", lambda *a, **kw: runs.append(1))
        monkeypatch.setattr(budget, "idle_scheme_error_prob", lambda *a, **kw: runs.append(1))
        monkeypatch.setattr(budget, "budget_table", lambda *a, **kw: runs.append(1))
        monkeypatch.setattr(calibration.SimulatedQubitTestbed, "run_train", lambda *a, **kw: runs.append(1))
        for name in ("QUBITBENCH_SEED", "QUBITBENCH_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(_argv(args, tmp_path)) == 1
        assert runs == []
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("qubitbench: error:") and option in line

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_documents_refuse_non_json_floats(self, value):
        with pytest.raises(ValueError):
            _json_doc("irmb", {}, 1, {"slope_per_s": value})

    def test_out_writes_a_file(self, tmp_path):
        target = tmp_path / "result.json"
        proc = run_cli(*TINY_RB, "--seed", "11", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["run"]["command"] == "rb"

    @pytest.mark.parametrize(
        "args", [(*TINY_RB, "--format", "jsonl"), ("clifford-table", "--format", "csv")]
    )
    def test_format_the_command_cannot_write_is_rejected(self, args):
        # only calibrate streams JSONL; rb used to print JSON for --format jsonl
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid choice" in proc.stderr

    def test_rb_csv_format(self):
        proc = run_cli(*TINY_RB, "--seed", "11", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "length,seq_id,errors,shots"
        assert len(lines) == 1 + 2 * 3  # two lengths, three sequences each
        for line in lines[1:]:
            assert all(field.lstrip("-").isdigit() for field in line.split(","))


# values that replace one option of a small run: zero, negatives and text that
# is no finite number; never a large count, length, sweep or worker number
_NUMBER_TEXT = st.sampled_from(["0", "-0", "nan", "inf", "-inf"]) | st.floats(-1e3, -1e-9).map(repr)
_INT_TEXT = st.just("0") | st.integers(-1000, -1).map(str)
# an int option from a config file: a fraction, a bool, zero or a negative
_INT_CONFIG = st.floats(-10, 10).filter(lambda x: not x.is_integer()) | st.booleans() | st.integers(-1000, 0)
_FLOAT_CONFIG = st.booleans() | st.sampled_from([0.0, float("nan"), float("inf")]) | st.floats(-1e3, -1e-9)


def _list_texts(text: str):
    """No element, a repeated one, or elements no list or name holds."""
    first = text.split(",")[0]
    return st.sampled_from(["", f"{first},{first}", "1.5", "-1", "nan", "x"])


class TestOptionDomains:
    """Any one option of a small run set to an edge value gives a finite
    document (exit 0) or one error line that names the option (exit 1)."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_edge_value_exits_cleanly(self, data, tmp_path, monkeypatch, capsys):
        for env in ("QUBITBENCH_SEED", "QUBITBENCH_WORKERS"):
            monkeypatch.delenv(env, raising=False)
        monkeypatch.chdir(tmp_path)  # where a drawn --ssb name names no file
        command = data.draw(st.sampled_from(sorted(TINY)))
        base = dict(zip(TINY[command][::2], TINY[command][1::2]))
        params = {**cli._PARAMS[command], **cli._RUN_PARAMS}
        name = data.draw(st.sampled_from(sorted(params)))
        typ, default = params[name][:2]
        flag = f"--{name.replace('_', '-')}"
        text = base.pop(flag, default)
        argv = [command, *(x for pair in base.items() for x in pair)]
        source = data.draw(st.sampled_from(["flag", "env" if name in cli._RUN_PARAMS else "config"]))
        numbers = {int: _INT_CONFIG, float: _FLOAT_CONFIG} if source == "config" else {int: _INT_TEXT, float: _NUMBER_TEXT}
        value = data.draw(numbers[typ] if typ in numbers else _list_texts(text or ""))
        if source == "config":
            argv += ["--config", _config_file(tmp_path, {name: value}, command)]
        elif source == "env":
            monkeypatch.setenv(f"QUBITBENCH_{name.upper()}", value)
        else:
            argv += [f"{flag}={value}"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            json.loads(out, parse_constant=pytest.fail)
        else:
            assert code == 1
            (line,) = [line for line in err.splitlines() if line.startswith("qubitbench: error:")]
            assert name in line or flag in line, line


def _load_perfbench(name: str):
    """A module of ``perfbench/``, loaded from its file without writing bytecode."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


class TestFullTierDocuments:
    """The benchmark's full-size ``rb --tier full`` command, run in-process for
    every CLI seed and checked against the benchmark's reference documents,
    so that a changed count in the pulse-level tier fails here too."""

    def test_every_seed_matches_the_benchmark_reference(self, capsys):
        workloads, checks = _load_perfbench("workloads"), _load_perfbench("checks")
        refs_path = pathlib.Path(workloads.__file__).parent / "refs" / "full.json"
        refs = json.loads(refs_path.read_text())["rb-full"]
        problems = {}
        for seed in range(workloads.N_SEEDS):
            (cmd,) = workloads.commands("rb-full", "full", seed)
            assert cli.main(cmd) == 0
            (reference,) = refs[cmd[-1]]
            found = checks.check_output(cmd, capsys.readouterr().out.encode(), reference, b"")
            if found:
                problems[cmd[-1]] = found
        assert problems == {}


class TestSubcommands:
    def test_rb_fit_block(self):
        doc = json.loads(run_cli(*TINY_RB, "--seed", "11", "--bootstrap", "25").stdout)
        fit = doc["fit"]
        assert set(fit) >= {"epsilon", "amplitude", "converged", "at_boundary",
                            "identifiable", "epsilon_ci68"}
        lo, hi = fit["epsilon_ci68"]
        assert 0 <= lo <= hi

    def test_rb_bootstrap_fits_the_counts_once(self, monkeypatch, capsys):
        from qubitbench import fitting

        fits = []
        mle_fit = fitting.mle_fit

        def counting(*args):
            fits.append(args)
            return mle_fit(*args)

        # the dataset's own fit goes through rb, the bootstrap's through fitting
        monkeypatch.setattr(rb, "mle_fit", counting)
        monkeypatch.setattr(fitting, "mle_fit", counting)
        assert cli.main([*TINY_RB, "--seed", "11", "--bootstrap", "25"]) == 0
        assert "epsilon_ci68" in json.loads(capsys.readouterr().out)["fit"]
        assert len(fits) == 1

    @pytest.mark.parametrize("override", [("--sigma0", "0.05"), ("--t2", "1e-3")])
    def test_noise_overrides_apply_to_the_depol_preset(self, override, capsys):
        docs = []
        for extra in ((), override):
            assert cli.main([*TINY_RB, "--seed", "11", "--fit", "0", *extra]) == 0
            docs.append(json.loads(capsys.readouterr().out)["dataset"]["records"])
        assert docs[0] != docs[1]

    def test_rb_bootstrap_zero_means_none(self):
        proc = run_cli(*TINY_RB, "--seed", "11", "--bootstrap", "0")
        assert proc.returncode == 0
        assert "epsilon_ci68" not in json.loads(proc.stdout)["fit"]

    def test_irmb_reports_slope_and_prediction(self):
        proc = run_cli(
            "irmb", "--seed", "3", "--delays", "0,5e-6", "--lengths", "60,200",
            "--sequences", "3", "--shots", "30",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["points"]) == 2
        assert doc["predicted_slope_per_s"] == pytest.approx((52 / 24) / (3 * 69.0))
        assert np.isfinite(doc["slope_per_s"])

    def test_calibrate_jsonl_stream(self):
        proc = run_cli("calibrate", "--seed", "6", "--kind", "amplitude",
                       "--n-max", "64", "--shots", "100", "--format", "jsonl")
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert records
        assert {r["kind"] for r in records} == {"amplitude"}
        assert all({"step", "n_group", "estimate", "sigma"} <= set(r) for r in records)

    def test_calibrate_json_summary(self):
        proc = run_cli("calibrate", "--seed", "6", "--kind", "both",
                       "--n-max", "64", "--shots", "100")
        doc = json.loads(proc.stdout)
        kinds = {r["kind"] for r in doc["records"]}
        assert kinds == {"amplitude", "frequency"}
        final = doc["final"]
        assert {"amp_setting", "detuning_setting", "wall_clock",
                "residual_relative_error"} <= set(final)
        assert final["wall_clock"] > 0

    def test_calibrate_bits_sets_the_quantizer(self):
        base = ("calibrate", "--seed", "6", "--kind", "amplitude", "--n-max", "16", "--shots", "100")
        records = {
            bits: json.loads(run_cli(*base, *(("--bits", bits) if bits else ())).stdout)["records"]
            for bits in (None, "15", "8")
        }
        assert records["15"] == records[None]  # the default is the 15-bit generator
        assert records["8"] != records[None]

    def test_walsh_reports_coefficients(self):
        proc = run_cli("walsh", "--seed", "5", "--max-order", "3",
                       "--n-pulses", "16", "--shots", "200", "--sweep", "4,8,16")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert set(doc["coefficients"]) == {"1", "2", "3"}
        assert doc["sigma_rel"] > 0
        for entry in doc["coefficients"].values():
            assert {"coefficient", "sigma", "n_pulses", "p_zero"} <= set(entry)

    def test_walsh_defaults_to_the_library_sweep(self):
        # the long trains read the spread; the old 4…128 sweep read the readout error
        plain = run_cli("walsh")
        assert plain.returncode == 0, plain.stderr
        assert plain.stdout == run_cli("walsh", "--sweep", "64,256,1024,2048,4096").stdout

    @pytest.mark.parametrize("seed", ["20260834", "20260839"])
    def test_walsh_spread_fit_writes_no_warning(self, seed):
        # the fit probes a log spread whose exp overflows at these seeds
        proc = run_cli("walsh", "--max-order", "2", "--n-pulses", "16", "--shots", "200",
                       "--sweep", "4,16", "--seed", seed)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stdout)["sigma_rel"] > 0

    def test_phase_noise_default_psd(self):
        proc = run_cli("phase-noise", "--taus", "1,10", "--irmb-delays", "1e-6,1e-5")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        for row in doc["curves"]:
            assert row["coherence_ramsey"] == pytest.approx(np.exp(-row["chi_ramsey"]))
            assert row["chi_echo"] >= 0
        assert 60 < doc["t2_ramsey_s"] < 80
        eps = [p["epsilon_increase"] for p in doc["irmb_prediction"]]
        assert eps[1] > eps[0] > 0

    def test_phase_noise_accepts_ssb_file(self, tmp_path):
        path = tmp_path / "ssb.csv"
        path.write_text("frequency_hz,dbc_per_hz\n1.0,-100.0\n1000000.0,-140.0\n")
        proc = run_cli("phase-noise", "--taus", "1", "--predict-t2", "0",
                       "--ssb", str(path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["curves"][0]["chi_ramsey"] > 0

    def test_budget_table_json(self):
        doc = json.loads(run_cli("budget").stdout)
        table = doc["budget"]
        names = {r["name"] for r in table["rows"]}
        assert {"decoherence", "idle_and_leakage", "amplitude_noise",
                "harmonic_motion", "amplitude_drift", "awg_resolution",
                "zeeman_residual"} <= names
        assert 1.6e-7 < table["total"] < 1.8e-7

    def test_budget_table_csv(self):
        proc = run_cli("budget", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "name,value,uncertainty,kind,note"
        assert lines[-1].startswith("total,")

    def test_budget_curve_csv(self):
        proc = run_cli("budget", "--curve", "1", "--curve-points", "5",
                       "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0].split(",")[0] == "gate_time"
        assert len(lines) == 1 + 5

    def test_idle_rates_recovers_truth(self):
        proc = run_cli("idle-rates", "--seed", "7", "--shots", "20000")
        doc = json.loads(proc.stdout)
        est, true = doc["estimated"], doc["true"]
        assert est["bright_per_s"] == pytest.approx(true["bright_per_s"], rel=0.3)
        assert doc["rb_error_rate_per_s"] > 0
        assert isinstance(doc["flip_consistent"], bool)

    def test_clifford_table_matches_library(self):
        proc = run_cli("clifford-table")
        assert proc.returncode == 0
        assert proc.stdout == build_clifford_table().to_json()
