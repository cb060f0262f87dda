"""Start-up cost of the package and the CLI.

Importing ``scipy.optimize`` takes about half a second, so no command imports
it.  The decay fit (``rb``, ``irmb``) loads only the compiled L-BFGS-B kernel,
``scipy.optimize._lbfgsb``, without running the ``scipy`` package init, and
polishes a fit that did not converge with its own port of scipy's
Nelder-Mead; ``walsh_fit`` loads ``scipy`` and MINPACK, which its port of
scipy's ``least_squares(method="lm")`` drives (MINPACK's extension imports
the ``scipy`` package itself).  No command loads ``numpy.ma``, which numpy's
``np.unique`` imports on its first call.  These tests run each case in a
fresh interpreter and look at ``sys.modules``: importing the package and
running the commands that never fit must leave scipy unloaded, an ``rb`` fit
of either tier, converged or polished, and an ``irmb`` fit must load no scipy
module but the kernel, and no command may load ``scipy.optimize`` or
``numpy.ma``.  Importing one package module must load exactly the package
modules that its module-level relative imports reach, and importing the
package alone must load none of them and not numpy.

The CLI imports a command's modules in its handler, so importing
``qubitbench.cli`` loads only ``presets`` besides itself, and each command
loads exactly the modules it runs (``RUNS``): ``clifford-table`` only
``cliffords``, ``phase-noise`` only ``filterfunc``, fast ``rb`` no
``pulsesim``, ``calibration``, ``filterfunc`` or ``budget``, and ``rb --tier
full`` adds ``pulsesim``.
"""

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qubitbench import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# runs the CLI in-process, then reports the exit code, which scipy modules
# and whether numpy.ma were loaded, how many fits (rows of the lockstep
# polish) went to the Nelder-Mead polish, and which package modules loaded;
# the polish is counted from the moment the command imports ``fitting``, so
# that the command alone decides what loads
CHILD = """
import importlib.util, json, sys
polishes = []

class CountPolishes:
    def find_spec(self, name, path, target=None):
        if name != "qubitbench.fitting":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def load(fitting):
            exec_module(fitting)
            nelder_mead = fitting._nelder_mead
            fitting._nelder_mead = lambda x0, *args: polishes.append(len(x0)) or nelder_mead(x0, *args)

        spec.loader.exec_module = load
        return spec

sys.meta_path.insert(0, CountPolishes())
from qubitbench import cli
rc = cli.main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name == "numpy.ma" or name.split(".")[0] == "scipy")
package = sorted(name.split(".", 1)[1] for name in sys.modules if name.startswith("qubitbench."))
print(json.dumps({"rc": rc, "loaded": loaded, "polishes": sum(polishes), "package": package}), file=sys.stderr)
"""


def run_python(*args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUBITBENCH_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    """(document, loaded modules of scipy and numpy.ma, polished fits, loaded
    package modules) of one CLI run in a fresh interpreter."""
    proc = run_python("-c", CHILD, *args)
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stderr.strip().splitlines()[-1])
    assert status["rc"] == 0, proc.stderr
    return proc.stdout, status["loaded"], status["polishes"], set(status["package"])


def test_importing_the_package_and_cli_leaves_scipy_out():
    proc = run_python("-c", "import sys, qubitbench, qubitbench.cli; print({'scipy', 'numpy.ma'} & set(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"


@pytest.mark.parametrize(
    "args",
    [
        ("budget",),
        ("clifford-table",),
        ("calibrate", "--kind", "both", "--n-max", "16", "--shots", "100"),
        ("phase-noise", "--taus", "1,10"),
    ],
    ids=lambda args: args[0],
)
def test_commands_that_do_not_fit_never_import_scipy(args):
    document, loaded, *_ = run_cli(*args)
    assert document
    assert not loaded


def assert_converged_on_the_kernel_alone(document, loaded, polishes, package):
    fit = json.loads(document)["fit"]
    assert 0 < fit["epsilon"] < 0.49 and 0 < fit["amplitude"] <= 0.6
    assert fit["converged"]
    assert loaded == ["scipy.optimize._lbfgsb"]
    return polishes


def test_rb_still_fits():
    assert_converged_on_the_kernel_alone(*run_cli(
        "rb", "--lengths", "20,60", "--sequences", "3", "--shots", "20", "--noise", "depol", "--depol", "1e-3"
    ))


def test_a_polishing_bootstrap_leaves_scipy_optimize_out():
    # depolarizing data without SPAM: some bootstrap refits stop short in
    # L-BFGS-B and go to the Nelder-Mead polish
    polishes = assert_converged_on_the_kernel_alone(*run_cli(
        "rb", "--noise", "depol", "--depol", "1.5e-7", "--lengths", "100,1000,10000", "--sequences", "10",
        "--shots", "100", "--bootstrap", "20", "--seed", "20260825"
    ))
    assert polishes > 0


def test_full_tier_rb_still_fits():
    run = run_cli(
        "rb", "--tier", "full", "--lengths", "8,24", "--sequences", "2", "--shots", "2", "--detuning-hz", "2e4"
    )
    assert_converged_on_the_kernel_alone(*run)
    # the full tier alone loads the pulse-level simulator
    assert run[3] == {"cli", "presets", "pulsesim", *RUNS["rb"]}


def test_presets_is_a_leaf():
    # presets must load alone, and its builders import on call
    proc = run_python("-c", """
import sys
import qubitbench.presets
print(sorted(name for name in sys.modules if name.startswith("qubitbench.")))
qubitbench.presets.default_noise_config(), qubitbench.presets.default_phase_psd()
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qubitbench.presets']"


PACKAGE = SRC / "qubitbench"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
LOADED = "n.split('.')[0] == 'qubitbench'"  # a child's test of a sys.modules name


def load_time_imports(source: str) -> set[str]:
    """The package modules that ``source``'s relative imports name, except
    those inside a function or under ``if TYPE_CHECKING:``."""
    found, stack = set(), list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names if (PACKAGE / f"{alias.name}.py").is_file()}
        stack += ast.iter_child_nodes(node)
    return found


def test_load_time_imports_skip_functions_and_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import __version__, presets as p\n"
        "from .rb import RBPlan\n"
        "if TYPE_CHECKING:\n"
        "    from .cli import main\n"
        "else:\n"
        "    from .noise import NoiseConfig\n"
        "def f():\n"
        "    from .fitting import mle_fit\n"
        "class A:\n"
        "    from .budget import budget_table\n"
    )
    assert load_time_imports(source) == {"presets", "rb", "noise", "budget"}


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_only_what_it_imports(module):
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += load_time_imports((PACKAGE / f"{name}.py").read_text())
    proc = run_python("-c", f"import sys, qubitbench.{module}; print(sorted(n for n in sys.modules if {LOADED}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted(["qubitbench", *(f"qubitbench.{name}" for name in reached)]))


def test_importing_the_cli_loads_presets_alone():
    proc = run_python("-c", f"import sys, qubitbench.cli; print(sorted(n for n in sys.modules if {LOADED}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qubitbench', 'qubitbench.cli', 'qubitbench.presets']"


def test_importing_the_package_loads_no_module_and_no_numpy():
    proc = run_python("-c", f"import sys, qubitbench; print(sorted(n for n in sys.modules if {LOADED} or n == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qubitbench']"


# every subcommand at a small size
TINY = {
    "rb": ("--lengths", "20,60", "--sequences", "3", "--shots", "20"),
    "irmb": ("--delays", "0,1e-5", "--lengths", "10,100", "--sequences", "2", "--shots", "10"),
    "calibrate": ("--kind", "both", "--n-max", "16", "--shots", "100"),
    "walsh": ("--max-order", "2", "--n-pulses", "16", "--shots", "200", "--sweep", "4,16"),
    "phase-noise": ("--taus", "1,10", "--irmb-delays", "0,1e-5"),
    "budget": ("--curve", "1", "--curve-points", "3"),
    "idle-rates": ("--shots", "200"),
    "clifford-table": (),
}


# the package modules each subcommand runs, besides cli and presets: what its
# handler imports and what those modules import in turn
RUNS = {
    "rb": {"rb", "cliffords", "fitting", "noise"},
    "irmb": {"rb", "cliffords", "fitting", "noise", "budget"},
    "calibrate": {"calibration", "cliffords", "fitting", "noise"},
    "walsh": {"calibration", "cliffords", "fitting", "noise"},
    "phase-noise": {"filterfunc"},
    "budget": {"budget", "noise"},
    "idle-rates": {"budget", "fitting", "noise"},
    "clifford-table": {"cliffords"},
}


def test_every_subcommand_has_a_small_size():
    assert set(TINY) == set(cli._PARAMS) == set(RUNS)


@functools.cache
def tiny_run(command):
    """``run_cli`` of ``command`` at its small size, run once per session."""
    return run_cli(command, *TINY[command])


@pytest.mark.parametrize("command", sorted(TINY))
def test_no_subcommand_imports_scipy_optimize(command):
    document, loaded, *_ = tiny_run(command)
    assert document
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("command", sorted(TINY))
def test_no_subcommand_imports_numpy_ma(command):
    document, loaded, *_ = tiny_run(command)
    assert document
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("command", sorted(TINY))
def test_each_subcommand_loads_only_the_modules_it_runs(command):
    document, *_, package = tiny_run(command)
    assert document
    assert package == {"cli", "presets", *RUNS[command]}


def test_irmb_loads_the_kernel_alone():
    _, loaded, *_ = tiny_run("irmb")
    assert loaded == ["scipy.optimize._lbfgsb"]


def test_walsh_still_fits():
    document, loaded, *_ = tiny_run("walsh")
    doc = json.loads(document)
    assert np.isfinite(doc["sigma_rel"]) and doc["sigma_rel"] > 0
    assert set(doc["coefficients"]) == {"1", "2"}
    assert {"scipy", "scipy.optimize._minpack"} <= set(loaded)
    assert "scipy.optimize._lbfgsb" not in loaded
