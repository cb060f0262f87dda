"""No module binds a name by import and then never uses it, and no package
module lists a name in ``__all__`` that it does not bind.

No linter runs with the tests, so the first is a small AST check of its own
(pyflakes' F401) over the package modules, the tests and the scripts.  A
name counts as used where it is read anywhere in the module, named in a
string annotation, or listed in the module's ``__all__``; an import line
marked ``# noqa: F401`` is exempt.  The package ``__init__`` re-exports by
design and is left out.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted(
    {*(ROOT / "src" / "qubitbench").glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "scripts").glob("*.py")}
    - {ROOT / "src" / "qubitbench" / "__init__.py"}
)


def _bound_names(tree: ast.Module):
    """(name, line) of every name that an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "DriveParams" or "list[Foo]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    return [
        (name, line)
        for name, line in _bound_names(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


def test_checker_counts_reads_all_and_noqa_as_uses():
    source = (
        "import os, os.path\n"
        "import json as js\n"
        "from typing import Any, Sequence  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "from collections import OrderedDict, deque\n"
        "__all__ = ['deque']\n"
        "def f(x: 'OrderedDict[str, int]') -> float:\n"
        "    return os.sep, pi\n"
    )
    assert unused_imports(source) == [("js", 2), ("tau", 6)]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in CHECKED
        for name, line in unused_imports(path.read_text())
    ]
    assert unused == []


def test_every_all_entry_is_bound():
    # the traced benchmark looks up each module's __all__ names with getattr,
    # so a stale entry would crash it
    stale = []
    for path in sorted((ROOT / "src" / "qubitbench").glob("*.py")):
        name = "qubitbench" if path.stem == "__init__" else f"qubitbench.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert stale == []
