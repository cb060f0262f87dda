"""No module binds a name by import and then never uses it, no package
module lists a name in ``__all__`` that it does not bind, and every public
field of a package dataclass that has a default is set by some caller.

No linter runs with the tests, so the first is a small AST check of its own
(pyflakes' F401) over the package modules, the tests and the scripts.  A
name counts as used where it is read anywhere in the module, named in a
string annotation, or listed in the module's ``__all__``; an import line
marked ``# noqa: F401`` is exempt.  The package ``__init__`` is checked like
any module, and binds no name but ``__version__``: the API is imported from
the modules, each of which lists it in its ``__all__``.

The third is an AST check too: a default that no caller overrides is a
constant, and belongs where it is read.  So is the fourth: every parameter
of a package function is read in its body, since an input that changes
nothing is a silent no-op.
"""

from __future__ import annotations

import ast
import importlib
import itertools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKED = sorted(
    {*(ROOT / "src" / "qubitbench").glob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "scripts").glob("*.py")}
)
# where a dataclass field may be set
CALLERS = sorted(path for folder in ("src", "scripts", "perfbench", "tests") for path in (ROOT / folder).rglob("*.py"))


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


def test_the_package_init_binds_only_its_version():
    tree = ast.parse((ROOT / "src" / "qubitbench" / "__init__.py").read_text())
    bound = {name for name, _ in _bound_names(tree)}
    bound |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert bound == {"__version__"}


def test_every_all_entry_is_bound():
    # the traced benchmark looks up each module's __all__ names with getattr,
    # so a stale entry would crash it
    stale = []
    for path in sorted((ROOT / "src" / "qubitbench").glob("*.py")):
        name = "qubitbench" if path.stem == "__init__" else f"qubitbench.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert stale == []


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _dataclasses(source: str) -> dict[str, list[tuple[str, bool]]]:
    """Each ``@dataclass``'s fields in order, with whether each has a default."""
    return {
        node.name: [(s.target.id, s.value is not None) for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)
    }


def unset_fields(defining: list[str], calling: list[str]) -> list[str]:
    """``Class.field`` of each public field with a default, of a dataclass in
    `defining`, that no call in `calling` sets.

    A constructor call (``cls(...)`` inside the class too) sets fields by
    position up to the first ``*args``, and by keyword; a ``**mapping`` sets
    nothing.  ``replace`` cannot name its class, so its keyword sets a field
    only where one dataclass has a field of that name.
    """
    classes = {name: fields for source in defining for name, fields in _dataclasses(source).items()}
    owners: dict[str, list[str]] = {}
    for name, fields in classes.items():
        for field, _ in fields:
            owners.setdefault(field, []).append(name)
    set_ = set()
    for source in calling:
        tree = ast.parse(source)
        calls = [(_name(n.func), n) for n in ast.walk(tree) if isinstance(n, ast.Call)]
        calls += [(c.name, n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for n in ast.walk(c) if isinstance(n, ast.Call) and _name(n.func) == "cls"]
        for target, call in calls:
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            if target == "replace":
                set_ |= {(owners[k][0], k) for k in keywords if len(owners.get(k, ())) == 1}
            elif target in classes:
                positional = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args)
                set_ |= {(target, field) for (field, _), _ in zip(classes[target], positional)}
                set_ |= {(target, k) for k in keywords}
    return sorted(
        f"{name}.{field}" for name, fields in classes.items() for field, default in fields
        if default and not field.startswith("_") and (name, field) not in set_
    )


def test_field_checker_counts_positions_keywords_cls_and_one_owner_replace():
    defining = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclasses.dataclass\n"
        "class A:\n"
        "    required: int\n"
        "    by_position: int = 0\n"
        "    past_star: int = 0\n"
        "    by_keyword: list = field(default_factory=list)\n"
        "    by_mapping: int = 0\n"
        "    shared: int = 0\n"
        "    _private: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    by_cls: float = 0.0\n"
        "    by_replace: float = 0.0\n"
        "    shared: int = 0\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(1.0)\n"
        "class C:\n"
        "    not_a_dataclass: int = 0\n"
    )
    calling = (
        "a = A(1, 2, *rest, by_keyword=[3], **{'by_mapping': 4})\n"
        "b = replace(B(), by_replace=5.0, shared=6)\n"
    )
    assert unset_fields([defining], [defining, calling]) == ["A.by_mapping", "A.past_star", "A.shared", "B.shared"]


def test_every_dataclass_default_is_set_by_some_caller():
    defining = [path.read_text() for path in sorted((ROOT / "src" / "qubitbench").glob("*.py"))]
    assert unset_fields(defining, [path.read_text() for path in CALLERS]) == []


# every CLI handler takes these, whether or not it needs each
_HANDLER_PARAMS = ("resolved", "seed", "fmt")


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` of each parameter that its function's body never
    reads.  ``self``, ``cls``, lambdas and the ``_cmd_*`` handlers' common
    ``(resolved, seed, fmt)`` are exempt; a read inside a nested function
    counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        read = {n.id for statement in node.body for n in ast.walk(statement) if isinstance(n, ast.Name)}
        exempt = {"self", "cls"} | (set(_HANDLER_PARAMS) if node.name.startswith("_cmd_") else set())
        unread += [f"{node.name}.{p}" for p in params if p not in read and p not in exempt]
    return sorted(unread)


def test_parameter_checker_exempts_self_lambdas_and_handlers():
    source = (
        "class A:\n"
        "    def m(self, used, unused=0):\n"
        "        return [lambda x, y: x for _ in used]\n"
        "    @classmethod\n"
        "    def make(cls, *args, **kwargs):\n"
        "        def inner(z):\n"
        "            return z, args\n"
        "        return inner\n"
        "def _cmd_x(resolved, seed, fmt, extra):\n"
        "    return {}\n"
    )
    assert unread_parameters(source) == ["_cmd_x.extra", "m.unused", "make.kwargs"]


def test_every_parameter_of_a_package_function_is_read():
    unread = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "qubitbench").glob("*.py"))
        for name in unread_parameters(path.read_text())
    ]
    assert unread == []
