"""Every name a module exports exists, every name it imports is used, and
every default of a private function is overridden by some call."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import anharmonic

MODULES = ["anharmonic"] + [f"anharmonic.{m.name}"
                            for m in pkgutil.iter_modules(anharmonic.__path__)]


def test_import_loads_no_scipy():
    # a fresh interpreter: this process has scipy loaded for the tests' oracles
    code = ("import sys, anharmonic, anharmonic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(anharmonic.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(Path(anharmonic.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]


def _unset_private_defaults(sources: list[str]) -> list[str]:
    """Defaulted parameters of module-level _private functions that no call
    in the sources passes, as "function.parameter".

    A parameter counts as passed when some call of the function (by name or
    as a module attribute) reaches its position or names it; a starred
    argument reaches every position, a ** argument every keyword.  Nested
    functions are not checked.
    """
    trees = [ast.parse(s) for s in sources]
    defaults = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
                params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                if params:
                    defaults[node.name] = params
    passed = {name: set() for name in defaults}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaults:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            for i, arg in defaults[name]:
                if (i is not None and (starred or i < len(node.args))) or any(
                        kw.arg in (arg, None) for kw in node.keywords):
                    passed[name].add(arg)
    return sorted(f"{name}.{arg}" for name, params in defaults.items()
                  for _, arg in params if arg not in passed[name])


def test_every_private_default_is_passed_somewhere():
    paths = sorted(Path(anharmonic.__file__).parent.glob("*.py"))
    assert _unset_private_defaults([p.read_text() for p in paths]) == []


def test_unset_default_check_sees_an_unset_parameter():
    source = (
        "def _f(a, b=1, c=2, *, d=3):\n"
        "    def _inner(t, i=0):\n"
        "        return t\n"
        "    return _inner(a)\n"
        "def _g(x=0):\n"
        "    return x\n"
        "def public(y=3):\n"
        "    return y\n"
        "_f(1, 2)\n"
        "_g(x=5)\n"
    )
    assert _unset_private_defaults([source]) == ["_f.c", "_f.d"]
