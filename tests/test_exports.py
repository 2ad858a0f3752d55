"""Every name a module exports exists, and every name it imports is used."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import anharmonic

MODULES = ["anharmonic"] + [f"anharmonic.{m.name}"
                            for m in pkgutil.iter_modules(anharmonic.__path__)]


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
