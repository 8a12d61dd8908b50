import ast
import importlib
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kreinspec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _bound_names(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    # no linter ships with the project; an import nothing reads is dead code
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [(name, line) for name, line in _bound_names(tree) if name not in used]
    assert unused == []


def test_console_scripts_import():
    # a script whose module is missing installs fine and fails when it starts
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_warning_is_an_error():
    # filterwarnings in pyproject.toml, not a -W flag, makes any warning fail
    # the test that raised it
    with pytest.raises(UserWarning, match="not only a RuntimeWarning"):
        warnings.warn("not only a RuntimeWarning", UserWarning)


GATED = {"cholesky", "eigh", "eigvalsh", "svd"}


def test_lapack_factorizations_go_through_the_gate():
    # linalg._lapack checks the entries are finite and turns LinAlgError into
    # the caller's typed error; a direct call or import would skip both
    stray = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text())
        gated = {id(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "_lapack" and node.args}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in GATED
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                    and id(node) not in gated):
                stray.append((module, node.attr, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.endswith("linalg")):
                stray += [(module, alias.name, node.lineno)
                          for alias in node.names if alias.name in GATED]
    assert stray == []
