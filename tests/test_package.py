import ast
import importlib
import importlib.metadata
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spectra_perturb

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spectra_perturb").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# __main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(spectra_perturb.__path__) if m.name != "__main__"]


# the modules whose public names the package exports (cli is the command line)
LIBRARY = ("matrices", "decomp", "matching", "quantities", "bounds", "ensembles", "campaigns")


def test_export_lists_resolve():
    for module in (spectra_perturb, *(importlib.import_module(f"spectra_perturb.{m}") for m in MODULES)):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # the package exports each library module's public names, each once
    modules = [importlib.import_module(f"spectra_perturb.{m}") for m in LIBRARY]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert spectra_perturb.__all__ == ["__version__", *names]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``src`` on its path."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = _run_python(str(demo))
    assert result.returncode == 0, result.stderr


_FRESH_IMPORT = """
import sys

import spectra_perturb

loaded = [m for m in ("scipy.linalg", "scipy.optimize", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize

from spectra_perturb import decomp, matching

for name in ("zgees", "ztrexc", "ztrtri", "zlange"):
    assert getattr(decomp, name) is getattr(scipy.linalg.lapack, name), name
assert matching.linear_sum_assignment is scipy.optimize.linear_sum_assignment
a = np.array([[1.0, 2.0j], [0.5, -1.0]])
t, z = scipy.linalg.schur(a, output="complex")
assert np.allclose(z @ t @ z.conj().T, a)
"""


def test_import_loads_scipy_extensions_without_their_packages():
    # the package imports of scipy.linalg and scipy.optimize, and the
    # process pool, would triple the time of a fresh import; an import of
    # those packages afterwards reuses the very extension functions
    result = _run_python("-c", _FRESH_IMPORT)
    assert result.returncode == 0, result.stderr


def _tolerances(tree: ast.AST) -> list:
    """The round-off thresholds written in a syntax tree: float constants
    in (0, 1e-6) and ``finfo(...).eps``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-6:
            found.append(node)
        elif isinstance(node, ast.Attribute) and node.attr == "eps" and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) == "finfo":
                found.append(node)
    return found


def test_every_tolerance_lives_in_the_table():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    (table,) = [
        node
        for node in trees["matrices.py"].body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_TOLERANCES"]
    ]
    inside = {id(node) for node in _tolerances(table)}
    assert inside, "the table holds no tolerance the search recognises"
    outside = [
        f"{name}:{node.lineno}" for name, tree in trees.items() for node in _tolerances(tree) if id(node) not in inside
    ]
    assert not outside, f"tolerances outside matrices._TOLERANCES: {outside}"


def test_readme_lists_every_tolerance():
    from spectra_perturb.matrices import _TOLERANCES

    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.M) == list(_TOLERANCES)



def _normalised(distribution: str) -> str:
    """A distribution name as PEP 503 compares it."""
    return re.sub(r"[-_.]+", "-", distribution).lower()


def _declared_dependencies() -> set:
    """The distribution names in ``[project] dependencies`` of pyproject.toml,
    read as text (Python 3.10 has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, flags=re.M | re.S).group(1)
    return {_normalised(re.match(r"[A-Za-z0-9_.-]+", req).group()) for req in re.findall(r'"([^"]+)"', block)}


def _imported_top_level_modules() -> set:
    """The top-level modules the package's sources import, relative imports excluded."""
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_every_third_party_import_is_a_declared_dependency():
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"spectra_perturb"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    declared = _declared_dependencies()
    distributions = importlib.metadata.packages_distributions()  # import name -> distribution names
    undeclared = [
        module
        for module in sorted(third_party)
        if not declared & {_normalised(d) for d in distributions.get(module, [module])}
    ]
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {undeclared}"
    # CI installs the declared dependencies with the package itself
    assert 'pip install -e ".[test]"' in (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
