import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spectra_perturb

ROOT = Path(__file__).resolve().parent.parent
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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
