"""The package namespace re-exports exactly the modules' public names, and
the package runs without loading SciPy, a test-only dependency, or its
thread pool before a run asks for one."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import poolscreen
from poolscreen import designs, dilution, estimation, simulation, tables

MODULES = (designs, dilution, estimation, simulation, tables)

# module constants that stay in their module
NOT_REEXPORTED = {"DEFAULT_BATCH_CAP", "MAX_EXACT_POOL_COUNT", "BLOCK_REPS"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_reexports_each_modules_list():
    expected = {name for m in MODULES for name in m.__all__} - NOT_REEXPORTED
    exported = {
        name for name, value in vars(poolscreen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == expected
    for module in MODULES:
        for name in set(module.__all__) - NOT_REEXPORTED:
            assert getattr(poolscreen, name) is getattr(module, name)


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports poolscreen from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_thread_pool():
    # only runs with workers > 1 use concurrent.futures, and import it then
    result = _run_fresh(
        "import sys, poolscreen\n"
        "sys.exit('concurrent.futures loaded' if 'concurrent.futures' in sys.modules else 0)\n"
    )
    assert result.returncode == 0, result.stderr


def test_runtime_loads_no_scipy():
    # SciPy is a test-only oracle; a fresh interpreter that imports the
    # package and runs a CLI report must not load any of it
    result = _run_fresh(
        "import sys, poolscreen, poolscreen.cli\n"
        "poolscreen.cli.main(['design', '--prevalence', '0.02'])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n"
    )
    assert result.returncode == 0, result.stderr
    assert "architecture: dorfman" in result.stdout
