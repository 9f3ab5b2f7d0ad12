"""Every exported name resolves, the CLI imports without numpy, and every demo runs.

A deleted or renamed function can leave a stale entry in a module's
``__all__`` or in a demo script; neither fails any other test.  The
command-line entry point must load without numpy, so that it can set the
thread variables first.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = [".chain", ".cli", ".decompose", ".grape", ".pauli", ".states", ".transfer"]
DEMOS = [
    "01_mirror_spectrum.py",
    "02_decompose_chain.py",
    "03_bell_transfer.py",
    "04_grape_pulse.py",
]


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_resolves(module):
    owner = importlib.import_module(module, "mirrorchain")
    missing = [name for name in owner.__all__ if not hasattr(owner, name)]
    assert not missing


def test_cli_import_leaves_numpy_unloaded():
    code = (
        "import sys, mirrorchain.cli\n"
        "print('numpy' in sys.modules)\n"
        "from mirrorchain import grape\n"
        "print(grape.__name__)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "mirrorchain.grape"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
