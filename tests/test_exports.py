"""Every exported name resolves, and every demo runs.

A deleted or renamed function can leave a stale entry in a module's
``__all__``, in the package's lazy ``_EXPORTS`` table, or in a demo script;
none of these fail any other test.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorchain

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(set(mirrorchain._EXPORTS.values()) | {".cli"})
DEMOS = [
    "01_mirror_spectrum.py",
    "02_decompose_chain.py",
    "03_bell_transfer.py",
    "04_grape_pulse.py",
]


def test_package_exports_resolve():
    for name, module in mirrorchain._EXPORTS.items():
        owner = importlib.import_module(module, "mirrorchain")
        assert name in owner.__all__, f"{name} is not in mirrorchain{module}.__all__"
        assert getattr(mirrorchain, name) is getattr(owner, name)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_resolves(module):
    owner = importlib.import_module(module, "mirrorchain")
    missing = [name for name in owner.__all__ if not hasattr(owner, name)]
    assert not missing


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
