"""Package surface: every exported name of every module resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import udsets

MODULES = sorted(m.name for m in pkgutil.iter_modules(udsets.__path__))


def test_module_list_is_complete():
    assert {"bessel", "cli", "torus", "registry", "udgraph", "witness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"udsets.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"udsets.{name}.__all__ lists missing {attr!r}"


def test_import_loads_no_scipy():
    # scipy submodules load in the graph functions that call them
    script = (
        "import sys, udsets, udsets.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
