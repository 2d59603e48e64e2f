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


def test_graph_layer_runs_without_scipy():
    # with scipy unimportable, import the package and run every graph
    # function of the udgraph_sample workload on its disk raster
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import udsets.cli\n"
        "from udsets import udgraph as u\n"
        "from udsets.constructions import hex_disk_packing, rasterize\n"
        "G = u.build(8, 4)\n"
        "u.subset_stats(G, u.greedy_mis(G, 1))\n"
        "u.subset_stats(G, u.glauber_sample(G, 2000, 1))\n"
        "assert u.max_is_exact(u.build(2, 5)).exact\n"
        "rep = u.block_decomposition(rasterize(hex_disk_packing(), 128, 8, beta=0.01))\n"
        "print(rep.n_blocks, rep.has_block_structure)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["16", "True"]
