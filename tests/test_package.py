"""Package surface: every exported name of every module resolves."""

import importlib
import pkgutil

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
