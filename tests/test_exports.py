"""Every name a qncfem module exports in `__all__` exists."""

import importlib
import pkgutil

import pytest

import qncfem

MODULES = ["qncfem"] + [
    f"qncfem.{info.name}" for info in pkgutil.iter_modules(qncfem.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if getattr(module, n, None) is None]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
