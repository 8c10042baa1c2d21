"""Every name a ticsp module exports in `__all__` exists."""
import importlib
import pkgutil

import pytest

import ticsp

MODULES = ["ticsp"] + [f"ticsp.{m.name}" for m in pkgutil.iter_modules(ticsp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
