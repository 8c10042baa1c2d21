"""Every name a ticsp module exports in `__all__`, and every ticsp name the
benchmark binds, exists."""
import importlib
import pkgutil
from pathlib import Path

import pytest

import ticsp

MODULES = ["ticsp"] + [f"ticsp.{m.name}" for m in pkgutil.iter_modules(ticsp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_benchmark_bindings_resolve(monkeypatch):
    # perfbench's tracer wraps these names and its kernel timer imports
    # others: a deleted or renamed entry point fails here, not only in a
    # traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    importlib.import_module("kernels")
    for module, path in tracer.SPANS + tracer.COUNTERS:
        target = importlib.import_module(module)
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), (module, path)
