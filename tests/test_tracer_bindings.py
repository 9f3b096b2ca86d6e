"""The benchmark's tracer binds library functions by name: renaming or
moving one breaks the benchmark, so it fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_functions_resolve(tracing):
    missing = [f"{mod}.{name}" for mod, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"delaylab.{mod}"), name, None))]
    assert missing == []


def test_traced_methods_resolve(tracing):
    missing = []
    for mod, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"delaylab.{mod}"), cls_name, None)
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(f"{mod}.{cls_name}.{meth}")
    assert missing == []
