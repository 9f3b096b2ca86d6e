"""The benchmark's tracer binds library functions by name, and its checks
call library functions with fixed arguments: renaming or moving one, or
changing a call the benchmark makes, breaks the benchmark, so it fails here
first."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# perfbench/selftest.py's checks that run no workload (about 1 s); its
# traced workload runs take about a minute and stay out of this suite
FAST_SELFTEST = """
import sys
sys.path.insert(0, "perfbench")
import selftest
errors = selftest.check_references() + selftest.check_bindings()
print("\\n".join(errors))
sys.exit(1 if errors else 0)
"""


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


def test_benchmark_fast_selftest_passes():
    # a subprocess: check_bindings installs the tracer's wrappers while it runs
    proc = subprocess.run([sys.executable, "-c", FAST_SELFTEST], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
