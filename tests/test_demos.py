"""Each narrative demo runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert "False" not in out.stdout  # every pathwise check a demo prints holds
