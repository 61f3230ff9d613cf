"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _run_optimized

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_set_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_demo_claim_fails_under_python_O():
    # a wrong worked-example value must stop the demo even with asserts off
    proc = _run_optimized(
        "import dataclasses, runpy\n"
        "import cclab\n"
        "bp = cclab.bp_measure\n"
        "cclab.bp_measure = lambda lam, f, eps:"
        " dataclasses.replace(bp(lam, f, eps), value=3)\n"
        "runpy.run_path('demos/perturbation_operator.py', run_name='__main__')\n"
    )
    assert proc.returncode != 0, proc.stdout
    assert "worked example value 3 != 2" in proc.stderr
