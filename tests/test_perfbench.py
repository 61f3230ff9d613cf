"""The benchmark's output checkers pass their own self-test."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checker_self_test():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "test_checks.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("checker self-tests passed")


def test_tracer_finds_every_binding_it_patches():
    # The tracer wraps cclab functions by their module attribute names, so
    # a refactor that drops one of them breaks `run.py --trace 1`.
    code = "import tracer; tracer.install(tracer.Tracer()); print('installed')"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "installed"
