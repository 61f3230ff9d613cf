"""The benchmark's output checkers pass their own self-test."""

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
