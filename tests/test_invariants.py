"""`check` and the lint that keeps every library invariant a `check`."""

import ast
from pathlib import Path

import pytest

from cclab.invariants import InvariantError, check

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cclab"


def test_check_passes_and_raises():
    check(True, "unused")
    report = {"max_error": 1}
    with pytest.raises(AssertionError) as excinfo:
        check(0, "the message", report)
    assert isinstance(excinfo.value, InvariantError)
    assert str(excinfo.value) == "the message"
    assert excinfo.value.report is report
    assert InvariantError("bare").report is None


def _names_assertion_error(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(_names_assertion_error(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "AssertionError"


def _lint(path: Path) -> list[str]:
    """Bare asserts, and raise or except AssertionError outside the two
    places that own them: the invariants module and the suites' runner."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = set()
    for node in ast.walk(tree):
        runner = isinstance(node, ast.FunctionDef) and node.name == "_case"
        if path.name == "invariants.py" or (path.name == "suites.py" and runner):
            exempt.update(ast.walk(node))
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif node in exempt:
            continue
        elif isinstance(node, ast.Raise) and _names_assertion_error(node.exc):
            found.append(f"{where}: raise AssertionError")
        elif isinstance(node, ast.ExceptHandler) and _names_assertion_error(node.type):
            found.append(f"{where}: except AssertionError")
    return found


def test_library_states_invariants_with_check_only():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _lint(path)] == []


def test_demos_state_claims_with_check_only():
    # a demo's bare assert would vanish under python -O, and the demo
    # would exit 0 with its claim false
    paths = sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) == 6
    assert [hit for path in paths for hit in _lint(path)] == []


def test_lint_catches_each_pattern(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "assert x\n"
        "raise AssertionError('m')\n"
        "try:\n    pass\nexcept (ValueError, AssertionError):\n    pass\n"
    )
    assert _lint(planted) == [
        "planted.py:1: assert statement",
        "planted.py:2: raise AssertionError",
        "planted.py:5: except AssertionError",
    ]
