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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in read
    ]


def _names(node) -> set[str]:
    return {
        getattr(sub, "id", None) or getattr(sub, "attr", None)
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _domain_decisions(path: Path) -> list[str]:
    """Comparisons against MAX_SIDE or BP_MAX_CELLS, and raises of
    DomainMismatchError: the domain decisions that `matrices` owns.  Using
    a guard constant as a value, as the CLI's guards blocks do, is not one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Compare):
            guards = _names(node) & {"MAX_SIDE", "BP_MAX_CELLS"}
            found += [f"{where}: compares {name}" for name in sorted(guards)]
        elif isinstance(node, ast.Raise) and "DomainMismatchError" in _names(node):
            found.append(f"{where}: raise DomainMismatchError")
    return found


def test_domain_decisions_live_in_matrices():
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "matrices.py"]
    assert paths
    assert [hit for path in paths for hit in _domain_decisions(path)] == []
    # the lint sees the decisions where they are made
    owned = _domain_decisions(SOURCE / "matrices.py")
    assert {hit.split(": ", 1)[1] for hit in owned} == {
        "compares MAX_SIDE",
        "compares BP_MAX_CELLS",
        "raise DomainMismatchError",
    }


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


def test_library_imports_are_used(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "x: Sequence[int]\n"
    )
    assert _unused_imports(planted) == ["planted.py:2: os", "planted.py:3: Optional"]
    # the package's __init__ imports to re-export; demos and tests import
    # only what they use
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []
