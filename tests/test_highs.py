"""The float-LP helper against `scipy.optimize.linprog`, the private HiGHS
binding it drives, and the lazy scipy import it allows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from cclab import measures
from cclab.lp import minimize_max
from cclab.measures import HighsGame

ROOT = Path(__file__).resolve().parent.parent


def _scipy_game(rows, minimize: bool):
    """The game LP as `linprog` takes it, in `HighsGame`'s sign convention:
    min t s.t. a.w - t <= 0, or min -v s.t. -a.w + v <= 0, with sum(w) = 1."""
    rows = np.asarray(rows, dtype=float)
    count, cells = rows.shape
    sign = 1.0 if minimize else -1.0
    res = scipy_linprog(
        c=[0.0] * cells + [sign],
        A_ub=np.hstack([sign * rows, np.full((count, 1), -sign)]),
        b_ub=np.zeros(count),
        A_eq=[[1.0] * cells + [0.0]],
        b_eq=[1.0],
        bounds=[(0.0, None)] * cells + [(None, None)],
        method="highs",
    )
    return (res.x, res.slack) if res.status == 0 else None


def _assert_bit_equal(ours, theirs):
    assert (ours is None) == (theirs is None)
    if ours is not None:
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sign_rows(count, cells):
    row = st.lists(st.integers(-1, 1), min_size=cells, max_size=cells)
    return st.lists(row, min_size=count, max_size=count)


_grown = st.tuples(st.integers(2, 9), st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda s: st.tuples(_sign_rows(s[1], s[0]), _sign_rows(s[2], s[0]))
)


@settings(max_examples=60, deadline=None)
@given(_grown)
def test_grown_game_matches_linprog_every_round(game_rows):
    # the `_presolve_rows` shape: one model, one cut appended per round
    start, cuts = game_rows
    game = HighsGame(start, minimize=True)
    rows = list(start)
    _assert_bit_equal(measures.linprog(game), _scipy_game(rows, minimize=True))
    for cut in cuts:
        game.add_rows([cut])
        rows.append(cut)
        _assert_bit_equal(measures.linprog(game), _scipy_game(rows, minimize=True))


_prefixes = st.tuples(st.integers(13, 60), st.sampled_from([4, 6, 9, 12])).flatmap(
    lambda s: st.lists(
        st.lists(st.integers(0, 1), min_size=s[1], max_size=s[1]),
        min_size=s[0],
        max_size=s[0],
    )
)


@settings(max_examples=60, deadline=None)
@given(_prefixes)
def test_prefix_game_matches_linprog(bits):
    # the `_prefix_game` shape: 0/1 difference rows, solved once
    bits = np.array(bits, dtype=np.int64)
    ours = measures.linprog(HighsGame(bits, minimize=False))
    _assert_bit_equal(ours, _scipy_game(bits, minimize=False))


def test_linprog_solves_cold_after_a_solve():
    # a second solve of an unchanged model repeats the first bit for bit
    rows = [[1, -1, 0], [-1, 1, 1], [0, 1, -1]]
    game = HighsGame(rows, minimize=True)
    first = measures.linprog(game)
    _assert_bit_equal(measures.linprog(game), first)
    assert first[0][-1] == pytest.approx(float(minimize_max(rows)[0]))


def test_highs_binding_is_where_the_helper_expects_it():
    # private scipy API: fail by name, not by an AttributeError mid-solve
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        pytest.fail(f"scipy.optimize._highspy._core is gone: {exc}")
    names = [
        "_Highs",
        "HighsOptions",
        "HighsModelStatus",
        "HighsDebugLevel",
        "simplex_constants",
    ]
    missing = [name for name in names if not hasattr(_core, name)]
    methods = [
        "addCols",
        "addRows",
        "deleteRows",
        "passOptions",
        "clearSolver",
        "run",
        "getModelStatus",
        "getSolution",
    ]
    if hasattr(_core, "_Highs"):
        missing += [f"_Highs.{m}" for m in methods if not hasattr(_core._Highs, m)]
    assert not missing, f"scipy.optimize._highspy._core lacks {', '.join(missing)}"


def test_import_cclab_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = (
        "import sys\n"
        "import cclab, cclab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
