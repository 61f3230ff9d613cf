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


def _scipy_game(rows):
    """The game LP as `linprog` takes it, as `HighsGame` builds it:
    min t s.t. a.w - t <= 0, with sum(w) = 1."""
    rows = np.asarray(rows, dtype=float)
    count, cells = rows.shape
    res = scipy_linprog(
        c=[0.0] * cells + [1.0],
        A_ub=np.hstack([rows, np.full((count, 1), -1.0)]),
        b_ub=np.zeros(count),
        A_eq=[[1.0] * cells + [0.0]],
        b_eq=[1.0],
        bounds=[(0.0, None)] * cells + [(None, None)],
        method="highs",
    )
    return res.x if res.status == 0 else None


def _assert_bit_equal(ours, theirs):
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def _sign_rows(count, cells):
    row = st.lists(st.integers(-1, 1), min_size=cells, max_size=cells)
    return st.lists(row, min_size=count, max_size=count)


_grown = st.tuples(st.integers(2, 9), st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda s: st.tuples(_sign_rows(s[1], s[0]), _sign_rows(s[2], s[0]))
)


def _assert_optimal_like_linprog(ours, rows):
    # same status as a fresh linprog, the same objective within 1e-9, and
    # an x feasible for the game
    theirs = _scipy_game(rows)
    assert (ours is None) == (theirs is None)
    if ours is None:
        return
    w, t = ours[:-1], ours[-1]
    assert ours.shape == theirs.shape
    assert abs(t - theirs[-1]) <= 1e-9
    assert w.min() >= -1e-9 and abs(w.sum() - 1.0) <= 1e-9
    assert (np.asarray(rows, dtype=float) @ w).max() <= t + 1e-9


@settings(max_examples=60, deadline=None)
@given(_grown)
def test_grown_game_matches_linprog_every_round(game_rows):
    # the `disc` shape: one model, one cut appended per round, solved warm;
    # the first, cold solve is linprog's bit for bit
    start, cuts = game_rows
    game = HighsGame(start)
    rows = list(start)
    first = measures.linprog(game)
    _assert_bit_equal(first, _scipy_game(rows))
    _assert_optimal_like_linprog(first, rows)
    for cut in cuts:
        game.add_rows([cut])
        rows.append(cut)
        _assert_optimal_like_linprog(measures.linprog(game), rows)


_bit_rows = st.tuples(st.integers(13, 60), st.sampled_from([4, 6, 9, 12])).flatmap(
    lambda s: st.lists(
        st.lists(st.integers(0, 1), min_size=s[1], max_size=s[1]),
        min_size=s[0],
        max_size=s[0],
    )
)


@settings(max_examples=40, deadline=None)
@given(_bit_rows)
def test_tight_basis_reads_the_basis_statuses(bits):
    # `tight_basis` decodes getBasicVariables (row r as -1 - r), here
    # checked against the statuses getBasis names, on a grown game
    game = HighsGame(bits[:5])
    game.add_rows(bits[5:])
    measures.linprog(game)
    basis = game.highs.getBasis()
    basic = type(basis.col_status[0]).kBasic
    status = list(basis.row_status)
    del status[game.equality]
    rows = [r for r, s in enumerate(status) if s != basic]
    columns = [c for c in range(game.cells) if basis.col_status[c] == basic]
    assert game.tight_basis() == (columns, rows)


def test_grown_game_is_solved_warm():
    # a cut that leaves the optimum feasible costs no simplex iteration
    rows = [[1, -1, 0], [-1, 1, 1], [0, 1, -1]]
    game = HighsGame(rows)
    x = measures.linprog(game)
    game.add_rows([[-1, -1, -1]])
    again = measures.linprog(game)
    assert game.highs.getInfo().simplex_iteration_count == 0
    assert np.allclose(again, x, atol=1e-12)
    assert x[-1] == pytest.approx(float(minimize_max(rows)[0]))


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
        "HighsStatus",
        "simplex_constants",
    ]
    missing = [name for name in names if not hasattr(_core, name)]
    methods = [
        "addCols",
        "addRow",
        "addRows",
        "passOptions",
        "run",
        "getModelStatus",
        "getSolution",
        "getBasicVariables",
    ]
    if hasattr(_core, "_Highs"):
        missing += [f"_Highs.{m}" for m in methods if not hasattr(_core._Highs, m)]
    if hasattr(_core, "HighsStatus") and not hasattr(_core.HighsStatus, "kOk"):
        missing.append("HighsStatus.kOk")
    assert not missing, f"scipy.optimize._highspy._core lacks {', '.join(missing)}"


def test_import_cclab_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # neither the import nor an entry-count bp query, whose prefix games
    # are exact, loads scipy.optimize
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import cclab, cclab.cli\n"
        "from cclab.matrices import BooleanMatrix\n"
        "from cclab.measures import bp_measure, entry_count_measure\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        "loaded()\n"
        "f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1)])\n"
        "print(bp_measure(entry_count_measure(), f, Fraction(1, 4)).value)\n"
        "loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n3\n[]\n"), proc.stderr
