"""Exact rational linear programming: game values and duality."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab import lp
from cclab.invariants import InvariantError
from cclab.lp import maximize_min, minimize_max


def test_matching_pennies_value():
    # max-min of the identity payoff is 1/2 at the uniform mixture
    value, weights = maximize_min([[1, 0], [0, 1]])
    assert value == Fraction(1, 2)
    assert weights == (Fraction(1, 2), Fraction(1, 2))


def test_skew_symmetric_game_is_fair():
    value, _ = maximize_min([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    assert value == 0


def test_single_row_and_column():
    value, weights = maximize_min([[-4, 9]])
    assert value == -4
    assert weights == (Fraction(1),)
    value, weights = minimize_max([[3], [7]])
    assert value == 7
    assert weights == (Fraction(1),)


def test_dominated_strategy_ignored():
    # row 1 dominates row 0, so the optimum plays row 1 alone
    value, weights = maximize_min([[0, 0], [1, 2]])
    assert value == 1
    assert weights == (0, 1)


def test_minimize_max_known_value():
    # column player mixing the identity also yields 1/2
    value, weights = minimize_max([[1, 0], [0, 1]])
    assert value == Fraction(1, 2)
    assert weights == (Fraction(1, 2), Fraction(1, 2))


def test_exact_duality_on_random_games():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        payoff = [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)]
        primal, p = maximize_min(payoff)
        dual, q = minimize_max(payoff)
        assert primal == dual
        # both returned strategies must achieve the common value
        assert sum(p) == 1 and all(w >= 0 for w in p)
        assert sum(q) == 1 and all(w >= 0 for w in q)
        for j in range(cols):
            assert sum(p[i] * payoff[i][j] for i in range(rows)) >= primal
        for i in range(rows):
            assert sum(payoff[i][j] * q[j] for j in range(cols)) <= dual


def test_all_negative_game_is_shifted_exactly():
    # no saddle point: value (ad - bc) / (a + d - b - c) = -5/2
    value, p, q = lp._game([[-1, -3], [-4, -2]])
    assert value == Fraction(-5, 2)
    assert p == (Fraction(1, 2), Fraction(1, 2))
    assert q == (Fraction(1, 4), Fraction(3, 4))


def test_non_integer_payoffs_are_refused():
    # the tableau divides exactly only on integers; `//` would floor the rest
    for entry in (Fraction(1, 3), Fraction(2), 0.5, 2.0):
        for solve in (minimize_max, maximize_min):
            with pytest.raises(ValueError, match="payoffs must be integers"):
                solve([[1, 0], [0, entry]])


def test_malformed_payoffs_are_refused():
    with pytest.raises(ValueError, match="^empty payoff matrix"):
        minimize_max([])
    for matrix in ([[]], [[1, 2], [3]], [[1], []]):
        with pytest.raises(ValueError, match="ragged or empty"):
            maximize_min(matrix)


def test_game_certificate_refuses_an_unsolved_tableau(monkeypatch):
    # the slack basis is feasible but not optimal: y = x = 0 reach no value
    monkeypatch.setattr(lp._Tableau, "run_simplex", lambda tab, ncols: None)
    with pytest.raises(InvariantError, match="do not certify"):
        lp._game([[1, 0], [0, 1]])


def test_game_certificate_refuses_a_suboptimal_basis(monkeypatch):
    # one pivot brings y0 into the basis of the shifted [[2, 1], [1, 2]]: a
    # feasible vertex whose dual x misses column 1, so (pM)_1 < value
    monkeypatch.setattr(lp._Tableau, "run_simplex", lambda tab, ncols: tab.pivot(0, 0))
    with pytest.raises(InvariantError, match="do not certify"):
        lp._game([[1, 0], [0, 1]])


def test_run_simplex_refuses_an_unbounded_objective():
    # min -y0 subject to -y0 + y1 <= 1: y0 enters and no row limits it
    tab = lp._Tableau(np.array([[-1, 1, 1, 1], [-1, 0, 0, 0]]), [2])
    with pytest.raises(InvariantError, match="without bound"):
        tab.run_simplex(3)


def _matrices(entries):
    return st.integers(1, 4).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


# small and large magnitudes, all-negative entries (the shift), and
# constant matrices, where every strategy is optimal
_payoffs = st.one_of(
    _matrices(st.integers(-6, 6)),
    _matrices(st.integers(-(10**12), 10**12)),
    _matrices(st.integers(-(10**12), -1)),
    st.tuples(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(-(10**12), 10**12),
    ).map(lambda shape: [[shape[2]] * shape[1] for _ in range(shape[0])]),
)


def _check_game_sides_agree(payoff):
    rows, cols = len(payoff), len(payoff[0])
    primal, p = maximize_min(payoff)
    dual, q = minimize_max(payoff)
    assert primal == dual
    for weights in (p, q):
        assert sum(weights) == 1 and all(w >= 0 for w in weights)
    # each side's weights achieve the value exactly against every response
    column_payoffs = [sum(p[i] * payoff[i][j] for i in range(rows)) for j in range(cols)]
    row_payoffs = [sum(payoff[i][j] * q[j] for j in range(cols)) for i in range(rows)]
    assert min(column_payoffs) == primal
    assert max(row_payoffs) == dual


@settings(max_examples=80, deadline=None)
@given(_payoffs)
def test_game_sides_agree_on_rational_games(payoff):
    _check_game_sides_agree(payoff)


@settings(max_examples=80, deadline=None)
@given(_payoffs)
def test_game_sides_agree_under_blands_rule(payoff):
    # BLAND_AFTER = 0 enters the lowest-index improving column from the
    # first pivot on
    with mock.patch.object(lp, "BLAND_AFTER", 0):
        _check_game_sides_agree(payoff)


class _ListTableau:
    # the list-based tableau that lp._Tableau's array replaced, as a
    # reference: one list comprehension of Python ints per row and pivot
    def __init__(self, rows, basis):
        self.rows, self.basis, self.det = rows, basis, 1
        self.largest = max(abs(v) for row in rows for v in row)

    def pivot(self, row, col):
        rows, det = self.rows, self.det
        pivot_row = rows[row]
        p = pivot_row[col]
        for r, cur in enumerate(rows):
            if r == row:
                continue
            factor = cur[col]
            if factor:
                rows[r] = [(a * p - factor * b) // det for a, b in zip(cur, pivot_row)]
            elif p != det:
                rows[r] = [a * p // det for a in cur]
        self.basis[row] = col
        self.det = p
        self.largest = max(self.largest, max(abs(v) for row in rows for v in row))

    def run_simplex(self, ncols):
        rows, basis = self.rows, self.basis
        pivots = 0
        while True:
            obj = rows[-1]
            enter = -1
            if pivots < lp.BLAND_AFTER:
                worst = 0
                for j in range(ncols):
                    if obj[j] < worst:
                        worst, enter = obj[j], j
            else:
                enter = next((j for j in range(ncols) if obj[j] < 0), -1)
            if enter < 0:
                return
            leave = -1
            best_rhs = best_coeff = 0
            for r in range(len(basis)):
                coeff = rows[r][enter]
                if coeff > 0:
                    rhs = rows[r][-1]
                    if leave < 0:
                        better = True
                    else:
                        new, old = rhs * best_coeff, best_rhs * coeff
                        better = new < old or (new == old and basis[r] < basis[leave])
                    if better:
                        best_rhs, best_coeff, leave = rhs, coeff, r
            assert leave >= 0
            self.pivot(leave, enter)
            pivots += 1


def _reference_game(matrix):
    # (value, p, q) as lp._game reads them off the list tableau, with the
    # tableau itself and the common denominator total
    nrows, ncols = len(matrix), len(matrix[0])
    shift = 1 - min(map(min, matrix))
    rows = [
        [a + shift for a in row] + [int(k == i) for k in range(nrows)] + [1]
        for i, row in enumerate(matrix)
    ]
    rows.append([-1] * ncols + [0] * (nrows + 1))
    tab = _ListTableau(rows, list(range(ncols, ncols + nrows)))
    tab.run_simplex(ncols + nrows)
    x, total = tab.rows[-1][ncols:-1], tab.rows[-1][-1]
    y = [0] * ncols
    for row, col in zip(tab.rows, tab.basis):
        if col < ncols:
            y[col] = row[-1]
    value = Fraction(tab.det - shift * total, total)
    p = tuple(Fraction(w, total) for w in x)
    q = tuple(Fraction(w, total) for w in y)
    return (value, p, q), tab, total


@settings(max_examples=120, deadline=None)
@given(_payoffs, st.sampled_from([lp.BLAND_AFTER, 0]), st.sampled_from([lp.INT64_BOUND, 16]))
def test_array_tableau_matches_the_list_tableau(payoff, bland_after, bound):
    # the same pivots on the same integers: equal (value, p, q) under
    # Dantzig's and Bland's rule, and with the int64 bound patched low so
    # most solves move to Python ints partway
    with mock.patch.object(lp, "BLAND_AFTER", bland_after), mock.patch.object(
        lp, "INT64_BOUND", bound
    ):
        expected, _, _ = _reference_game(payoff)
        assert lp._game(payoff) == expected


def _dtypes_per_pivot(monkeypatch):
    # the tableau's dtype after each pivot
    seen = []
    pivot = lp._Tableau.pivot

    def recorded(tab, row, col):
        pivot(tab, row, col)
        seen.append(tab.rows.dtype)

    monkeypatch.setattr(lp._Tableau, "pivot", recorded)
    return seen


def test_patched_bound_moves_the_tableau_to_python_ints_midway(monkeypatch):
    payoff = [[3, -2, 5, 0], [-4, 6, 1, 2], [2, 3, -5, 4], [0, -1, 2, -3]]
    expected, _, _ = _reference_game(payoff)
    monkeypatch.setattr(lp, "INT64_BOUND", 64)
    seen = _dtypes_per_pivot(monkeypatch)
    assert lp._game(payoff) == expected
    assert seen[0] == np.int64 and seen[-1] == object


def test_a_game_crossing_2_to_the_31_moves_to_python_ints(monkeypatch):
    # shifted payoffs below 2^31 start in int64; the 4x4 minors they grow
    # into do not fit, so the solve finishes on Python ints
    rng = random.Random(31)
    payoff = [[rng.randrange(-(10**5), 10**5) for _ in range(4)] for _ in range(4)]
    expected, reference, _ = _reference_game(payoff)
    assert reference.largest >= 2**31 > max(map(max, payoff)) - min(map(min, payoff)) + 1
    seen = _dtypes_per_pivot(monkeypatch)
    assert lp._game(payoff) == expected
    assert seen[0] == np.int64 and seen[-1] == object


def test_a_certificate_past_int64_runs_on_python_ints():
    # max|M| * total >= 2^63, so M y and x M would overflow in int64
    payoff = [[10**12, -(10**12) + 7], [-(10**12) + 3, 10**12 - 5]]
    expected, _, total = _reference_game(payoff)
    assert 10**12 * total >= 2**63
    assert lp._game(payoff) == expected


def test_integer_arrays_solve_as_their_lists():
    payoff = [[1, 0, 2], [0, 1, 0]]
    expected = lp._game(payoff)
    for dtype in (np.uint8, np.int8, np.uint32, np.int64, object):
        array = np.array(payoff, dtype=dtype)
        assert lp._game(array) == expected
        assert lp._game(array.T) == lp._game([list(col) for col in zip(*payoff)])
    huge = np.array([[2**64, 0], [0, 2**64]], dtype=object)
    assert lp._game(huge)[0] == 2**63
    # uint64 does not cast to int64, so its entries are checked one by one
    # and refused as numpy scalars, as entries of any other dtype are
    with pytest.raises(ValueError, match="^empty payoff matrix"):
        lp._game(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="ragged or empty"):
        lp._game(np.zeros((3, 0), dtype=np.uint8))
    for dtype in (np.uint64, float):
        with pytest.raises(ValueError, match="payoffs must be integers"):
            lp._game(np.array(payoff, dtype=dtype))


def _determinant(matrix):
    # plain Fraction elimination, as a reference for singularity
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def _lead_zeroed(case):
    # a zero in the top-left corner makes every nonsingular matrix swap rows
    matrix, zero_lead = case
    if zero_lead:
        matrix[0][0] = 0
    return matrix


def _squares(entries):
    return (
        st.integers(1, 7)
        .flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(entries, min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.booleans(),
            )
        )
        .map(_lead_zeroed)
    )


_square_matrices = _squares(st.integers(-2, 2))


@settings(max_examples=300, deadline=None)
@given(_square_matrices)
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
def test_inverse_edges_solve_both_systems(matrix):
    edges = lp.inverse_edges(matrix)
    if _determinant(matrix) == 0:
        assert edges is None
        return
    column, row = edges
    n = len(matrix)
    unit = [0] * (n - 1) + [1]
    assert [sum(a * v for a, v in zip(line, column)) for line in matrix] == unit
    assert [sum(line[j] * v for line, v in zip(matrix, row)) for j in range(n)] == unit


def _solves_both_systems(matrix, edges):
    column, row = edges
    n = len(matrix)
    unit = [0] * (n - 1) + [1]
    return (
        [sum(a * v for a, v in zip(line, column)) for line in matrix] == unit
        and [sum(line[j] * v for line, v in zip(matrix, row)) for j in range(n)] == unit
    )


@settings(max_examples=100, deadline=None)
@given(_squares(st.integers(-(10**12), 10**12)))
@example([[0, 10**12], [-(10**12), 3]])
def test_inverse_edges_past_2_to_the_31_solve_both_systems(matrix):
    # entries up to 10^12 start the elimination on Python ints; the lead
    # zero still makes it swap rows
    edges = lp.inverse_edges(matrix)
    if _determinant(matrix) == 0:
        assert edges is None
    else:
        assert _solves_both_systems(matrix, edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_square_matrices, _squares(st.integers(-40, 40))))
def test_inverse_edges_on_a_patched_bound_match_the_int64_run(matrix):
    # with the int64 bound patched to 16, most eliminations move to Python
    # ints partway; the results do not change
    expected = lp.inverse_edges(matrix)
    with mock.patch.object(lp, "INT64_BOUND", 16):
        assert lp.inverse_edges(matrix) == expected


def test_patched_bound_moves_the_inverse_to_python_ints_midway(monkeypatch):
    matrix = [[3, -2, 5, 0], [-4, 6, 1, 2], [2, 3, -5, 4], [0, -1, 2, -3]]
    expected = lp.inverse_edges(matrix)
    assert _solves_both_systems(matrix, expected)
    monkeypatch.setattr(lp, "INT64_BOUND", 16)
    seen = _dtypes_per_pivot(monkeypatch)
    assert lp.inverse_edges(matrix) == expected
    assert seen[0] == np.int64 and seen[-1] == object
