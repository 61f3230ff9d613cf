"""Exact rational linear programming: game values and duality."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
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
    value, weights = maximize_min([[Fraction(1, 3), Fraction(2, 5)]])
    assert value == Fraction(1, 3)
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
        payoff = [
            [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
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


def test_fraction_payoffs_stay_exact():
    value, _ = maximize_min([[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 7), Fraction(1, 3)]])
    # uniform mixture gives (1/3 + 1/7)/2 in both columns
    assert value == Fraction(5, 21)


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
    tab = lp._Tableau([[-1, 1, 1, 1], [-1, 0, 0, 0]], [2])
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


# small and large denominators (the scale), all-negative entries (the
# shift), and constant matrices, where every strategy is optimal
_payoffs = st.one_of(
    _matrices(st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    _matrices(st.fractions(min_value=-5, max_value=5, max_denominator=10**6)),
    _matrices(
        st.fractions(min_value=-5, max_value=Fraction(-1, 10**6), max_denominator=10**6)
    ),
    st.tuples(
        st.integers(1, 4),
        st.integers(1, 4),
        st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
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


_systems = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        ),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(_systems)
def test_solve_square_is_exact(system):
    matrix, rhs = system
    x = lp.solve_square(matrix, rhs)
    if _determinant(matrix) == 0:
        assert x is None
    else:
        assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs
