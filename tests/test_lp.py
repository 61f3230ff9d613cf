"""Exact rational linear programming: game values and duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import lp
from cclab.lp import (
    LpInfeasibleError,
    LpSolution,
    LpUnboundedError,
    maximize_min,
    minimize_max,
    solve_lp,
)


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


def test_fraction_payoffs_stay_exact():
    value, _ = maximize_min([[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 7), Fraction(1, 3)]])
    # uniform mixture gives (1/3 + 1/7)/2 in both columns
    assert value == Fraction(5, 21)


# ---------------------------------------------------------------------------
# solve_lp paths the game helpers never reach


def _record_pivots(monkeypatch):
    """Pivot entries in the order the solver uses them."""
    entries = []
    pivot = lp._Tableau.pivot

    def recording_pivot(self, row, col):
        entries.append(self.rows[row][col])
        pivot(self, row, col)

    monkeypatch.setattr(lp._Tableau, "pivot", recording_pivot)
    return entries


def test_infeasible_systems():
    # x + y = 1 cannot meet x + y <= 0
    with pytest.raises(LpInfeasibleError):
        solve_lp([1, 1], eq=[([1, 1], 1)], ub=[([1, 1], 0)])
    # a ub row with negative rhs that no nonnegative x satisfies
    with pytest.raises(LpInfeasibleError):
        solve_lp([1], ub=[([1], -1)])


def test_unbounded_objective():
    with pytest.raises(LpUnboundedError):
        solve_lp([-1, 0], ub=[([1, -1], 1)])
    with pytest.raises(LpUnboundedError):
        solve_lp([1, 1], eq=[([1, -1], 0)], minimize=False)


def test_eq_row_with_negative_rhs():
    # -x - 2y = -4 is x + 2y = 4; x + y is cheapest at y = 2
    sol = solve_lp([1, 1], eq=[([-1, -2], -4)])
    assert sol == LpSolution(Fraction(2), (Fraction(0), Fraction(2)))
    sol = solve_lp([1, 1], eq=[([-1, -2], -4)], minimize=False)
    assert sol == LpSolution(Fraction(4), (Fraction(4), Fraction(0)))


def test_redundant_eq_row_is_dropped():
    # the second row is twice the first: phase 1 leaves an artificial basic
    # on a row that is zero in every real column, and drops that row
    sol = solve_lp([1, -1], eq=[([1, 1], 1), ([2, 2], 2)])
    assert sol == LpSolution(Fraction(-1), (Fraction(0), Fraction(1)))
    sol = solve_lp([1, 2, 0], eq=[([1, 1, 1], 3), ([1, -1, 0], 1), ([2, 0, 1], 4)])
    assert sol == LpSolution(Fraction(1), (Fraction(1), Fraction(0), Fraction(2)))


def test_drive_out_pivot_on_negative_entry(monkeypatch):
    # The equalities and the ub row force x0 = x2 = 1/4, x1 = 0.  Phase 1
    # ends with an artificial still basic at level 0; driving it out pivots
    # on a negative entry, which flips the sign of the whole tableau, and
    # phase 2 pivots again from there.
    pivots = _record_pivots(monkeypatch)
    sol = solve_lp(
        [-2, 0, -1],
        eq=[([-2, -1, -2], -1), ([1, -1, -1], 0)],
        ub=[([1, 0, -1], 0)],
    )
    assert sol == LpSolution(
        Fraction(-3, 4), (Fraction(1, 4), Fraction(0), Fraction(1, 4))
    )
    negative = [k for k, p in enumerate(pivots) if p < 0]
    assert negative and negative[-1] < len(pivots) - 1


def test_fraction_coefficients_are_scaled():
    # x/4 + y/6 >= 1/12 is 3x + 2y >= 1; y is the cheaper way to cover it
    sol = solve_lp(
        [Fraction(1, 2), Fraction(1, 5)],
        ub=[([Fraction(-1, 4), Fraction(-1, 6)], Fraction(-1, 12))],
    )
    assert sol == LpSolution(Fraction(1, 10), (Fraction(0), Fraction(1, 2)))
    # objective denominators 4 and 3: the value is divided back exactly
    sol = solve_lp(
        [Fraction(3, 4), Fraction(2, 3)],
        ub=[([Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6))],
        eq=[([Fraction(1, 7), 0], 0)],
        minimize=False,
    )
    assert sol == LpSolution(Fraction(5, 3), (Fraction(0), Fraction(5, 2)))


def test_row_length_is_checked():
    with pytest.raises(ValueError, match="ub row 0"):
        solve_lp([1, 1], ub=[([1], 1)])
    with pytest.raises(ValueError, match="eq row 1"):
        solve_lp([1], eq=[([1], 1), ([1, 2], 1)])


_payoffs = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(_payoffs)
def test_game_sides_agree_on_rational_games(payoff):
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
