"""Exact zero-sum games and square systems over the rationals.

Every exact LP in this package is a finite zero-sum game, so the one
solver is a single-phase game simplex (Dantzig 1951, "A proof of the
equivalence of the programming problem and the game problem").  `_game`
scales the payoffs to integers by the LCM of their denominators and
shifts them so the smallest is 1.  The shifted game P has a value V > 0,
and max sum(y) subject to P y <= 1, y >= 0 is feasible at y = 0 (the
slack basis, so there is no phase 1) and bounded, since P >= 1 forces
y <= 1.  At the optimum sum(y) = 1 / V, y / sum(y) is an optimal column
strategy, and the objective row's slack entries hold the dual solution x,
whose x / sum(x) is an optimal row strategy.  Before it returns, `_game`
checks exactly that both strategies reach the value: every solve carries
an LP-duality certificate.  There are no tolerances anywhere.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968).  The starting
basis is the identity of the slack columns, with determinant 1.  From
then on every row, the objective row included, holds integers over one
shared positive denominator `det`, the determinant of the current basis
(up to sign):

    exact tableau entry = rows[r][j] / det

A pivot on (r, c) with p = rows[r][c] maps every other row to
(row * p - row[c] * rows[r]) // det and then sets det = p.  By Sylvester's
identity every entry stays a minor of the scaled input, so the division
is exact and no gcd is ever taken.  Since all entries share det > 0,
reduced costs compare as stored, and the ratio test compares rhs / coeff
by cross-multiplication.  A pivot on a negative entry, which only
`solve_square` makes, negates the whole tableau so det stays positive.

`solve_square` runs the same pivot as fraction-free Gauss-Jordan
elimination on a square integer system; the game engine in `measures`
(`_solve_game`) solves the primal and dual systems of a float basis with
it.  `minimize_max` and `maximize_min` return the two sides of `_game`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .invariants import check

Number = Union[int, Fraction]

BLAND_AFTER = 300


class _Tableau:
    """Integer rows over one shared positive denominator `det`; the last
    entry of each row is its rhs, and during a simplex run the last row is
    the objective row."""

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis
        self.det = 1

    def pivot(self, row: int, col: int) -> None:
        rows, det = self.rows, self.det
        pivot_row = rows[row]
        p = pivot_row[col]
        for r, cur in enumerate(rows):
            if r == row:
                continue
            factor = cur[col]
            if factor:
                rows[r] = [(a * p - factor * b) // det for a, b in zip(cur, pivot_row)]
            elif p != det:  # only moves to the new denominator
                rows[r] = [a * p // det for a in cur]
        self.basis[row] = col
        if p < 0:
            for r, cur in enumerate(rows):
                rows[r] = [-a for a in cur]
            p = -p
        self.det = p

    def run_simplex(self, ncols: int) -> None:
        """Pivot until the objective row (last) has no negative reduced cost.

        The basis must be feasible (every rhs >= 0) and the objective
        bounded below; `_game` starts from its slack basis, which is both.
        Entering variable: most negative reduced cost (Dantzig), switching
        to lowest index (Bland) after BLAND_AFTER pivots so degenerate
        cycling cannot run forever.  Leaving variable: minimum ratio, ties
        broken by lowest basis index; with Bland entering this is the
        classic anti-cycling rule.
        """
        rows, basis = self.rows, self.basis
        pivots = 0
        while True:
            obj = rows[-1]
            enter = -1
            if pivots < BLAND_AFTER:
                worst = 0
                for j in range(ncols):
                    if obj[j] < worst:
                        worst = obj[j]
                        enter = j
            else:
                for j in range(ncols):
                    if obj[j] < 0:
                        enter = j
                        break
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
                    else:  # rhs / coeff against best_rhs / best_coeff
                        new, old = rhs * best_coeff, best_rhs * coeff
                        better = new < old or (new == old and basis[r] < basis[leave])
                    if better:
                        best_rhs, best_coeff, leave = rhs, coeff, r
            check(leave >= 0, "objective improves without bound")
            self.pivot(leave, enter)
            pivots += 1


def solve_square(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[tuple[Fraction, ...]]:
    """The exact solution x of the square integer system matrix . x = rhs,
    or None if the matrix is singular.

    Fraction-free Gauss-Jordan elimination on the augmented rows with the
    tableau's own pivot: column k is pivoted on the first row not yet used
    whose entry there is nonzero.  Afterwards each used row holds det at
    its pivot column and zero at every other pivot column, so x is each
    row's rhs over det.
    """
    n = len(matrix)
    tab = _Tableau([[*row, b] for row, b in zip(matrix, rhs)], [-1] * n)
    free = list(range(n))
    for col in range(n):
        row = next((r for r in free if tab.rows[r][col]), None)
        if row is None:
            return None
        free.remove(row)
        tab.pivot(row, col)
    x = [Fraction(0)] * n
    for row, col in enumerate(tab.basis):
        x[col] = Fraction(tab.rows[row][-1], tab.det)
    return tuple(x)


# ---------------------------------------------------------------------------
# zero-sum games


def _check_matrix(matrix: Sequence[Sequence[Number]]) -> tuple[int, int]:
    nrows = len(matrix)
    if nrows == 0:
        raise ValueError("empty payoff matrix")
    ncols = len(matrix[0])
    if ncols == 0 or any(len(row) != ncols for row in matrix):
        raise ValueError("ragged or empty payoff matrix")
    return nrows, ncols


def _game(
    matrix: Sequence[Sequence[Number]],
) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(value, p, q) of the game where the row player, mixing rows by p,
    receives matrix[i][j] from the column player, mixing columns by q:
    value = max_p min_j (p M)_j = min_q max_i (M q)_i.

    The simplex leaves y and the dual x as integers over det, each summing
    to total / det, and the shifted game's value is det / total.  So
    p = x / total, q = y / total and value = (det - shift * total) /
    (total * scale).  The certificate compares total * scale times each
    side in integers, before any division, so an unsolved tableau fails it
    rather than dividing by zero.
    """
    nrows, ncols = _check_matrix(matrix)
    payoff = [[Fraction(v) for v in row] for row in matrix]
    scale = lcm(*(v.denominator for row in payoff for v in row))
    scaled = [[v.numerator * (scale // v.denominator) for v in row] for row in payoff]
    shift = 1 - min(map(min, scaled))
    rows = [
        [a + shift for a in row] + [int(k == i) for k in range(nrows)] + [1]
        for i, row in enumerate(scaled)
    ]
    rows.append([-1] * ncols + [0] * (nrows + 1))
    tab = _Tableau(rows, list(range(ncols, ncols + nrows)))
    tab.run_simplex(ncols + nrows)

    x, total = tab.rows[-1][ncols:-1], tab.rows[-1][-1]
    y = [0] * ncols
    for row, col in zip(tab.rows, tab.basis):
        if col < ncols:
            y[col] = row[-1]
    target = tab.det - shift * total
    check(
        sum(x) == total == sum(y)
        and min(x + y) >= 0
        and max(sum(a * w for a, w in zip(row, y)) for row in scaled) == target
        and min(sum(w * row[j] for w, row in zip(x, scaled)) for j in range(ncols))
        == target,
        f"game strategies do not certify the value on {nrows}x{ncols} payoffs",
    )
    return (
        Fraction(target, total * scale),
        tuple(Fraction(w, total) for w in x),
        tuple(Fraction(w, total) for w in y),
    )


def minimize_max(
    matrix: Sequence[Sequence[Number]],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(value, column weights) with value = min_q max_i (M q)_i, where
    matrix[i][j] is the payoff when row response i meets column atom j."""
    value, _, q = _game(matrix)
    return value, q


def maximize_min(
    matrix: Sequence[Sequence[Number]],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(value, row weights) with value = max_p min_j (p M)_j; the same game
    and value as minimize_max."""
    value, p, _ = _game(matrix)
    return value, p
