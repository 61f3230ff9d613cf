"""Exact zero-sum games and square systems over the rationals.

Every exact LP in this package is a finite zero-sum game, so the one
solver is a single-phase game simplex (Dantzig 1951, "A proof of the
equivalence of the programming problem and the game problem").  `_game`
takes integer payoffs, as every caller has, and shifts them so the
smallest is 1.  The shifted game P has a value V > 0, and max sum(y)
subject to P y <= 1, y >= 0 is feasible at y = 0 (the slack basis, so
there is no phase 1) and bounded, since P >= 1 forces y <= 1.  At the
optimum sum(y) = 1 / V, y / sum(y) is an optimal column strategy, and
the objective row's slack entries hold the dual solution x, whose
x / sum(x) is an optimal row strategy.  Before it returns, `_game`
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
identity every entry stays a minor of the shifted input, so the division
is exact and no gcd is ever taken.  The ratio test pivots only on
positive entries, so det stays positive, reduced costs compare as
stored, and the ratio test compares rhs / coeff by cross-multiplication.

The rows are one 2-D NumPy array, and a pivot is a few whole-array steps
on it.  The array is int64 while every entry lies below INT64_BOUND = 2^31
in absolute value before a pivot: then every entry of row * p - row[c] *
rows[r] stays below 2 * (2^31)^2 = 2^63 in absolute value, so the int64
steps compute exactly the integers Python ints would.  From the first
pivot where the bound fails, and from the start when the shifted payoffs
already exceed it, the array holds Python ints (dtype object) for the
rest of the solve.

`inverse_edges` runs the same pivot as Gauss-Jordan elimination on
[M | I] for a square integer matrix M.  It returns the last column and
the last row of M^-1: the solutions of the primal and the dual system of
the float basis that `disc`'s HiGHS model ends on
(`measures._certificate`).  `minimize_max` and `maximize_min` return the
two sides of `_game`: `disc` falls back to `minimize_max`, and every
prefix game of the perturbation operator is one `maximize_min` call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .invariants import check

BLAND_AFTER = 300
# the tableau stays int64 while its entries are below this (module docstring)
INT64_BOUND = 1 << 31

# int rows, or a 2-D array of a dtype that casts to int64
Payoffs = Union[Sequence[Sequence[int]], np.ndarray]


class _Tableau:
    """Integer rows over one shared denominator `det`, as one 2-D array;
    in a simplex run the last entry of each row is its rhs and the last
    row is the objective row.

    `pivot` takes any nonzero pivot entry, so outside the simplex, as in
    `inverse_edges`, det can turn negative; `//` by det is exact for
    either sign, because every entry is a minor.  The simplex's ratio test
    pivots on positive entries only, which keeps det > 0 there.

    The array is int64 while every entry lies below INT64_BOUND in absolute
    value before a pivot, so the pivot's products cannot overflow; at the
    first pivot where one does not, it becomes an object array of Python
    ints for the rest of the solve.
    """

    def __init__(self, rows: np.ndarray, basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis
        self.det = 1

    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        if rows.dtype != object and not -INT64_BOUND < rows.min() <= rows.max() < INT64_BOUND:
            rows = self.rows = rows.astype(object)
        pivot_row = rows[row].copy()
        p = pivot_row[col]
        factors = rows[:, col].copy()
        rows *= p
        rows -= factors[:, None] * pivot_row
        if self.det != 1:
            rows //= self.det
        rows[row] = pivot_row
        self.basis[row] = col
        self.det = int(p)

    def run_simplex(self, ncols: int) -> None:
        """Pivot until the objective row (last) has no negative reduced cost.

        The basis must be feasible (every rhs >= 0) and the objective
        bounded below; `_game` starts from its slack basis, which is both.
        Entering variable: most negative reduced cost (Dantzig), the first
        on ties, switching to lowest index (Bland) after BLAND_AFTER pivots
        so degenerate cycling cannot run forever.  Leaving variable: minimum
        ratio, ties broken by lowest basis index; with Bland entering this
        is the classic anti-cycling rule.
        """
        basis = self.basis
        pivots = 0
        while True:
            obj = self.rows[-1, :ncols]
            if pivots < BLAND_AFTER:
                enter = int(obj.argmin())
                if obj[enter] >= 0:
                    return
            else:
                negative = np.flatnonzero(obj < 0)
                if not negative.size:
                    return
                enter = int(negative[0])
            coeffs = self.rows[: len(basis), enter].tolist()
            rhss = self.rows[: len(basis), -1].tolist()
            leave = -1
            best_rhs = best_coeff = 0
            for r, (coeff, rhs) in enumerate(zip(coeffs, rhss)):
                if coeff > 0:
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


def inverse_edges(
    matrix: Sequence[Sequence[int]],
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """(last column, last row) of the inverse of the square integer matrix
    M, or None if M is singular: the solutions x of M x = e_n and y of
    M^T y = e_n.

    Gauss-Jordan on [M | I] by the tableau's fraction-free pivot solves
    both: column k pivots on the first unpivoted row whose entry there is
    nonzero.  After n pivots the row that pivoted column k reads
    det * e_k | det * (row k of M^-1), with det = det M up to sign, so x
    is the last column of the right half and y the row of column n - 1.
    """
    M = _payoffs(matrix)
    n = len(M)
    tab = _Tableau(np.hstack([M, np.eye(n, dtype=np.int64)]), [-1] * n)
    order = []  # order[k]: the row that pivoted column k
    for k in range(n):
        column = tab.rows[:, k].tolist()
        at = next((r for r, col in enumerate(tab.basis) if col < 0 and column[r]), None)
        if at is None:
            return None
        tab.pivot(at, k)
        order.append(at)
    det, last = tab.det, tab.rows[:, -1].tolist()
    x = [last[r] for r in order]
    y = tab.rows[order[-1], n:].tolist()
    return tuple(Fraction(v, det) for v in x), tuple(Fraction(v, det) for v in y)


# ---------------------------------------------------------------------------
# zero-sum games


def _payoffs(matrix: Payoffs) -> np.ndarray:
    """matrix as a 2-D integer array: an array of an integer dtype that
    casts to int64 as it is, and anything else checked entry by entry and
    made an int64 array, or an object array of Python ints when an entry
    does not fit in int64."""
    integer = (
        isinstance(matrix, np.ndarray)
        and matrix.ndim == 2
        and matrix.dtype.kind in "iu"
        and np.can_cast(matrix.dtype, np.int64)
    )
    if len(matrix) == 0:
        raise ValueError("empty payoff matrix")
    ncols = len(matrix[0])
    if ncols == 0 or not integer and any(len(row) != ncols for row in matrix):
        raise ValueError("ragged or empty payoff matrix")
    if integer:
        return matrix
    # the tableau's `//` is exact on integers only; it would floor a Fraction
    if not all(isinstance(v, int) for row in matrix for v in row):
        raise ValueError("payoffs must be integers")
    try:
        return np.array(matrix, dtype=np.int64)
    except OverflowError:
        return np.array(matrix, dtype=object)


def _game(matrix: Payoffs) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(value, p, q) of the game where the row player, mixing rows by p,
    receives the int matrix[i][j] (any other entry raises ValueError) from
    the column player, mixing columns by q:
    value = max_p min_j (p M)_j = min_q max_i (M q)_i.  `matrix` is a
    sequence of int rows or a 2-D array of a dtype that casts to int64.

    The simplex leaves y and the dual x as integers over det, each summing
    to total / det, and the shifted game's value is det / total.  So
    p = x / total, q = y / total and value = (det - shift * total) /
    total.  The certificate compares total times each side in integers,
    before any division, so an unsolved tableau fails it rather than
    dividing by zero.  Once x and y are known nonnegative with sum total,
    every partial sum of M y and x M is at most max|M| * total in absolute
    value, so both products run in int64 when that is below 2^63, and in
    Python ints otherwise.
    """
    M = _payoffs(matrix)
    nrows, ncols = M.shape
    lo, hi = int(M.min()), int(M.max())
    shift = 1 - lo
    rows = np.zeros(
        (nrows + 1, ncols + nrows + 1), dtype=np.int64 if hi + shift < INT64_BOUND else object
    )
    block = rows[:nrows, :ncols]
    block[...] = M
    block -= lo  # in the tableau's dtype, where M - lo cannot overflow
    block += 1
    rows[np.arange(nrows), ncols + np.arange(nrows)] = 1
    rows[:nrows, -1] = 1
    rows[-1, :ncols] = -1
    tab = _Tableau(rows, list(range(ncols, ncols + nrows)))
    tab.run_simplex(ncols + nrows)

    objective = tab.rows[-1].tolist()
    x, total = objective[ncols:-1], objective[-1]
    y = [0] * ncols
    for rhs, col in zip(tab.rows[:, -1].tolist(), tab.basis):
        if col < ncols:
            y[col] = rhs
    target = tab.det - shift * total
    if max(-lo, hi, 1) * max(total, 1) < 1 << 63:
        M, dtype = M.astype(np.int64, copy=False), np.int64
    else:
        M, dtype = M.astype(object), object
    check(
        sum(x) == total == sum(y)
        and min(x + y) >= 0
        and int((M @ np.array(y, dtype=dtype)).max()) == target
        and int((np.array(x, dtype=dtype) @ M).min()) == target,
        f"game strategies do not certify the value on {nrows}x{ncols} payoffs",
    )
    return (
        Fraction(target, total),
        tuple(Fraction(w, total) for w in x),
        tuple(Fraction(w, total) for w in y),
    )


def minimize_max(
    matrix: Payoffs,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(value, column weights) with value = min_q max_i (M q)_i, where
    matrix[i][j] is the payoff when row response i meets column atom j."""
    value, _, q = _game(matrix)
    return value, q


def maximize_min(
    matrix: Payoffs,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(value, row weights) with value = max_p min_j (p M)_j; the same game
    and value as minimize_max."""
    value, p, _ = _game(matrix)
    return value, p
