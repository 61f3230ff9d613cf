"""Exact linear programming over the rationals.

A small two-phase primal simplex, sized for the game and separation
problems in this package: a few dozen variables, a few hundred
constraints.  There are no tolerances anywhere; infeasibility,
unboundedness, and optimality are exact statements.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968).  Each
constraint row and the objective are scaled to integers by the LCM of
their denominators.  Slack and artificial columns are added after the
scaling with coefficient 1, so the starting basis is an identity and the
starting determinant is 1.  From then on every row, the objective row
included, holds integers over one shared positive denominator `det`, the
determinant of the current basis (up to sign):

    exact tableau entry = rows[r][j] / det

A pivot on (r, c) with p = rows[r][c] maps every other row to
(row * p - row[c] * rows[r]) // det and then sets det = p.  By Sylvester's
identity every entry stays a minor of the scaled input, so the division
is exact and no gcd is ever taken.  Since all entries share det > 0,
reduced costs compare as stored, and the ratio test compares rhs / coeff
by cross-multiplication.  The phase-1 drive-out may pivot on a negative
entry; the whole tableau is then negated so det stays positive.

`solve_square` runs the same pivot as fraction-free Gauss-Jordan
elimination on a square integer system; the game engine in `measures`
(`_solve_game`) solves the primal and dual systems of a float basis with
it.  `solve_lp` takes the problem in the usual inequality form with
implicitly nonnegative variables.  `minimize_max` and `maximize_min` wrap
the two sides of a finite zero-sum game; by LP duality they agree exactly
on the same payoff matrix, which some callers assert as a solver
self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

Number = Union[int, Fraction]

Constraint = tuple[Sequence[Number], Number]

BLAND_AFTER = 300


class LpInfeasibleError(ValueError):
    """The constraint system has no nonnegative solution."""


class LpUnboundedError(ValueError):
    """The objective improves without bound over the feasible set."""


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]


def _integer_row(values: Sequence[Number]) -> tuple[list[int], int]:
    """`values` times the LCM of their denominators, and that LCM."""
    fracs = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


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
            if leave < 0:
                raise LpUnboundedError("objective improves without bound")
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


def solve_lp(
    objective: Sequence[Number],
    eq: Sequence[Constraint] = (),
    ub: Sequence[Constraint] = (),
    minimize: bool = True,
) -> LpSolution:
    """Optimize objective . x over x >= 0 subject to eq rows (coeffs . x =
    rhs) and ub rows (coeffs . x <= rhs)."""
    nvars = len(objective)
    cost, cost_scale = _integer_row(objective)
    if not minimize:
        cost = [-v for v in cost]

    nslack = len(ub)
    rows: list[list[int]] = []
    needs_artificial: list[bool] = []
    for kind, constraints in (("ub", ub), ("eq", eq)):
        for idx, (coeffs, rhs) in enumerate(constraints):
            if len(coeffs) != nvars:
                raise ValueError(f"{kind} row {idx} has {len(coeffs)} coefficients")
            scaled, _ = _integer_row([*coeffs, rhs])
            row = scaled[:-1] + [0] * nslack
            if kind == "ub":
                row[nvars + idx] = 1
            row.append(scaled[-1])
            negative = row[-1] < 0
            if negative:
                row = [-v for v in row]
            needs_artificial.append(kind == "eq" or negative)
            rows.append(row)

    # Phase 1: artificial basis where no slack can serve.
    ncols = nvars + nslack
    basis: list[int] = []
    art_cols: list[int] = []
    for r, needed in enumerate(needs_artificial):
        if needed:
            col = ncols + len(art_cols)
            art_cols.append(col)
            basis.append(col)
        else:
            basis.append(nvars + r)  # the slack of ub row r
    total = ncols + len(art_cols)
    for r, row in enumerate(rows):
        rhs = row.pop()
        row.extend([0] * len(art_cols))
        if basis[r] >= ncols:
            row[basis[r]] = 1
        row.append(rhs)
    tab = _Tableau(rows, basis)

    if art_cols:
        obj = [0] * (total + 1)
        for r in range(len(rows)):
            if basis[r] >= ncols:
                obj = [a - b for a, b in zip(obj, rows[r])]
        for col in art_cols:
            obj[col] = 0
        tab.rows.append(obj)
        tab.run_simplex(total)
        if tab.rows[-1][-1] < 0:
            raise LpInfeasibleError("phase 1 ends with positive artificial mass")
        tab.rows.pop()
        # Drive leftover artificials out of the basis; drop redundant rows.
        r = 0
        while r < len(tab.rows):
            if basis[r] >= ncols:
                col = next((j for j in range(ncols) if tab.rows[r][j] != 0), -1)
                if col < 0:
                    tab.rows.pop(r)
                    basis.pop(r)
                    continue
                tab.pivot(r, col)
            r += 1
    rows = tab.rows = [row[:ncols] + row[-1:] for row in tab.rows]

    # Phase 2 objective row, det * (cost - cost_B B^-1 A): reduced costs
    # over the same det as every other row.
    det = tab.det
    full_cost = cost + [0] * nslack
    obj = [det * c for c in full_cost] + [0]
    for r in range(len(rows)):
        weight = full_cost[basis[r]]
        if weight:
            obj = [a - weight * b for a, b in zip(obj, rows[r])]
    rows.append(obj)
    tab.run_simplex(ncols)

    det = tab.det
    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab.rows[r][-1], det)
    value = Fraction(-tab.rows[-1][-1], det * cost_scale)
    if not minimize:
        value = -value
    return LpSolution(value, tuple(x))


# ---------------------------------------------------------------------------
# zero-sum game helpers


def _check_matrix(matrix: Sequence[Sequence[Number]]) -> tuple[int, int]:
    nrows = len(matrix)
    if nrows == 0:
        raise ValueError("empty payoff matrix")
    ncols = len(matrix[0])
    if ncols == 0 or any(len(row) != ncols for row in matrix):
        raise ValueError("ragged or empty payoff matrix")
    return nrows, ncols


def minimize_max(
    matrix: Sequence[Sequence[Number]],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Smallest achievable maximum row payoff over column mixtures.

    matrix[i][j] is the payoff when row response i meets column atom j;
    returns (value, column weights) with value = min_q max_i (M q)_i.
    The threshold variable is split into a difference of nonnegatives so
    negative game values are representable.
    """
    nrows, ncols = _check_matrix(matrix)
    objective = [0] * ncols + [1, -1]
    eq = [([1] * ncols + [0, 0], 1)]
    ub = [
        ([Fraction(matrix[i][j]) for j in range(ncols)] + [-1, 1], 0)
        for i in range(nrows)
    ]
    sol = solve_lp(objective, eq=eq, ub=ub)
    return sol.value, sol.x[:ncols]


def maximize_min(
    matrix: Sequence[Sequence[Number]],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Largest achievable minimum column payoff over row mixtures.

    Returns (value, row weights) with value = max_p min_j (p M)_j; equals
    minimize_max on the same matrix by duality.
    """
    nrows, ncols = _check_matrix(matrix)
    objective = [0] * nrows + [1, -1]
    eq = [([1] * nrows + [0, 0], 1)]
    ub = [
        ([-Fraction(matrix[i][j]) for i in range(nrows)] + [1, -1], 0)
        for j in range(ncols)
    ]
    sol = solve_lp(objective, eq=eq, ub=ub, minimize=False)
    return sol.value, sol.x[:nrows]
