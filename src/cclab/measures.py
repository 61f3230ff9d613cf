"""Matrix measures and the perturbation operator.

Discrepancy and the perturbation operator's prefix games are zero-sum
games over input distributions, both solved exactly.  Discrepancy has one
row per signed rectangle, too many to list, so `_solve_game` solves it by
constraint generation.  Floats grow the working set of rows in one
warm-started HiGHS model and choose the optimal basis; an exact
LP-duality certificate read from that basis (a bound from the dual, a
bound on the other side from the best response to the primal) settles
the value, and the exact simplex takes over from the rows tight at the
float optimum when the basis is unusable.  Every cut comes from one
`_RectangleScan`, the best rectangle under the weights: one numpy kernel
enumerates subsets of the smaller side.  `_cuts` reads it under float
weights, and `_exact_cuts` under exact weights, as integer numerators
over their common denominator, so no scan does Fraction arithmetic.  The
same scan holds the best rectangle of every subset and sign, so each
round adds up to `CUTS_PER_ROUND` = 16 rectangles, the best response
first and then the most violated: a warm HiGHS run costs milliseconds
even when it makes no pivot, and 16 cuts a round take about a fifth of
the runs one cut a round took (14 instead of 80 on the 7x7 `ladder7`
fixture).  The scan hands its cuts over as int8 rows, built in one
vectorised pass and keyed by their bytes; only the returned witness
becomes a `Rectangle`.  A prefix game is small and holds all of its rows
from the start, so the exact game simplex solves it in one call, with no
float LP.

`HighsGame` holds one HiGHS model per game and appends each round's cuts
in one call, and `linprog` solves it, warm from the last basis once the
model has grown.  A model solved once gives `scipy.optimize.linprog`'s
answer bit for bit.

Margin complexity is bounded above numerically: one annealed softmin
ascent on the margins of a unit-vector realization, started from the axis
realization of the smaller side, runs on the matrix with its lines that
are equal up to sign merged, and the realization it returns, expanded
back to every line, is checked to have margin >= 1 exactly, in integer
arithmetic; its float value is rounded up to at least the exact product
of its largest norms.
The exact discrepancy supplies a rigorous bracket around the true value,
so a broken optimizer is detectable rather than silently wrong.

The perturbation operator turns any matrix measure into a game: an
adversary distribution tries to force every cheap matrix to disagree with
f on more than eps mass.  Candidates are scanned in ascending measure
order; the value is decided by prefix games, located by binary search
since the prefix game value only falls as the prefix grows.  A prefix
game's rows are the difference sets of its candidates from f.  A row
that properly contains another row of the prefix is never the only
minimum under nonnegative weights, so each game keeps only the minimal
rows: dropping the others changes neither its value nor its optimal
weights.  One subset-minimum transform over the 2**cells masks per f
finds them for every prefix.  Each probed prefix is settled by its exact
game alone: a prefix that contains f keeps only f's all-zero difference
row, a one-row game of value 0.  The minimal rows are an antichain, so a
game has at most C(cells, cells // 2) of them; on eight half-full 3x4 f,
no game kept more than 20 of up to 4,096 candidates.  Consecutive
prefixes, and different f, often keep the same rows, so games are
memoized by their kept rows and each distinct game is solved once.
`bp_measure` answers every query on one measure and shape from one
shared game, so the candidates are scored once across an eps ladder.
The candidates' cell bits are one uint8 block, and entry count and family
cost score it directly (a row sum; a table lookup by mask), so their games
build no `BooleanMatrix` until a witness is returned.

A measure flagged `relabel_invariant` (discrepancy's, `log-inverse-disc`)
is scored once per orbit of the candidates under row and column
permutations, the transpose of a square shape and the complement:
8 orbits of 64 matrices at 2x3, 13 of 512 at 3x3, 47 of 4,096 at 3x4
and 104 of 65,536 at 4x4.  The orbit labels come from vectorised
generator images and pointer jumping over all 2**cells masks
(`_orbit_labels`).  The values are equal across an orbit exactly, so the
sort, and every result, is the one a full scan gives.  The margin
measure is not flagged: its float ascent does not return bit-equal
values on relabelled inputs.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .invariants import check
from .lp import inverse_edges, maximize_min, minimize_max
from .matrices import (
    BP_MAX_CELLS,
    BooleanMatrix,
    InputDistribution,
    Rectangle,
    SignMatrix,
    SizeGuardError,
)
from .protocols import GuessProtocol, pp_cost, pp_cost_closed, pp_matrix

# ---------------------------------------------------------------------------
# float presolve


class HighsGame:
    """A matrix game's float LP, held as one HiGHS model that grows by rows.

    The columns are the cell weights w >= 0 and a free value column t, and
    the model is min t subject to a.w <= t for every row a, the
    `minimize_max` side of the game.  Game rows enter through `add_rows`
    only: construction adds the first rows and then the equality row
    sum(w) = 1, at index `equality`, so the model is exactly what
    `scipy.optimize.linprog(method="highs")` builds from the same game
    ([A_ub; A_eq]), with its options (presolve on, dual simplex, no
    output).  Later `add_rows` calls append a batch of rows (one round's
    cuts) after the equality row, which leaves HiGHS's basis valid, so the
    next solve starts warm from it.

    scipy is imported here, on the first float LP, so `import cclab` does
    not load `scipy.optimize`.  The binding is private scipy API; scipy
    1.15 is the first release that ships it.
    """

    def __init__(self, rows):
        from scipy.optimize._highspy import _core

        self.cells = len(rows[0])
        self.optimal = _core.HighsModelStatus.kOptimal
        self.ok = _core.HighsStatus.kOk
        self.highs = _core._Highs()
        options = _core.HighsOptions()
        options.presolve = "on"
        strategy = _core.simplex_constants.SimplexStrategy
        options.simplex_strategy = strategy.kSimplexStrategyDual
        options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        options.output_flag = False
        options.log_to_console = False
        self.highs.passOptions(options)
        count = self.cells + 1
        cost = np.zeros(count)
        cost[-1] = 1.0
        lower = np.zeros(count)
        lower[-1] = -np.inf
        empty = np.zeros(count, dtype=np.int32)
        self.highs.addCols(
            count, cost, lower, np.full(count, np.inf), 0, empty, empty, np.zeros(0)
        )
        self.add_rows(rows)
        self.equality = len(rows)
        cells = np.arange(self.cells, dtype=np.int32)
        self.highs.addRow(1.0, 1.0, self.cells, cells, np.ones(self.cells))

    def add_rows(self, rows) -> None:
        """Append the game rows a as a.w - t <= 0 after every row already in
        the model, in compressed row form: the nonzeros of the dense block
        [rows | -1], in column order within each row."""
        block = np.column_stack((rows, np.full(len(rows), -1.0)))
        at, index = np.nonzero(block)
        starts = np.searchsorted(at, np.arange(len(block))).astype(np.int32)
        lower, upper = np.full(len(block), -np.inf), np.zeros(len(block))
        index, value = index.astype(np.int32), block[at, index]
        self.highs.addRows(len(block), lower, upper, len(at), starts, index, value)

    def tight_basis(self) -> Optional[tuple[list[int], list[int]]]:
        """The basic cell columns and the nonbasic (tight) game rows of the
        last solve's basis, in index order, or None if HiGHS holds none.
        Game rows are numbered in the order they were given, skipping the
        equality row.  `getBasicVariables` returns one int32 array (column
        c >= 0, row r as -1 - r), where `getBasis` would build one Python
        object per row: on a game of 2,049 rows those left about 1 MB of
        heap that later solves could not reuse."""
        status, basic = self.highs.getBasicVariables()
        if status != self.ok:
            return None
        columns = np.sort(basic[(basic >= 0) & (basic < self.cells)]).tolist()
        tight = np.ones(len(basic), dtype=bool)
        tight[-1 - basic[basic < 0]] = False
        return columns, np.flatnonzero(np.delete(tight, self.equality)).tolist()


def linprog(game: HighsGame) -> Optional[np.ndarray]:
    """Solve `game` and return its optimal x, the cell weights and then the
    value t, or None if HiGHS stops short of an optimum.

    Every float LP in this module, each round of `disc`'s constraint
    generation, goes through here.  A model solved for the first time
    starts from scratch exactly as a fresh `scipy.optimize.linprog` call
    does, and returns its x bit for bit; a model grown since its last solve
    starts warm from that solve's basis.
    """
    game.highs.run()
    if game.highs.getModelStatus() != game.optimal:
        return None
    return np.array(game.highs.getSolution().col_value)


# ---------------------------------------------------------------------------
# discrepancy


def _numerators(weights: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """Exact weights as integer numerators over their common denominator.

    The weights form a distribution, so every partial or signed sum the
    scans take is at most the denominator in absolute value: int64 holds
    them when the denominator does, and Python ints (an object array)
    hold them otherwise.
    """
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    return np.array(nums, dtype=np.int64 if den < 2**63 else object), den


def _distribution(rows: int, cols: int, weights) -> InputDistribution:
    """Flat row-major cell weights as a rows x cols distribution."""
    grid = tuple(tuple(weights[x * cols : (x + 1) * cols]) for x in range(rows))
    return InputDistribution(rows, cols, grid)


CUTS_PER_ROUND = 16


class _RectangleScan:
    """The best rectangle for every subset of the smaller side of A and each
    sign, under flat row-major cell weights `w` (int64, object or float64).

    Once one side is fixed, the best other side is simply the lines whose
    signed sums share a sign, so the search is 2^min(rows, cols) instead
    of the full rectangle count.  Each subset's sums extend the sums of
    the subset without its highest member, so float sums run in ascending
    line order.  `values[2 * subset]` is the positive side's value and
    `values[2 * subset + 1]` the negative side's; `best` and `ranked` read
    them, and `rows` turns indices into game rows.
    """

    def __init__(self, A: SignMatrix, w: np.ndarray):
        self.transpose = A.rows > A.cols
        signs = np.array(A.entries, dtype=np.int8)
        W = w.reshape(A.rows, A.cols) * signs.astype(np.int64)
        if self.transpose:
            W, signs = W.T, signs.T
        self.m = W.shape[0]
        sums = np.zeros((1 << self.m, W.shape[1]), dtype=W.dtype)
        for i in range(self.m):
            sums[1 << i : 2 << i] = sums[: 1 << i] + W[i]
        pos = np.zeros(1 << self.m, dtype=W.dtype)
        neg = np.zeros(1 << self.m, dtype=W.dtype)
        for column in sums.T:
            pos += np.where(column > 0, column, 0)
            neg -= np.where(column < 0, column, 0)
        self.signs = signs
        self.sums = sums
        self.values = np.stack((pos, neg), axis=1).ravel()

    def best(self) -> int:
        """The index of the largest value: the lowest subset among ties,
        the positive side first."""
        return int(np.argmax(self.values))

    def ranked(self, threshold) -> list[int]:
        """`best`, then up to CUTS_PER_ROUND - 1 further indices whose value
        exceeds `threshold`, in non-increasing value (ties by index)."""
        best = self.best()
        above = np.flatnonzero(self.values > threshold)
        pairs = zip(self.values[above].tolist(), (-above).tolist())
        order = [-k for _, k in heapq.nlargest(CUTS_PER_ROUND, pairs)]
        return [best] + [k for k in order if k != best][: CUTS_PER_ROUND - 1]

    def rows(self, ks: Sequence[int]) -> np.ndarray:
        """The signed rectangles of indices `ks` as int8 game rows over the
        flat row-major cells: sign * A on the rectangle, 0 elsewhere, and
        all 0 (the empty rectangle) where the value is not positive."""
        ks = np.array(ks, dtype=np.int64)
        subsets, signs = ks >> 1, 1 - 2 * (ks & 1)
        fixed = (subsets[:, None] >> np.arange(self.m)) & 1
        other = self.sums[subsets] * signs[:, None] > 0
        other &= (self.values[ks] > 0)[:, None]
        rows = (fixed * signs[:, None])[:, :, None] * other[:, None, :] * self.signs
        if self.transpose:
            rows = rows.transpose(0, 2, 1)
        return rows.reshape(len(ks), -1).astype(np.int8)


def _rectangle(row: np.ndarray, cols: int) -> Rectangle:
    """The rectangle on which a flat row-major game row is nonzero."""
    grid = row.reshape(-1, cols) != 0
    return Rectangle(
        tuple(np.flatnonzero(grid.any(axis=1)).tolist()),
        tuple(np.flatnonzero(grid.any(axis=0)).tolist()),
    )


def best_rectangle(
    A: SignMatrix, mu: InputDistribution
) -> tuple[Fraction, Rectangle]:
    """Exact maximum of |sum over a rectangle of mu * A| with a witness."""
    if (A.rows, A.cols) != (mu.rows, mu.cols):
        raise ValueError("matrix and distribution shapes differ")
    nums, den = _numerators([w for row in mu.weights for w in row])
    scan = _RectangleScan(A, nums)
    k = scan.best()
    return Fraction(int(scan.values[k]), den), _rectangle(scan.rows([k])[0], A.cols)


def disc_mu(A: SignMatrix, mu: InputDistribution) -> Fraction:
    """Distributional discrepancy: the best rectangle's absolute mu-weight."""
    return best_rectangle(A, mu)[0]


@dataclass(frozen=True)
class DiscrepancyResult:
    """The exact discrepancy, an optimal distribution, a rectangle that
    weighs `value` under it, and `iterations`: the exact rounds `disc`
    took, counting each basis certificate tried and each exact simplex
    solve."""

    value: Fraction
    distribution: InputDistribution
    witness: Rectangle
    iterations: int


def _cuts(A: SignMatrix, w: np.ndarray, threshold) -> tuple[np.ndarray, np.ndarray]:
    """The values and int8 game rows of one `_RectangleScan`'s `ranked`
    rectangles under the cell weights `w`: the best response, then up to
    `CUTS_PER_ROUND` - 1 further rectangles whose value exceeds
    `threshold`, in non-increasing value."""
    scan = _RectangleScan(A, w)
    ks = scan.ranked(threshold)
    return scan.values[ks], scan.rows(ks)


def _exact_cuts(
    A: SignMatrix, weights: Sequence[Fraction], bound: Fraction
) -> tuple[Fraction, np.ndarray]:
    """The exact best response payoff to the cell weights `weights`, and
    the `_cuts` above `bound`, read in integer numerators over the weights'
    common denominator."""
    nums, den = _numerators(weights)
    values, rows = _cuts(A, nums, math.floor(bound * den))
    return Fraction(int(values[0]), den), rows


def _certificate(game: HighsGame, rows: np.ndarray, A: SignMatrix):
    """An exact LP-duality bracket read from the last float solve's basis.

    With B the basic cell columns and R the tight game rows, |B| = |R| = k,
    the primal system a_r . w = t (r in R), sum(w) = 1 over the cells in B
    gives w, and the dual system (pA)_c = v (c in B), sum(p) = 1 over the
    rows in R gives p.  The primal matrix is M = [[T, -1], [1^T, 0]], with
    T the tight rows on B; the dual one is D M^T D for D = diag(1, ..., 1,
    -1), and both right-hand sides are e_{k+1}.  So w is the last column of
    M^-1 and p the negated first k entries of its last row: one exact
    factorization of M (`lp.inverse_edges`) solves both systems.  If w >= 0
    and p >= 0, the dual bound (the minimum of pA over the cells) and the
    best response to w bracket the game value.  Returns (dual bound, w, the
    best response's payoff, the `_exact_cuts` above the dual bound, best
    response first), or None when the basis gives a singular system or a
    negative weight.
    """
    basis = game.tight_basis()
    if basis is None:
        return None
    columns, tight = basis
    k = len(columns)
    if k != len(tight):
        return None
    tight = rows[tight].tolist()
    edges = inverse_edges([[row[c] for c in columns] + [-1] for row in tight] + [[1] * k + [0]])
    if edges is None:
        return None
    w, y = edges
    p = [-v for v in y[:k]]
    if min(w[:k]) < 0 or min(p) < 0:
        return None
    weights = [Fraction(0)] * game.cells
    for c, weight in zip(columns, w):
        weights[c] = weight
    nums, den = _numerators(p)
    payoff = nums @ np.array(tight, dtype=np.int64)
    dual = Fraction(int(payoff.min()), den)
    return dual, tuple(weights), *_exact_cuts(A, weights, dual)


def _solve_game(A: SignMatrix):
    """Exact value and optimal weights w of `disc`'s matrix game
    min_w max_a a.w over the signed rectangles a of A, int8 rows over the
    flat row-major cells keyed by their bytes, by constraint generation
    from the single cells.

    Each round solves the restricted game in one warm-started `HighsGame`
    and appends the round's new `_cuts` above its value t (by more than
    1e-9) in one `add_rows` call.  Once the best response is not new or
    better, `_certificate` reads an exact bracket from the basis: equal
    ends settle the game, and the new cuts above the dual bound become
    rows.  When HiGHS stops short, the basis is unusable or a best
    response repeats, the exact simplex (`minimize_max`) runs from the rows
    tight at the last float optimum (all rows if there was none), adding
    the `_exact_cuts` above the restricted value until the best response
    pays it.  Returns (value, w, a best response's row, rounds), counting
    each certificate tried and each exact solve.
    """
    # int8 holds the entries -1, 0 and 1; np.append copies the rows each round
    rows = np.eye(A.rows * A.cols, dtype=np.int8)
    seen = {row.tobytes() for row in rows}
    game = HighsGame(rows)
    w = None
    iterations = 0
    while True:
        x = linprog(game)
        if x is None:
            break
        w, t = x[:-1], float(x[-1])
        values, cuts = _cuts(A, w, t + 1e-9)
        if values[0] - t <= 1e-9 or cuts[0].tobytes() in seen:
            iterations += 1
            certificate = _certificate(game, rows, A)
            if certificate is None:
                break
            dual, weights, value, cuts = certificate
            if dual == value:
                return value, weights, cuts[0], iterations
            if cuts[0].tobytes() in seen:
                break
        new = cuts[[row.tobytes() not in seen for row in cuts]]
        seen.update(row.tobytes() for row in new)
        rows = np.append(rows, new, axis=0)
        game.add_rows(new)
    tight = rows if w is None else rows[rows @ w - t >= -1e-5]
    tight = tight if len(tight) else rows
    while True:
        iterations += 1
        value, weights = minimize_max(tight)
        payoff, cuts = _exact_cuts(A, weights, value)
        if payoff == value:
            return value, weights, cuts[0], iterations
        tight = np.append(tight, cuts, axis=0)


@lru_cache(maxsize=None)
def disc(A: SignMatrix) -> DiscrepancyResult:
    """Minimum distributional discrepancy over all input distributions:
    the game with one row per signed rectangle, solved by `_solve_game`;
    the witness is the best response row's rectangle."""
    value, weights, best, iterations = _solve_game(A)
    mu = _distribution(A.rows, A.cols, weights)
    return DiscrepancyResult(value, mu, _rectangle(best, A.cols), iterations)


def disc_prime(B: BooleanMatrix) -> DiscrepancyResult:
    """Discrepancy of the sign version of a Boolean matrix."""
    return disc(B.to_sign())


# ---------------------------------------------------------------------------
# margin complexity


@dataclass(frozen=True)
class MarginRealization:
    """Vectors certifying an upper bound on margin complexity.

    `value` is at least the exact product of the two largest norms, and
    within a few ulps of it; every signed inner product A_ij <x_i, y_j> is
    at least `margin`, which is kept >= 1, so `value` bounds the margin
    complexity from above.  `check` decides margin >= 1 exactly.
    `restarts_used` is always 1: `mc` runs one ascent.
    """

    row_vectors: tuple[tuple[float, ...], ...]
    col_vectors: tuple[tuple[float, ...], ...]
    value: float
    margin: float
    restarts_used: int

    def check(self, A: SignMatrix) -> bool:
        """Whether every A_ij <x_i, y_j> >= 1, decided exactly: each side's
        floats are integers over one common power of two, and the inner
        products are taken in Python ints."""
        if (len(self.row_vectors), len(self.col_vectors)) != (A.rows, A.cols):
            return False
        lengths = {len(v) for v in (*self.row_vectors, *self.col_vectors)}
        if len(lengths) != 1 or 0 in lengths:
            return False
        X, x_den = _dyadic(self.row_vectors)
        Y, y_den = _dyadic(self.col_vectors)
        return all(
            s * sum(map(operator.mul, x, y)) >= x_den * y_den
            for x, line in zip(X, A.entries)
            for y, s in zip(Y, line)
        )


def _dyadic(vectors) -> tuple[list[list[int]], int]:
    """Float vectors as integer numerators over a common denominator, a
    power of two: each float is its 53-bit integer mantissa times a power
    of two, shifted up onto the smallest such power (or onto 1)."""
    vectors = np.array(vectors, dtype=float)
    if not np.isfinite(vectors).all():
        raise ValueError("only finite floats have an integer ratio")
    mantissas, exponents = np.frexp(vectors)
    low = min(int(exponents.min()) - 53, 0)
    nums = (mantissas * 2.0**53).astype(np.int64).astype(object) << (
        exponents - 53 - low
    ).astype(object)
    return nums.tolist(), 1 << -low


def _realization(X: np.ndarray, Y: np.ndarray, S: np.ndarray) -> MarginRealization:
    """The realization by the rows of X and Y, its value the float product
    of the largest norms, raised ulp by ulp until its square is at least
    the exact product of the largest squared norms."""
    rows, cols = tuple(map(tuple, X.tolist())), tuple(map(tuple, Y.tolist()))
    value = float(
        np.sqrt(np.einsum("ij,ij->i", X, X).max())
        * np.sqrt(np.einsum("ij,ij->i", Y, Y).max())
    )
    (X_int, x_den), (Y_int, y_den) = _dyadic(X), _dyadic(Y)
    norms = Fraction(
        max(sum(map(operator.mul, x, x)) for x in X_int)
        * max(sum(map(operator.mul, y, y)) for y in Y_int),
        (x_den * y_den) ** 2,
    )
    while Fraction(value) ** 2 < norms:
        value = math.nextafter(value, math.inf)
    return MarginRealization(rows, cols, value, float((S * (X @ Y.T)).min()), 1)


def _ascent(
    S: np.ndarray, axis: tuple[np.ndarray, np.ndarray], seed: int
) -> Optional[MarginRealization]:
    """One annealed softmin ascent from the axis realization `axis` plus
    N(0, 0.05^2) noise; the iterate with the largest margin, rescaled to
    margin >= 1, or None when no iterate has a positive margin."""
    nrows, ncols = S.shape
    rng = np.random.default_rng(seed)
    Z = rng.normal(scale=0.05, size=(nrows + ncols, nrows + ncols))
    Z[:, : min(nrows, ncols)] += np.vstack(axis)
    B = np.zeros_like(Z)
    # views: Z and B are only ever updated in place
    U, Vt, P, Pt = Z[:nrows], Z[nrows:].T, B[:nrows, nrows:], B[nrows:, :nrows]
    best_margin, best = 0.0, Z
    for beta in np.geomspace(20.0, 20000.0, 800).tolist():
        Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]
        G = S * (U @ Vt)
        low = np.minimum.reduce(G, None)
        if low > best_margin:
            best_margin, best = low, Z.copy()
        W = np.exp(-beta * (G - low))
        np.multiply(W, S, out=P)
        P *= 0.2 / np.add.reduce(W, None)
        Pt[...] = P.T
        Z += B @ Z
    if best_margin <= 0.0:
        return None
    # Divide by slightly less than the margin so rounding in the rescaled
    # products cannot pull the minimum back below one.
    X = best[:nrows] / (best_margin * (1.0 - 1e-12))
    return _realization(X, best[nrows:], S)


def _line_classes(S: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The rows of S up to sign: the first row of each class, in order,
    and for every row its class and the sign s with row = s * first."""
    first: dict[bytes, int] = {}
    kept, index = [], []
    for i, line in enumerate(S * S[:, :1]):
        key = line.tobytes()
        if key not in first:
            first[key] = len(kept)
            kept.append(i)
        index.append(first[key])
    index = np.array(index)
    return kept, index, S[:, 0] * S[kept, 0][index]


def _realize(S: np.ndarray, seed: int) -> MarginRealization:
    """`mc`'s realization of the sign matrix S, unchecked."""
    nrows, ncols = S.shape
    # the axis realization: one side the unit vectors, the other A
    axis = (np.eye(nrows), S.T) if nrows <= ncols else (S, np.eye(ncols))
    # the smaller side's lines are pairwise orthogonal exactly when
    # their integer Gram matrix is the longer side times I
    lines = (S if nrows <= ncols else S.T).astype(np.int64)
    short, long = lines.shape
    if np.array_equal(lines @ lines.T, long * np.eye(short, dtype=np.int64)):
        return _realization(*axis, S)
    rows, row_class, row_sign = _line_classes(S)
    # every row is a kept row or its negation, so columns that are equal up
    # to sign on the kept rows are so on all of them
    cols, col_class, col_sign = _line_classes(S[rows].T)
    if len(rows) < nrows or len(cols) < ncols:
        # a copied line takes its first's vector, a negated one its negation
        reduced = _realize(S[np.ix_(rows, cols)], seed)
        X = np.array(reduced.row_vectors)[row_class] * row_sign[:, None]
        Y = np.array(reduced.col_vectors)[col_class] * col_sign[:, None]
        return _realization(X, Y, S)
    result = _realization(*axis, S)
    ascent = _ascent(S, axis, seed)
    return ascent if ascent is not None and ascent.value < result.value else result


def mc(A: SignMatrix, seed: int = 0) -> MarginRealization:
    """Margin complexity upper bound by one annealed softmin ascent.

    The axis realization of the smaller side (its lines the unit vectors,
    the other side's lines those of A) has value sqrt(min(rows, cols)).
    When the smaller side's lines are pairwise orthogonal (A A^T = cols I
    for rows <= cols, A^T A = rows I otherwise, tested in integers), A's
    spectral norm is sqrt(max(rows, cols)) and Forster's bound mc(A) >=
    sqrt(rows cols) / ||A|| (Forster 2002) proves the axis realization
    optimal, so it is returned without an ascent.
    Otherwise A is reduced: its rows that are equal up to sign are merged
    into the first of them, then its columns, which leaves a submatrix A'
    with mc(A') = mc(A).  When A' is smaller than A, this exit and the
    ascent run on A' with the same seed, and each line of A takes the
    vector of its line in A', negated for a negated line.  The margins
    and the largest norms are those of the realization of A', so the
    value is bit-equal to that of mc(A'), and at most the square root of
    the smaller side of A'.  A rank-one A reduces to a 1x1, whose one
    line is trivially orthogonal, so it gets value 1, which is optimal,
    since every sign matrix has margin complexity at least 1.
    On an irreducible A, the rows and columns are unit vectors, stacked as
    Z = [U; V], starting from the axis realization plus N(0, 0.05^2)
    noise.  Each step weights the margins G = A o (U V^T) by a softmin,
    W = exp(-beta (G - min G)), moves Z += B Z with
    B = lr [[0, P], [P^T, 0]] and P = W o A / sum(W), and renormalises the
    rows; beta grows geometrically from 20 to 20,000 over 800 steps, with
    lr = 0.2.  The iterate with the largest margin is rescaled to margin
    >= 1, and the exact axis realization is returned when no iterate beats
    it.  The value is an upper bound on the true margin complexity;
    `check_margin_discrepancy_sandwich` brackets it with the exact
    discrepancy.
    """
    result = _realize(np.array(A.entries, dtype=float), seed)
    check(result.check(A), f"mc realization of value {result.value} has margin < 1")
    return result


def mc_prime(B: BooleanMatrix, seed: int = 0) -> MarginRealization:
    return mc(B.to_sign(), seed=seed)


def margin_bracket(
    mc_value: float, disc_value: Fraction
) -> tuple[Fraction, Fraction, bool]:
    """The exact bracket [1/(8 disc), 8/disc] that margin complexity lies
    in (Linial and Shraibman 2009), and whether the float `mc_value` lies
    in it, with slack 1e-9 below and 1e-6 above."""
    lower = Fraction(1, 8) / disc_value
    upper = 8 / disc_value
    return lower, upper, float(lower) - 1e-9 <= mc_value <= float(upper) + 1e-6


def check_margin_discrepancy_sandwich(A: SignMatrix) -> dict:
    """Assert that margin complexity lies in its `margin_bracket`; returns
    both values and their product, which the bracket puts in [1/8, 8]."""
    d = disc(A)
    m = mc(A)
    product = m.value * float(d.value)
    _, _, within = margin_bracket(m.value, d.value)
    report = {
        "disc": d.value,
        "mc_upper_bound": m.value,
        "product": product,
        "lower": 0.125,
        "upper": 8.0,
        "mc_exceeds_bracket": not within,
    }
    check(
        within,
        f"sandwich violated: disc={d.value}, mc<={m.value}, product={product}",
        report,
    )
    return report


# ---------------------------------------------------------------------------
# cost versus discrepancy


def check_cost_discrepancy_bound(f: BooleanMatrix, g: GuessProtocol) -> dict:
    """Assert the discrepancy lower bound on counting cost.

    Requires that g decides f in counting-acceptance mode at every input;
    then log2(1 / disc'(f)) <= pp_cost_closed(g), checked in exact
    arithmetic as 1 / disc'(f) <= 2^cost.  The closed cost charges
    terminal private outputs, since the bound counts transcript
    rectangles with determined outcomes; the plain pp_cost can sit one
    bit below it and is reported alongside.  The matching upper bound has
    an unspecified constant, so it is reported but never asserted.
    """
    decided = pp_matrix(g)
    if decided.entries != f.entries:
        raise ValueError("protocol does not decide the given matrix")
    d = disc_prime(f)
    cost = pp_cost_closed(g)
    inverse = 1 / d.value
    holds = inverse <= Fraction(2) ** cost
    report = {
        "disc_prime": d.value,
        "log2_inverse_disc": math.log2(float(inverse)),
        "pp_cost": pp_cost(g),
        "pp_cost_closed": cost,
        "lower_bound_holds": holds,
    }
    check(
        holds, f"cost below the discrepancy bound: 1/disc'={inverse}, cost={cost}"
    )
    return report


# ---------------------------------------------------------------------------
# measures and the perturbation operator


@dataclass(frozen=True)
class MeasureFn:
    """A named, deterministic map from Boolean matrices to an ordered value.

    Values may be exact (int, Fraction) or float, but one MeasureFn should
    stick to one kind so comparisons are meaningful.  A value of
    math.inf excludes the matrix from perturbation-operator candidacy.

    `score`, when given, is the measure's block scorer: `score(rows, cols,
    bits)` takes a uint8 block with one row of rows * cols cell bits per
    matrix, row-major as in `BpGame.bits`, and returns one value per row.
    `BpGame` scores its candidates through it without building a
    `BooleanMatrix` for any of them.  A measure without one, such as
    discrepancy's, margin complexity's or a caller's `MeasureFn(name,
    apply)`, is scored through an adapter that applies `apply` to each
    row's matrix (`_matrices`).  The measures built by `_block_measure`
    derive `apply` from `score` on f's single row, so the two agree.

    `relabel_invariant` declares that the value is exactly equal on every
    relabelling of a matrix: row and column permutations, the transpose of
    a square matrix, and the complement.  `BpGame` then scores one matrix
    per orbit (`_orbit_labels`).  Only set it for a measure whose value is
    equal bit for bit across an orbit, not just close.
    """

    name: str
    apply: Callable[[BooleanMatrix], object]
    relabel_invariant: bool = False
    score: Optional[Callable[[int, int, np.ndarray], Sequence]] = None


def _masks(bits: np.ndarray) -> np.ndarray:
    """Each row of a 0/1 cell block as its mask (`_cell_shifts`)."""
    return bits @ (1 << _cell_shifts(bits.shape[1]))


def _block_measure(name: str, score: Callable[[int, int, np.ndarray], Sequence]) -> MeasureFn:
    """The measure scored by `score`, with `apply(f)` scoring f's single row."""

    def apply(f: BooleanMatrix):
        [value] = score(f.rows, f.cols, np.array(f.entries, dtype=np.uint8).reshape(1, -1))
        return value

    return MeasureFn(name, apply, score=score)


def _per_matrix(apply: Callable[[BooleanMatrix], object]):
    """The block scorer of a measure without one: `apply` on each row's
    matrix, in row order."""

    def score(rows: int, cols: int, bits: np.ndarray) -> list:
        return [apply(g) for g in _matrices(rows, cols, _masks(bits).tolist())]

    return score


def _row_sums(rows: int, cols: int, bits: np.ndarray) -> list[int]:
    return bits.sum(axis=1).tolist()


def entry_count_measure() -> MeasureFn:
    return _block_measure("entry-count", _row_sums)


def inverse_disc_log_measure() -> MeasureFn:
    """log2(1 / disc') as a float; exact discrepancy underneath.  Permuting
    lines, transposing or negating a sign matrix maps its rectangles and
    distributions onto each other with the same absolute weights, so the
    exact value, and with it the float, is relabelling invariant."""
    return MeasureFn(
        "log-inverse-disc",
        lambda f: math.log2(float(1 / disc_prime(f).value)),
        relabel_invariant=True,
    )


def margin_measure(seed: int = 0) -> MeasureFn:
    return MeasureFn("margin-complexity", lambda f: mc_prime(f, seed=seed).value)


def family_cost_measure(family: Sequence[GuessProtocol]) -> MeasureFn:
    """Cheapest counting cost within a fixed protocol family.

    The family must be nonempty and its members share one domain, rows x
    cols of at most `BP_MAX_CELLS` cells.  Its table maps the mask of each
    member's matrix (`pp_matrix`, read by `_cell_shifts`) to the cheapest
    cost; matrices no member decides get math.inf and drop out of the
    perturbation game's candidate list.  Scoring a matrix of another shape
    raises ValueError.
    """
    domains = sorted({(g.rows, g.cols) for g in family})
    if len(domains) != 1:
        held = ", ".join(f"{r}x{c}" for r, c in domains) or "no protocol"
        raise ValueError(f"family-cost needs protocols on one domain, got {held}")
    [(rows, cols)] = domains
    if rows * cols > BP_MAX_CELLS:
        raise SizeGuardError(
            f"family-cost keys matrices of at most {BP_MAX_CELLS} cells, "
            f"got {rows}x{cols}"
        )
    table: dict[int, int] = {}
    grids = np.array([pp_matrix(g).entries for g in family], dtype=np.uint8)
    for mask, g in zip(_masks(grids.reshape(len(family), -1)).tolist(), family):
        cost = pp_cost(g)
        if mask not in table or cost < table[mask]:
            table[mask] = cost

    def score(r: int, c: int, bits: np.ndarray) -> list:
        if (r, c) != (rows, cols):
            raise ValueError(f"family-cost scores {rows}x{cols} matrices, got {r}x{c}")
        return [table.get(mask, math.inf) for mask in _masks(bits).tolist()]

    return _block_measure("family-cost", score)


@dataclass(frozen=True)
class BpResult:
    value: object
    distribution: InputDistribution
    matrix: BooleanMatrix
    prefix_index: int
    candidate_count: int


def _prefix_game(bits: np.ndarray) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact value and optimal weights of max_mu min over the candidates of
    the mu-mass where the candidate differs from f; row j of the 0/1 matrix
    `bits` marks the cells where candidate j differs.

    `BpGame` passes only a prefix's minimal difference rows (see the module
    docstring), so the game is small, and one exact `maximize_min` call
    solves it on the uint8 block itself and certifies its value.
    """
    return maximize_min(bits.T)


def _first_proper_subsets(masks: np.ndarray, cells: int) -> np.ndarray:
    """For each of the `cells`-bit `masks`, the smallest index of a mask
    that is a proper subset of it, or len(masks) when none is.

    A subset-minimum zeta transform, `cells` vectorised passes over all
    2**cells masks, gives at each mask m the smallest index of a mask
    contained in m; a mask's proper subsets are the ones contained in it
    less one of its bits, so equal masks never count against each other.
    """
    n = len(masks)
    first = np.full(1 << cells, n, dtype=np.int64)
    np.minimum.at(first, masks, np.arange(n))
    for b in range(cells):
        halves = first.reshape(-1, 2, 1 << b)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    below = np.full(n, n, dtype=np.int64)
    for b in range(cells):
        has = (masks >> b) & 1 == 1
        below[has] = np.minimum(below[has], first[masks[has] ^ (1 << b)])
    return below


def _cell_shifts(cells: int) -> np.ndarray:
    """The bit of each row-major cell in a mask: cell k is bit cells - 1 - k,
    so ascending masks list the matrices in row-major lexicographic order."""
    return cells - 1 - np.arange(cells)


def _matrices(rows: int, cols: int, masks: Iterable[int]) -> Iterator[BooleanMatrix]:
    """The rows x cols matrix of each mask (`_cell_shifts`).  Row r is the
    mask's r-th chunk of `cols` bits from the top, which indexes the line
    tuples of `product((0, 1), repeat=cols)` that every matrix shares."""
    lines = list(product((0, 1), repeat=cols))
    full = len(lines) - 1
    shifts = range((rows - 1) * cols, -1, -cols)
    for mask in masks:
        yield BooleanMatrix(rows, cols, tuple([lines[mask >> s & full] for s in shifts]))


def _orbit_labels(rows: int, cols: int) -> np.ndarray:
    """For each rows x cols mask, the smallest mask in its orbit under row
    and column permutations, the transpose when square, and the complement.

    Masks are read by `_cell_shifts`.  Each generator (the complement,
    and for each side of two or more lines a swap of the first two and a
    cycle of all) maps every mask at once, in one vectorised pass per
    cell.  A label
    starts as the mask itself, takes the smallest label among its
    generator images, and then jumps to its own label's label; each step
    keeps every label a member of the mask's orbit and no larger than the
    mask, and at the fixed point labels agree along every generator, so
    each orbit carries its smallest member.
    """
    cells = rows * cols
    masks = np.arange(1 << cells, dtype=np.int64)
    grid = np.arange(cells).reshape(rows, cols)
    sources = [grid.T] if rows == cols else []
    for axis, side in ((0, rows), (1, cols)):
        if side > 1:
            swap = np.arange(side)
            swap[:2] = 1, 0
            sources += [np.take(grid, swap, axis=axis), np.roll(grid, 1, axis=axis)]
    shift = _cell_shifts(cells)
    images = [masks ^ ((1 << cells) - 1)]
    for source in sources:
        image = np.zeros_like(masks)
        for k, cell in enumerate(source.ravel().tolist()):
            image |= ((masks >> shift[cell]) & 1) << shift[k]
        images.append(image)
    labels = masks
    while True:
        low = labels
        for image in images:
            low = np.minimum(low, labels[image])
        low = low[low]
        if np.array_equal(low, labels):
            return labels
        labels = low


def _radius(eps) -> Fraction:
    """`eps` as a Fraction, refused unless it lies in [0, 1]."""
    eps = Fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return eps


class BpGame:
    """One measure's perturbation game on one shape, for every f and eps.

    The cell bits of all 2**cells masks form one uint8 block, and the
    measure's block scorer (`MeasureFn.score`, or the per-matrix adapter)
    scores its rows: the orbit representatives of a `relabel_invariant`
    measure, each its orbit's smallest member, and every row otherwise.
    Every mask takes its representative's value.  Candidates with finite
    measure are kept sorted ascending, ties in row-major lexicographic
    order, as `values` and `bits`, the block's rows in that order.  Prefix
    games are memoized by their kept rows, so each distinct game is solved
    once across prefixes and across f.  Answers do not depend on the order
    of queries, so `bp_measure` shares one game per measure and shape.
    """

    def __init__(self, measure: MeasureFn, rows: int, cols: int):
        if rows * cols > BP_MAX_CELLS:
            raise SizeGuardError(
                f"perturbation operator capped at {BP_MAX_CELLS} cells, "
                f"got {rows * cols}"
            )
        self.rows, self.cols = rows, cols
        cells = rows * cols
        # uint16 holds every mask of at most BP_MAX_CELLS = 16 cells
        shift = _cell_shifts(cells).astype(np.uint16)
        block = (np.arange(1 << cells, dtype=np.uint16)[:, None] >> shift & 1).astype(np.uint8)
        score = measure.score or _per_matrix(measure.apply)
        if measure.relabel_invariant:
            labels = _orbit_labels(rows, cols)
            representatives = np.flatnonzero(labels == np.arange(labels.size))
            scores = score(rows, cols, block[representatives])
            values = [scores[i] for i in np.searchsorted(representatives, labels).tolist()]
        else:
            values = score(rows, cols, block)
        # a stable sort over mask order keeps ties in row-major lexicographic
        # order, and math.inf sorts after every finite value
        order = sorted(range(len(values)), key=values.__getitem__)
        values = [values[i] for i in order]
        finite = bisect.bisect_left(values, math.inf)
        if not finite:
            raise ValueError(f"measure {measure.name} is infinite everywhere")
        self.values = values[:finite]
        self.bits = block[order[:finite]]
        self._games: dict = {}
        self._last: tuple = ()

    def _differences(self, f: BooleanMatrix) -> tuple[np.ndarray, np.ndarray]:
        """The candidates' 0/1 difference rows from f, and for each candidate
        the smallest index of one whose difference set is a proper subset
        of its own (`_first_proper_subsets`).

        Callers walk one f over an eps ladder, so `_last` keeps the last
        f's entries with this pair, and only for that one f."""
        if not self._last or self._last[0] != f.entries:
            bits = self.bits ^ np.array(f.entries, dtype=np.uint8).ravel()
            below = _first_proper_subsets(_masks(bits), self.rows * self.cols)
            self._last = (f.entries, bits, below)
        return self._last[1:]

    def _game(self, bits: np.ndarray, below: np.ndarray, prefix: int):
        # A candidate whose difference set has a proper subset among the
        # prefix's is never the only minimum, for any weights, so the game
        # keeps the rows {j < prefix : below[j] >= prefix} only.  The game
        # is a function of those rows alone (the shape fixes their width),
        # so their bytes key the memo.
        kept = bits[:prefix][below[:prefix] >= prefix]
        key = kept.tobytes()
        if key not in self._games:
            self._games[key] = _prefix_game(kept)
        return self._games[key]

    def solve(self, f: BooleanMatrix, eps: Fraction) -> BpResult:
        """The largest measure value an input distribution can force among
        matrices within eps of f: the measure of the first candidate whose
        prefix game value drops to eps or below.  The witness distribution
        is optimal for the preceding prefix, so it forces every cheaper
        candidate to differ on more than eps mass; the witness matrix is the
        first candidate at the critical value compatible with it.
        """
        eps = _radius(eps)
        if (f.rows, f.cols) != (self.rows, self.cols):
            raise ValueError(
                f"f is {f.rows}x{f.cols}, the game is {self.rows}x{self.cols}"
            )
        n = len(self.values)
        bits, below = self._differences(f)

        def settled(prefix: int) -> bool:
            return self._game(bits, below, prefix)[0] <= eps

        # the prefix game value only falls as the prefix grows, so this is
        # the first prefix length whose value is <= eps, or n + 1
        index = 1 + bisect.bisect_left(range(1, n + 1), True, key=settled)

        _, weights = self._game(bits, below, max(index - 1, 1))
        mu = _distribution(self.rows, self.cols, weights)
        if index > n:
            # Every finite-measure candidate can be forced away from f: the
            # adversary wins outright.
            return BpResult(math.inf, mu, f, n, n)
        critical = self.values[index - 1]
        # mu forces every candidate before index - 1 beyond eps, and the
        # prefix game through index - 1 has value <= eps, so candidate
        # index - 1 qualifies: only the critical candidates up to it are
        # scanned, comparing mass <= eps in integers.
        start = bisect.bisect_left(self.values, critical)
        nums, den = _numerators(weights)
        dists = (bits[start:index] @ nums).tolist()
        bound, scale = eps.numerator * den, eps.denominator
        near = (j for j, dist in enumerate(dists, start) if dist * scale <= bound)
        first = next(near, None)
        check(first is not None, "the boundary candidate always qualifies")
        mask = _masks(self.bits[first : first + 1]).tolist()
        [witness] = _matrices(self.rows, self.cols, mask)
        return BpResult(critical, mu, witness, index, n)


BP_SHARED_GAMES = 4


@lru_cache(maxsize=BP_SHARED_GAMES)
def _shared_game(measure: MeasureFn, rows: int, cols: int) -> BpGame:
    return BpGame(measure, rows, cols)


def bp_measure(measure: MeasureFn, f: BooleanMatrix, eps: Fraction) -> BpResult:
    """One perturbation-game query, answered by a game shared with every
    other query on the same measure and shape.

    The `BP_SHARED_GAMES` most recently used games are kept, so repeated
    queries score the candidates once and solve each distinct prefix game
    once.  A game keeps each candidate's value and one byte per cell, 1.7
    MB at 4x4 by tracemalloc, and its memo adds one entry per distinct
    prefix game, keyed by its kept rows at one byte per cell.  It also
    keeps the last f's difference rows and minimal-subset indices
    (`BpGame._differences`), 1.5 MB more at 4x4.  A `MeasureFn` hashes by
    its name, the identities of `apply` and `score` and its
    `relabel_invariant` flag: separately built measures never share a
    game.  A game whose shape the size guard
    refuses raises and is not kept, and an eps outside [0, 1] raises
    before any game is built or fetched.
    """
    eps = _radius(eps)
    return _shared_game(measure, f.rows, f.cols).solve(f, eps)
