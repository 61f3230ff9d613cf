"""Matrix measures and the perturbation operator.

Discrepancy is handled exactly: the best rectangle under a fixed
distribution comes from subset enumeration over the smaller side, and the
distribution minimizing it comes from a rational LP grown by constraint
generation, with a termination test that certifies global optimality
(the separation value equals the LP value, squeezing the optimum).  One
numpy separation kernel serves the exact scan and the float presolve:
exact weights enter it as integer numerators over their common
denominator, so no scan does Fraction arithmetic.

The float presolves (the discrepancy working set and the perturbation
operator's prefix games) go through one helper: `HighsGame` holds one
HiGHS model per presolve and appends one row per cut, and `linprog`
solves it cold, so its answers are `scipy.optimize.linprog`'s bit for
bit.  No solve starts warm: a warm start lands on other optimal vertices
and moves reports (see `_presolve_rows`).

Margin complexity is handled numerically: alternating minimization over a
unit-margin vector realization gives a certified upper bound, and the
exact discrepancy supplies a rigorous bracket around the true value, so a
broken optimizer is detectable rather than silently wrong.  Each half-step
solves one side's min-norm subproblems by dual coordinate ascent, whose
scalar steps run on Python floats with one numpy rank-one update per
coordinate.

The perturbation operator turns any matrix measure into a game: an
adversary distribution tries to force every cheap matrix to disagree with
f on more than eps mass.  Candidates are scanned in ascending measure
order; the value is decided by prefix games solved exactly, located by
binary search since the prefix game value only falls as the prefix grows.
Each game is certified by the same integer-numerator idea: one product
of the candidates' 0/1 difference rows with the weights' numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .invariants import check
from .lp import maximize_min, minimize_max
from .matrices import (
    BP_MAX_CELLS,
    BooleanMatrix,
    InputDistribution,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
)
from .protocols import GuessProtocol, pp_cost, pp_cost_closed, pp_matrix

MC_RESTARTS = 8
MC_ROUNDS = 60
MC_SUBPROBLEM_PASSES = 120
MC_STALL_ROUNDS = 6


# ---------------------------------------------------------------------------
# float presolve


class HighsGame:
    """A matrix game's float LP, held as one HiGHS model that grows by rows.

    The columns are the cell weights w >= 0 and a free value column.  With
    `minimize` the model is min t subject to a.w <= t for every row a, the
    `minimize_max` side; otherwise it is max v subject to a.w >= v, stored
    as min -v subject to -a.w + v <= 0, the `maximize_min` side.  The
    equality row sum(w) = 1 is kept last, so rows, costs and bounds are
    exactly what `scipy.optimize.linprog(method="highs")` builds from the
    same game, with its options (presolve on, dual simplex, no output).

    scipy is imported here, on the first float LP, so `import cclab` does
    not load `scipy.optimize`.  The binding is private scipy API; scipy
    1.15 is the first release that ships it.
    """

    def __init__(self, rows, minimize: bool):
        from scipy.optimize._highspy import _core

        self.cells = len(rows[0])
        self.sign = 1.0 if minimize else -1.0
        self.optimal = _core.HighsModelStatus.kOptimal
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
        cost[-1] = self.sign
        lower = np.zeros(count)
        lower[-1] = -np.inf
        empty = np.zeros(count, dtype=np.int32)
        self.highs.addCols(
            count, cost, lower, np.full(count, np.inf), 0, empty, empty, np.zeros(0)
        )
        self.rows = 0
        self.add_rows(rows)

    def add_rows(self, rows) -> None:
        """Append game rows, moving the equality row back to the end."""
        rows = np.asarray(rows, dtype=float)
        block = np.zeros((len(rows) + 1, self.cells + 1))
        block[:-1, :-1] = self.sign * rows
        block[:-1, -1] = -self.sign
        block[-1, :-1] = 1.0
        lower = np.full(len(block), -np.inf)
        upper = np.zeros(len(block))
        lower[-1] = upper[-1] = 1.0
        if self.rows:
            self.highs.deleteRows(1, np.array([self.rows], dtype=np.int32))
        at, columns = np.nonzero(block)
        starts = np.searchsorted(at, np.arange(len(block))).astype(np.int32)
        self.highs.addRows(
            len(block),
            lower,
            upper,
            len(columns),
            starts,
            columns.astype(np.int32),
            block[at, columns],
        )
        self.rows += len(rows)


def linprog(game: HighsGame) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Solve `game` cold and return its optimal (x, slack of each game row),
    or None if HiGHS stops short of an optimum.

    Every float LP in this module goes through here.  `clearSolver` drops
    the previous basis, so each solve starts from scratch exactly as a
    fresh `scipy.optimize.linprog` call does, and returns its x and slack
    bit for bit; `_presolve_rows` says why no solve starts warm.
    """
    game.highs.clearSolver()
    game.highs.run()
    if game.highs.getModelStatus() != game.optimal:
        return None
    solution = game.highs.getSolution()
    return np.array(solution.col_value), 0.0 - np.array(solution.row_value[:-1])


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


def _separate(A: SignMatrix, w: np.ndarray) -> tuple[object, Rectangle, int]:
    """Largest |sum over a rectangle of w * A|, a rectangle attaining it and
    the sign of its sum, for flat row-major cell weights `w` (int64, object
    or float64).

    Only subsets of the smaller side are enumerated: once one side is
    fixed, the best other side is simply the lines whose signed sums share
    a sign, so the search is 2^min(rows, cols) instead of the full
    rectangle count.  Each subset's sums extend the sums of the subset
    without its highest member, so float sums run in ascending line order.
    Ties go to the lowest subset, the positive side first; when every
    value is 0 the empty rectangle is returned.
    """
    transpose = A.rows > A.cols
    W = w.reshape(A.rows, A.cols) * np.array(A.entries, dtype=np.int64)
    if transpose:
        W = W.T
    m = W.shape[0]
    sums = np.zeros((1 << m, W.shape[1]), dtype=W.dtype)
    for i in range(m):
        sums[1 << i : 2 << i] = sums[: 1 << i] + W[i]
    pos = np.zeros(1 << m, dtype=W.dtype)
    neg = np.zeros(1 << m, dtype=W.dtype)
    for column in sums.T:
        pos += np.where(column > 0, column, 0)
        neg -= np.where(column < 0, column, 0)
    values = np.stack((pos, neg), axis=1).ravel()
    k = int(np.argmax(values))
    if not values[k] > 0:
        return values[k], Rectangle((), ()), 1
    subset, sign = k >> 1, 1 - 2 * (k & 1)
    fixed = tuple(i for i in range(m) if subset >> i & 1)
    other = tuple(int(j) for j in np.flatnonzero(sums[subset] * sign > 0))
    witness = Rectangle(other, fixed) if transpose else Rectangle(fixed, other)
    return values[k], witness, sign


def best_rectangle(
    A: SignMatrix, mu: InputDistribution
) -> tuple[Fraction, Rectangle]:
    """Exact maximum of |sum over a rectangle of mu * A| with a witness."""
    if (A.rows, A.cols) != (mu.rows, mu.cols):
        raise ValueError("matrix and distribution shapes differ")
    nums, den = _numerators([w for row in mu.weights for w in row])
    value, witness, _ = _separate(A, nums)
    return Fraction(int(value), den), witness


def disc_mu(A: SignMatrix, mu: InputDistribution) -> Fraction:
    """Distributional discrepancy: the best rectangle's absolute mu-weight."""
    return best_rectangle(A, mu)[0]


@dataclass(frozen=True)
class DiscrepancyResult:
    value: Fraction
    distribution: InputDistribution
    witness: Rectangle
    iterations: int


def _rectangle_payoff_row(A: SignMatrix, rect: Rectangle, sign: int) -> list[int]:
    row = [0] * (A.rows * A.cols)
    for x, y in rect.cells():
        row[x * A.cols + y] = sign * A.entries[x][y]
    return row


def _presolve_rows(A: SignMatrix) -> list[list[int]]:
    """Float constraint generation pass: find a near-optimal working set of
    signed rectangle rows cheaply, returning only the rows that are tight
    at the float optimum.  Correctness does not depend on this; the exact
    phase re-separates and extends the set as needed.

    One `HighsGame` holds the whole pass: each round appends its cut to the
    model instead of rebuilding it, and solves cold, so the row set is the
    one a fresh `scipy.optimize.linprog` per round gives.  A warm start
    would be faster but would move reports.  Re-appending the equality row
    leaves HiGHS no basis worth reusing, so a warm start would append the
    cuts after the equality row, and that order lands on other optimal
    vertices: on perfbench's 13 disc-ladder inputs it changed 11 row sets
    and 6 `disc` distributions.
    """
    cells = A.rows * A.cols
    rows = [
        _rectangle_payoff_row(A, Rectangle((x,), (y,)), A.entries[x][y])
        for x in range(A.rows)
        for y in range(A.cols)
    ]
    seen = {tuple(row) for row in rows}
    game = HighsGame(rows, minimize=True)
    w = [1.0 / cells] * cells
    t = 1.0
    for _ in range(400):
        solution = linprog(game)
        if solution is None:
            break
        x, _ = solution
        w = x[:cells]
        t = float(x[cells])
        separation, witness, sign = _separate(A, w)
        if separation <= t + 1e-9:
            break
        row = _rectangle_payoff_row(A, witness, sign)
        if tuple(row) in seen:
            break
        seen.add(tuple(row))
        rows.append(row)
        game.add_rows([row])
    tight = [
        row
        for row in rows
        if sum(r * wi for r, wi in zip(row, w)) >= t - 1e-5
    ]
    return tight if tight else rows


@lru_cache(maxsize=None)
def disc(A: SignMatrix) -> DiscrepancyResult:
    """Minimum distributional discrepancy over all input distributions.

    Solved as a rational LP over the distribution weights with one
    constraint per signed rectangle, grown lazily: each round solves the
    restricted LP and then searches all rectangles for one that beats the
    current value under the optimal weights.  When none does, the
    restricted optimum is the true optimum, exactly: the LP value is a
    lower bound on disc and the separation value an upper bound, and they
    are equal.

    A float presolve proposes the initial working set, so the expensive
    rational solves almost always happen once; the exact loop would reach
    the same answer from any starting set, just more slowly.
    """
    payoff = _presolve_rows(A)
    iterations = 0
    while True:
        iterations += 1
        value, weights = minimize_max(payoff)
        mu = _distribution(A.rows, A.cols, weights)
        separation, witness = best_rectangle(A, mu)
        if separation == value:
            return DiscrepancyResult(value, mu, witness, iterations)
        signed = sum(
            mu.weights[x][y] * A.entries[x][y] for x, y in witness.cells()
        )
        payoff.append(_rectangle_payoff_row(A, witness, 1 if signed > 0 else -1))


def disc_prime(B: BooleanMatrix) -> DiscrepancyResult:
    """Discrepancy of the sign version of a Boolean matrix."""
    return disc(B.to_sign())


# ---------------------------------------------------------------------------
# margin complexity


@dataclass(frozen=True)
class MarginRealization:
    """Vectors certifying an upper bound on margin complexity.

    The product of the two largest norms is `value`; every signed inner
    product A_ij <x_i, y_j> is at least `margin`, which is kept >= 1 by a
    final rescale, so `value` really is achieved by a feasible realization.
    `restarts_used` is the 1-based index of the restart that produced it,
    not a count: every call runs all of its restarts.
    """

    row_vectors: tuple[tuple[float, ...], ...]
    col_vectors: tuple[tuple[float, ...], ...]
    value: float
    margin: float
    restarts_used: int

    def check(self, A: SignMatrix) -> bool:
        X = np.array(self.row_vectors)
        Y = np.array(self.col_vectors)
        S = np.array(A.entries)
        products = S * (X @ Y.T)
        return bool(products.min() >= 1 - 1e-9)


def _side_min_norm(signs: np.ndarray, other: np.ndarray) -> np.ndarray:
    """All of one side's min-norm subproblems at once.

    Row i of the result minimizes ||x||^2 subject to
    signs[i, j] * <x, other[j]> >= 1 for every j.  Solved in the dual by
    coordinate ascent on the multipliers; the Gram matrix of the i-th
    subproblem is signs[i] outer signs[i] times the shared Gram K of
    `other`, which is what lets every row move in one step per coordinate.

    A coordinate step is one scalar update per row (at most 12) and one
    rank-one update of the constraint values.  The scalars run on Python
    floats, since a numpy call per vector operation would cost more than
    the arithmetic; the rank-one update, SK[j] times the steps, is one
    numpy product.  Every float operation and its order are those of the
    all-numpy form, so the result is bit-identical to it.
    """
    K = other @ other.T
    n, k = signs.shape
    diag = K.diagonal().tolist()
    coords = [(j, d, math.sqrt(d)) for j, d in enumerate(diag) if d > 1e-300]
    S = signs.T.tolist()
    SK = signs.T[None, :, :] * K.T[:, :, None]  # [j, l, i]: signs[i, l] K[l, j]
    lam = [[0.0] * n for _ in range(k)]  # lam[j][i]: row i's multiplier j
    gram_dot = np.zeros((k, n))  # [j, i]: constraint value <c_j, x_i>
    for _ in range(MC_SUBPROBLEM_PASSES):
        moved = 0.0
        for j, d, root in coords:
            lam_j, S_j = lam[j], S[j]
            steps = []
            biggest = 0.0
            for i, g in enumerate(gram_dot[j].tolist()):
                old = lam_j[i]
                new = old + (1.0 - g) / d
                if new < 0.0:
                    new = 0.0
                delta = new - old
                lam_j[i] = new
                steps.append(delta * S_j[i])
                if abs(delta) > biggest:
                    biggest = abs(delta)
            if biggest == 0.0:
                continue
            gram_dot += SK[j] * np.array(steps)
            moved = max(moved, biggest * root)
        if moved < 1e-13:
            break
    # C order, as the multipliers had in the all-numpy form, so the final
    # product takes the same path through matmul
    return (np.array(lam).T.copy() * signs) @ other


def mc(
    A: SignMatrix,
    restarts: int = MC_RESTARTS,
    rounds: int = MC_ROUNDS,
    seed: int = 0,
) -> MarginRealization:
    """Margin complexity upper bound via alternating minimization.

    Starting from a noisy axis-aligned realization, rows and columns take
    turns solving their min-norm subproblems; scales are rebalanced and
    progress is tracked each round, stopping early when the rescaled value
    stalls.  The best feasible realization over all restarts is rescaled
    to margin >= 1 and returned.  The value is an upper bound on the true
    margin complexity; `check_margin_discrepancy_sandwich` brackets it
    with the exact discrepancy.
    """
    rng = np.random.default_rng(seed)
    S = np.array(A.entries, dtype=float)
    nrows, ncols = S.shape
    dim = nrows + ncols
    best: Optional[MarginRealization] = None
    for restart in range(restarts):
        Y = np.zeros((ncols, dim))
        for j in range(ncols):
            Y[j, nrows + j] = 1.0
        if restart:
            Y = Y + rng.normal(scale=0.3 + 0.2 * restart, size=Y.shape)
        X = np.zeros((nrows, dim))
        round_best = math.inf
        stalled = 0
        for _ in range(rounds):
            X = _side_min_norm(S, Y)
            Y = _side_min_norm(S.T, X)
            xmax = np.sqrt(max(np.einsum("ij,ij->i", X, X).max(), 1e-300))
            ymax = np.sqrt(max(np.einsum("ij,ij->i", Y, Y).max(), 1e-300))
            scale = math.sqrt(xmax / ymax)
            X /= scale
            Y *= scale
            margin_now = float((S * (X @ Y.T)).min())
            if margin_now > 1e-9:
                value_now = float(xmax * ymax) / margin_now
                if value_now < round_best - 1e-11:
                    round_best = value_now
                    stalled = 0
                else:
                    stalled += 1
                    if stalled >= MC_STALL_ROUNDS:
                        break
        products = S * (X @ Y.T)
        margin = float(products.min())
        if margin <= 1e-9:
            continue
        # Divide by slightly less than the margin so rounding in the
        # rescaled products cannot pull the minimum back below one.
        X = X / (margin * (1.0 - 1e-12))
        value = float(
            np.sqrt(np.einsum("ij,ij->i", X, X).max())
            * np.sqrt(np.einsum("ij,ij->i", Y, Y).max())
        )
        if best is None or value < best.value:
            best = MarginRealization(
                tuple(tuple(map(float, row)) for row in X),
                tuple(tuple(map(float, row)) for row in Y),
                value,
                float((S * (X @ Y.T)).min()),
                restart + 1,
            )
    if best is None:
        raise RuntimeError(
            f"no feasible margin realization found in {restarts} restarts"
        )
    return best


def mc_prime(B: BooleanMatrix, **kwargs) -> MarginRealization:
    return mc(B.to_sign(), **kwargs)


def margin_bracket(
    mc_value: float, disc_value: Fraction
) -> tuple[Fraction, Fraction, bool]:
    """The exact bracket [1/(8 disc), 8/disc] that margin complexity lies
    in (Linial and Shraibman 2009), and whether the float `mc_value` lies
    in it, with slack 1e-9 below and 1e-6 above."""
    lower = Fraction(1, 8) / disc_value
    upper = 8 / disc_value
    return lower, upper, float(lower) - 1e-9 <= mc_value <= float(upper) + 1e-6


def check_margin_discrepancy_sandwich(A: SignMatrix, **mc_kwargs) -> dict:
    """Assert that margin complexity lies in its `margin_bracket`; returns
    both values and their product, which the bracket puts in [1/8, 8]."""
    d = disc(A)
    m = mc(A, **mc_kwargs)
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
    """

    name: str
    apply: Callable[[BooleanMatrix], object]


def entry_count_measure() -> MeasureFn:
    return MeasureFn("entry-count", lambda f: f.count_ones())


def inverse_disc_log_measure() -> MeasureFn:
    """log2(1 / disc') as a float; exact discrepancy underneath."""
    return MeasureFn(
        "log-inverse-disc", lambda f: math.log2(float(1 / disc_prime(f).value))
    )


def margin_measure(seed: int = 0) -> MeasureFn:
    return MeasureFn("margin-complexity", lambda f: mc_prime(f, seed=seed).value)


def family_cost_measure(family: Sequence[GuessProtocol]) -> MeasureFn:
    """Cheapest counting cost within a fixed protocol family.

    Matrices no family member decides get math.inf and drop out of the
    perturbation game's candidate list.
    """
    table: dict[tuple, int] = {}
    for g in family:
        key = pp_matrix(g).entries
        cost = pp_cost(g)
        if key not in table or cost < table[key]:
            table[key] = cost
    return MeasureFn(
        "family-cost", lambda f: table.get(f.entries, math.inf)
    )


@dataclass(frozen=True)
class BpResult:
    value: object
    distribution: InputDistribution
    matrix: BooleanMatrix
    prefix_index: int
    candidate_count: int


def _prefix_game(
    bits: np.ndarray, prefix: int
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact value and optimal weights of max_mu min over the first `prefix`
    candidates of the mu-mass where the candidate differs from f; row j of
    the 0/1 matrix `bits` marks the cells where candidate j differs.

    A float solve over the whole prefix proposes the tight candidates; the
    exact game is then solved on that working set and certified by a
    separation scan, one integer product of the prefix's difference rows
    with the weights' numerators.  If the floats misjudge a tie the scan
    supplies the missing column and the exact solve runs again, so the
    result never depends on float accuracy.
    """
    sub = bits[:prefix]
    cells = bits.shape[1]
    if prefix <= 12:
        active = list(range(prefix))
    else:
        solution = linprog(HighsGame(sub, minimize=False))
        if solution is not None:
            _, slack = solution
            order = np.argsort(slack, kind="stable")
            active = sorted(
                int(j) for j in order[: 3 * cells] if slack[j] <= 1e-6
            ) or [int(order[0])]
        else:
            active = list(range(min(prefix, 4)))
    active_set = set(active)
    while True:
        value, weights = maximize_min(sub[active].T.tolist())
        nums, den = _numerators(weights)
        dists = sub @ nums
        best_j = int(np.argmin(dists))
        if int(dists[best_j]) >= value * den:
            return value, weights
        check(best_j not in active_set, "a violated candidate is not yet active")
        active.append(best_j)
        active_set.add(best_j)


class BpGame:
    """One measure's perturbation game on one shape, for every f and eps.

    The measure scores each candidate matrix once; candidates with finite
    measure are kept sorted ascending (ties in row-major lexicographic
    order), and each (f, prefix) game is solved at most once.
    """

    def __init__(self, measure: MeasureFn, rows: int, cols: int):
        if rows * cols > BP_MAX_CELLS:
            raise SizeGuardError(
                f"perturbation operator capped at {BP_MAX_CELLS} cells, "
                f"got {rows * cols}"
            )
        scored = [
            (measure.apply(cand), cand)
            for cand in all_boolean_matrices(rows, cols)
        ]
        scored = [(v, cand) for v, cand in scored if v != math.inf]
        if not scored:
            raise ValueError(f"measure {measure.name} is infinite everywhere")
        scored.sort(key=lambda pair: pair[0])
        self.rows, self.cols = rows, cols
        self.values = [v for v, _ in scored]
        self.candidates = [cand for _, cand in scored]
        self.entries = np.array([c.entries for c in self.candidates])
        self._games: dict = {}

    def _game(self, f: BooleanMatrix, bits: np.ndarray, prefix: int):
        key = (f.entries, prefix)
        if key not in self._games:
            self._games[key] = _prefix_game(bits, prefix)
        return self._games[key]

    def solve(self, f: BooleanMatrix, eps: Fraction) -> BpResult:
        """The largest measure value an input distribution can force among
        matrices within eps of f: the measure of the first candidate whose
        prefix game value drops to eps or below.  The witness distribution
        is optimal for the preceding prefix, so it forces every cheaper
        candidate to differ on more than eps mass; the witness matrix is the
        first candidate at the critical value compatible with it.
        """
        eps = Fraction(eps)
        if not 0 <= eps <= 1:
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
        if (f.rows, f.cols) != (self.rows, self.cols):
            raise ValueError(
                f"f is {f.rows}x{f.cols}, the game is {self.rows}x{self.cols}"
            )
        n = len(self.values)
        bits = (self.entries != f.entries).reshape(n, -1).astype(np.int64)
        # The sentinel prefix n + 1 ends in f itself: "no prefix qualifies".
        prefix_min_pop = np.minimum.accumulate(bits.sum(axis=1)).tolist() + [0]

        def settled(prefix: int) -> bool:
            # A prefix containing f itself has game value 0: no distribution
            # moves f away from f.  A prefix missing f has value at least the
            # smallest difference count over the cell count, witnessed by the
            # uniform distribution.  Both bounds are exact, so the game is
            # solved only when eps falls between them.
            if prefix_min_pop[prefix - 1] == 0:
                return True
            if Fraction(prefix_min_pop[prefix - 1], bits.shape[1]) > eps:
                return False
            return self._game(f, bits, prefix)[0] <= eps

        lo, hi = 1, n + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if settled(mid):
                hi = mid
            else:
                lo = mid + 1
        index = lo  # first prefix length whose game value is <= eps

        _, weights = self._game(f, bits, max(index - 1, 1))
        mu = _distribution(self.rows, self.cols, weights)
        if index > n:
            # Every finite-measure candidate can be forced away from f: the
            # adversary wins outright.
            return BpResult(math.inf, mu, f, n, n)
        critical = self.values[index - 1]
        nums, den = _numerators(weights)
        dists = (bits @ nums).tolist()
        witness = next(
            (
                self.candidates[j]
                for j in range(n)
                if self.values[j] == critical and dists[j] <= eps * den
            ),
            None,
        )
        check(witness is not None, "the boundary candidate always qualifies")
        return BpResult(critical, mu, witness, index, n)


def bp_measure(measure: MeasureFn, f: BooleanMatrix, eps: Fraction) -> BpResult:
    """One perturbation-game query; `BpGame` answers many from one scoring."""
    return BpGame(measure, f.rows, f.cols).solve(f, eps)
