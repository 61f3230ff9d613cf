"""Independent checks of cclab's outputs.

Each checker recomputes what it can with its own code (integer rectangle
scans, HiGHS LPs built from scratch, binomial tails, direct tree
evaluation) and raises `CheckFailed` on the first disagreement.  None of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

Grid = Sequence[Sequence[int]]

# Rectangle count up to which the all-rectangles HiGHS LP is built (7x7).
HIGHS_RECTANGLE_LIMIT = 1 << 14
HIGHS_TOLERANCE = 1e-9
GRID_STEPS = 48


class CheckFailed(Exception):
    """An output disagrees with an independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# distributions


def integer_weights(weights: Grid) -> tuple[list[int], int]:
    """Row-major integer weights over their common denominator, after
    checking that the distribution is non-negative and sums to 1."""
    flat = [Fraction(w) for row in weights for w in row]
    require(all(w >= 0 for w in flat), "distribution has a negative weight")
    require(sum(flat) == 1, f"distribution sums to {sum(flat)}, not 1")
    denominator = math.lcm(*(w.denominator for w in flat))
    return [int(w * denominator) for w in flat], denominator


# ---------------------------------------------------------------------------
# discrepancy


def best_rectangle_value(entries: Grid, weights: Grid) -> Fraction:
    """max over rectangles of |sum of mu * A| by an integer scan over row
    subsets; the best column set for fixed rows takes every column whose
    signed sum shares one sign."""
    ints, denominator = integer_weights(weights)
    rows, cols = len(entries), len(entries[0])
    signed = [
        [ints[x * cols + y] * entries[x][y] for y in range(cols)] for x in range(rows)
    ]
    best = 0
    for mask in range(1, 1 << rows):
        sums = [0] * cols
        for x in range(rows):
            if mask >> x & 1:
                sums = [s + v for s, v in zip(sums, signed[x])]
        best = max(best, sum(s for s in sums if s > 0), -sum(s for s in sums if s < 0))
    return Fraction(best, denominator)


def rectangle_weight(entries: Grid, weights: Grid, row_set, col_set) -> Fraction:
    return abs(
        sum(
            (Fraction(weights[x][y]) * entries[x][y] for x in row_set for y in col_set),
            Fraction(0),
        )
    )


def highs_disc(entries: Grid) -> float:
    """min over mu of the max |mu-weight| of a rectangle, as one float LP
    with a row for every signed non-empty rectangle."""
    rows, cols = len(entries), len(entries[0])
    row_sets = (np.arange(1, 1 << rows)[:, None] >> np.arange(rows)) & 1
    col_sets = (np.arange(1, 1 << cols)[:, None] >> np.arange(cols)) & 1
    cells = np.einsum("ax,by->abxy", row_sets, col_sets).reshape(-1, rows * cols)
    signed = cells * np.asarray(entries, dtype=float).reshape(-1)
    payoff = np.vstack([signed, -signed])
    res = linprog(
        c=np.r_[np.zeros(rows * cols), 1.0],
        A_ub=np.hstack([payoff, -np.ones((len(payoff), 1))]),
        b_ub=np.zeros(len(payoff)),
        A_eq=np.r_[np.ones(rows * cols), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * (rows * cols) + [(None, None)],
        method="highs",
    )
    require(res.status == 0, f"HiGHS disc LP failed: {res.message}")
    return float(res.fun)


def check_disc(entries: Grid, result, known: Optional[Fraction] = None) -> None:
    """A `DiscrepancyResult`: certificate, HiGHS agreement, known value."""
    value = result.value
    weights = result.distribution.weights
    scanned = best_rectangle_value(entries, weights)
    require(scanned == value, f"disc {value}, but the best rectangle under mu is {scanned}")
    witness = rectangle_weight(
        entries, weights, result.witness.row_set, result.witness.col_set
    )
    require(witness == value, f"disc {value}, but the witness weighs {witness}")
    rows, cols = len(entries), len(entries[0])
    if ((1 << rows) - 1) * ((1 << cols) - 1) <= HIGHS_RECTANGLE_LIMIT:
        floated = highs_disc(entries)
        require(
            abs(floated - float(value)) <= HIGHS_TOLERANCE,
            f"disc {value}, but the all-rectangles LP gives {floated!r}",
        )
    if known is not None:
        require(value == known, f"disc {value}, known value {known}")


# ---------------------------------------------------------------------------
# the perturbation operator


def _mask(grid: Grid) -> int:
    cols = len(grid[0])
    return sum(1 << (x * cols + y) for x, row in enumerate(grid) for y, v in enumerate(row) if v)


def _subset_sums(ints: Sequence[int]) -> list[int]:
    sums = [0] * (1 << len(ints))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + ints[low.bit_length() - 1]
    return sums


def _all_grids(rows: int, cols: int) -> list[tuple[tuple[int, ...], ...]]:
    cells = rows * cols
    return [
        tuple(
            tuple((m >> (x * cols + y)) & 1 for y in range(cols)) for x in range(rows)
        )
        for m in range(1 << cells)
    ]


def candidate_values(rows: int, cols: int, lam: Callable[[Grid], object]) -> list:
    """lam of every rows x cols Boolean grid, indexed by its cell mask."""
    return [lam(grid) for grid in _all_grids(rows, cols)]


def highs_prefix_game(diff_masks: Sequence[int], cells: int) -> float:
    """max over mu of the least mu-mass on which a listed candidate
    differs from f, as a float LP."""
    bits = (np.asarray(diff_masks)[:, None] >> np.arange(cells)) & 1
    res = linprog(
        c=np.r_[np.zeros(cells), -1.0],
        A_ub=np.hstack([-bits, np.ones((len(bits), 1))]),
        b_ub=np.zeros(len(bits)),
        A_eq=np.r_[np.ones(cells), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * cells + [(None, None)],
        method="highs",
    )
    require(res.status == 0, f"HiGHS prefix game failed: {res.message}")
    return -float(res.fun)


def grid_adversary(f: Grid, eps: Fraction, values: Sequence) -> float:
    """max over mu on the 1/GRID_STEPS simplex grid of the least lam among
    candidates within eps of f: a brute-force perturbation game."""
    cells = len(f) * len(f[0])
    points = np.array(list(_compositions(GRID_STEPS, cells)), dtype=np.int64)
    masks = np.arange(1 << cells)
    diff = ((masks ^ _mask(f))[:, None] >> np.arange(cells)) & 1
    mass = points @ diff.T  # grid points x candidates, in grid steps
    within = mass * eps.denominator <= eps.numerator * GRID_STEPS
    lam = np.array([float(v) for v in values])
    return float(np.where(within, lam, np.inf).min(axis=1).max())


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def check_bp(
    f: Grid,
    eps: Fraction,
    result,
    values: Sequence,
    previous=None,
    grid_check: bool = False,
) -> None:
    """A `BpResult` for lam given as `values[candidate mask]`.

    The returned mu must push every candidate cheaper than the value more
    than eps away from f, the witness must lie within eps at the value,
    and no distribution may push every candidate up to the value away
    (float LP).  At eps = 0 the value is lam(f); it never rises with eps.
    """
    rows, cols = len(f), len(f[0])
    cells = rows * cols
    fmask = _mask(f)
    value = result.value
    require(value != math.inf, "bp value is infinite for a finite measure")
    if eps == 0:
        require(value == values[fmask], f"bp at eps 0 is {value}, lam(f) is {values[fmask]}")
    if previous is not None:
        require(value <= previous.value, f"bp rose from {previous.value} to {value}")
    ints, denominator = integer_weights(result.distribution.weights)
    sums = _subset_sums(ints)
    bound = eps.numerator * denominator  # mass > eps  <=>  sum * q > p * D
    for m, lam in enumerate(values):
        if lam < value:
            require(
                sums[m ^ fmask] * eps.denominator > bound,
                f"candidate {m:0{cells}b} with lam {lam} < {value} lies within eps",
            )
    wmask = _mask(result.matrix.entries)
    require(values[wmask] == value, f"witness lam {values[wmask]} != value {value}")
    require(
        sums[wmask ^ fmask] * eps.denominator <= bound,
        "witness lies more than eps away from f",
    )
    reachable = [m ^ fmask for m, lam in enumerate(values) if lam <= value]
    game = highs_prefix_game(reachable, cells)
    require(
        game <= float(eps) + 1e-9,
        f"the candidates up to lam {value} can all be pushed {game!r} > eps away",
    )
    if grid_check:
        brute = grid_adversary(f, eps, values)
        require(brute == float(value), f"bp {value}, grid adversary {brute}")


# ---------------------------------------------------------------------------
# margin complexity


def check_mc(
    entries: Grid,
    realization,
    disc_value: Optional[Fraction] = None,
    hadamard_n: Optional[int] = None,
) -> None:
    """A `MarginRealization`: margin >= 1, value = the norms' product,
    the disc bracket, and sqrt(n) for Sylvester-Hadamard H_n."""
    X = np.array(realization.row_vectors, dtype=float)
    Y = np.array(realization.col_vectors, dtype=float)
    S = np.array(entries, dtype=float)
    margin = float((S * (X @ Y.T)).min())
    require(margin >= 1 - 1e-9, f"realization margin {margin!r} < 1")
    norms = float(np.linalg.norm(X, axis=1).max() * np.linalg.norm(Y, axis=1).max())
    value = realization.value
    require(
        abs(norms - value) <= 1e-9 * value,
        f"mc {value!r}, but the vectors' norms multiply to {norms!r}",
    )
    if disc_value is not None:
        product = value * float(disc_value)
        require(0.125 <= product <= 8.0, f"mc * disc = {product!r} outside [1/8, 8]")
    if hadamard_n is not None:
        root = math.sqrt(hadamard_n)
        require(
            root * (1 - 1e-9) <= value <= 1.05 * root,
            f"mc(H_{hadamard_n}) = {value!r} outside [{root!r}, 1.05 * {root!r}]",
        )


# ---------------------------------------------------------------------------
# amplification and majority


def binomial_tail(t: int, p: Fraction) -> Fraction:
    """Probability that more than half of t independent runs err, each
    with probability p."""
    return sum(
        (
            math.comb(t, j) * p**j * (1 - p) ** (t - j)
            for j in range(t // 2 + 1, t + 1)
        ),
        Fraction(0),
    )


def check_amplified_error(error: Fraction, t: int, bound: Fraction) -> None:
    """Exact error of a t-fold majority over members that each err with
    probability 1/3 independently, and the Chernoff-type bound 1 - bound."""
    tail = binomial_tail(t, Fraction(1, 3))
    require(error == tail, f"t={t}: error {error}, binomial tail {tail}")
    require(error <= 1 - bound, f"t={t}: error {error} above {1 - bound}")


def evaluate_tree(tree, x: int, y: int) -> int:
    """Walk one protocol tree; duck-typed on the node fields."""
    while hasattr(tree, "zero"):
        side = x if tree.speaker == "alice" else y
        tree = tree.one if tree.table[side] else tree.zero
    if hasattr(tree, "bit"):
        return tree.bit
    return tree.table[x if tree.speaker == "alice" else y]


def member_acceptance(trees: Sequence, rows: int, cols: int) -> list[list[int]]:
    """Counting acceptance of an explicit member list: more accept than reject."""
    return [
        [
            1 if 2 * sum(evaluate_tree(t, x, y) for t in trees) > len(trees) else 0
            for y in range(cols)
        ]
        for x in range(rows)
    ]


def check_majority(decided: Grid, member_grids: Sequence[Grid]) -> None:
    """The compiled majority accepts exactly where a strict majority of
    its members accepts."""
    k = len(member_grids)
    rows, cols = len(decided), len(decided[0])
    for x in range(rows):
        for y in range(cols):
            want = 1 if 2 * sum(g[x][y] for g in member_grids) > k else 0
            require(
                decided[x][y] == want,
                f"majority of {k} at ({x}, {y}) is {decided[x][y]}, want {want}",
            )


def check_pipeline_errors(errors: Grid, support: Sequence, target: Grid) -> None:
    """Per-input error of the protocol built from a distribution over
    rectangle-term polynomials: member i decides [phi_i > 0], so an
    input's error is the probability of the polynomials whose sign
    disagrees with the target there."""
    for x, row in enumerate(target):
        for y, want in enumerate(row):
            wrong = sum(
                (
                    prob
                    for phi, prob in support
                    if (sum(t.coefficient * t.f_table[x] * t.g_table[y] for t in phi.terms) > 0)
                    != bool(want)
                ),
                Fraction(0),
            )
            require(
                errors[x][y] == wrong,
                f"pipeline error {errors[x][y]} at ({x}, {y}), want {wrong}",
            )
