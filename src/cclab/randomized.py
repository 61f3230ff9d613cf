"""Randomized guess protocols: finite-support distributions over guess
protocols, evaluated in counting-acceptance mode, with exact two-sided
error measurement.

Amplification takes the majority of independent runs.  The success
probability of a t-run majority with per-run error 1/2 - eps is at least
1 - (1/2)(1 - 4 eps^2)^(t/2); `majority_success_bound` evaluates that
expression as an exact rational lower bound (the square root is rounded in
the safe direction, to about fourteen significant digits).

Sparsification replaces the distribution by a uniform one over a small
seeded sample and then checks, exactly, that the error really did not grow
by more than the allowed slack; at this scale the guarantee is measured,
not merely promised.

`minimax_error_check` plays both sides of the finite zero-sum game between
a protocol family and an input adversary and confirms the two optimal
values coincide, which the exact LP solver lets us assert with equality
rather than a tolerance.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .compilers import _MajorityParts, compile_majority
from .invariants import check
from .lp import maximize_min, minimize_max
from .matrices import BooleanMatrix
from .protocols import DomainMismatchError, GuessProtocol, pp_cost, pp_matrix

AMPLIFY_TUPLE_LIMIT = 100_000
SPARSIFY_MAX_ATTEMPTS = 32

_SQRT_SCALE = 10**14


class SparsifyRetryError(RuntimeError):
    """No sampled support met the error budget within the retry cap."""

    def __init__(self, message: str, measured_errors: list):
        super().__init__(message)
        self.measured_errors = measured_errors


@dataclass(frozen=True)
class RandomizedPPProtocol:
    """A finite-support probability distribution over guess protocols."""

    support: tuple[tuple[GuessProtocol, Fraction], ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        total = Fraction(0)
        rows, cols = self.support[0][0].rows, self.support[0][0].cols
        for member, prob in self.support:
            if prob < 0:
                raise ValueError(f"negative probability {prob}")
            if (member.rows, member.cols) != (rows, cols):
                raise DomainMismatchError(
                    f"member domain {member.rows}x{member.cols} differs "
                    f"from {rows}x{cols}"
                )
            total += prob
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @property
    def rows(self) -> int:
        return self.support[0][0].rows

    @property
    def cols(self) -> int:
        return self.support[0][0].cols

    def _check_shape(self, f: BooleanMatrix) -> None:
        if (f.rows, f.cols) != (self.rows, self.cols):
            raise DomainMismatchError(
                f"matrix is {f.rows}x{f.cols}, protocol domain "
                f"{self.rows}x{self.cols}"
            )

    def per_input_error(self, f: BooleanMatrix) -> tuple[tuple[Fraction, ...], ...]:
        """Probability mass of members disagreeing with f, per input."""
        self._check_shape(f)
        grids = [(pp_matrix(member), prob) for member, prob in self.support]
        return tuple(
            tuple(
                sum(
                    (prob for grid, prob in grids if grid.entries[x][y] != f.entries[x][y]),
                    Fraction(0),
                )
                for y in range(self.cols)
            )
            for x in range(self.rows)
        )

    def error(self, f: BooleanMatrix) -> Fraction:
        """Worst-case disagreement probability over all inputs."""
        return max(v for row in self.per_input_error(f) for v in row)

    def cost(self) -> int:
        """Largest counting cost among members with positive probability."""
        costs = [pp_cost(member) for member, prob in self.support if prob > 0]
        if not costs:
            raise ValueError("no member has positive probability")
        return max(costs)


def uniform_support(members: Sequence[GuessProtocol]) -> RandomizedPPProtocol:
    if not members:
        raise ValueError("need at least one member")
    p = Fraction(1, len(members))
    return RandomizedPPProtocol(tuple((g, p) for g in members))


def majority_success_bound(eps: Fraction, t: int) -> Fraction:
    """Exact rational lower bound on 1 - (1/2)(1 - 4 eps^2)^(t/2).

    Valid for per-run advantage eps in (0, 1/2] and odd t.  The half-power
    is an irrational square root in general; it is bracketed with integer
    square roots and rounded so the returned bound never overstates the
    success probability.  Accuracy is about fourteen significant digits.
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be odd and positive, got {t}")
    alpha = 1 - 4 * eps * eps
    if alpha == 0:
        return Fraction(1)
    power = alpha**t  # (1 - 4 eps^2)^(t/2) = sqrt(alpha^t), t odd
    scaled = power.numerator * power.denominator * _SQRT_SCALE**2
    root = math.isqrt(scaled)
    if root * root == scaled:
        sqrt_upper = Fraction(root, power.denominator * _SQRT_SCALE)
    else:
        sqrt_upper = Fraction(root + 1, power.denominator * _SQRT_SCALE)
    return 1 - sqrt_upper / 2


def amplify(rp: RandomizedPPProtocol, t: int) -> RandomizedPPProtocol:
    """Majority vote over t independent draws from rp.

    The support is the full t-fold product distribution; draws that are
    permutations of one another elect the same majority protocol, so the
    result stores one entry per multiset of members with the multinomial
    probability attached.  Each multiset is compiled once, and all of them
    share one memo of member parts: each distinct member's normalized
    protocol, power chain and univariate parts are built once per call and
    reused by every majority it joins.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be odd and positive, got {t}")
    s = len(rp.support)
    if s**t > AMPLIFY_TUPLE_LIMIT:
        raise ValueError(
            f"product support would have {s}^{t} tuples "
            f"(limit {AMPLIFY_TUPLE_LIMIT})"
        )

    t_factorial = math.factorial(t)
    parts = _MajorityParts()
    new_support = []
    for key in combinations_with_replacement(range(s), t):
        weight = Fraction(t_factorial)
        for i, c in Counter(key).items():
            weight = weight / math.factorial(c) * rp.support[i][1] ** c
        if weight == 0:
            continue
        members = [rp.support[i][0] for i in key]
        new_support.append((compile_majority(members, _parts=parts), weight))
    return RandomizedPPProtocol(tuple(new_support))


def sparsify_support(
    rp: RandomizedPPProtocol,
    f: BooleanMatrix,
    delta: Fraction,
    sample_size: int,
    seed: int = 0,
    max_attempts: int = SPARSIFY_MAX_ATTEMPTS,
) -> tuple[RandomizedPPProtocol, dict]:
    """Replace rp by a uniform distribution over sample_size seeded draws.

    The sampled protocol's error against f is measured exactly; a sample is
    accepted only if it stays within error(rp) + delta.  On rejection the
    next seed is tried, up to max_attempts.  Returns the accepted protocol
    and a report of the search.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    base_error = rp.error(f)
    budget = base_error + delta
    denominator = math.lcm(*(prob.denominator for _, prob in rp.support))
    thresholds = []
    acc = 0
    for _, prob in rp.support:
        acc += int(prob * denominator)
        thresholds.append(acc)

    measured = []
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt)
        members = []
        for _ in range(sample_size):
            r = rng.randrange(denominator)
            idx = next(i for i, bound in enumerate(thresholds) if r < bound)
            members.append(rp.support[idx][0])
        candidate = uniform_support(members)
        err = candidate.error(f)
        measured.append(err)
        if err <= budget:
            report = {
                "base_error": base_error,
                "measured_error": err,
                "budget": budget,
                "seed_used": seed + attempt,
                "attempts": attempt + 1,
                "sample_size": sample_size,
            }
            return candidate, report
    raise SparsifyRetryError(
        f"no sample met error budget {budget} in {max_attempts} attempts "
        f"(measured errors: {[str(e) for e in measured]})",
        measured,
    )


def minimax_error_check(f: BooleanMatrix, family: Sequence[GuessProtocol]) -> dict:
    """Solve both sides of the protocol-versus-input error game exactly.

    One side mixes over the family to minimize the worst-input error; the
    other mixes over inputs to maximize the best member's error.  Each
    call's value is already certified inside `lp._game` by both optimal
    strategies, so the equality of the two values below is a second,
    exact self-check.  The game is solved twice, through `minimize_max`
    and `maximize_min`, only because perfbench's tracer patches both
    names on this module.
    """
    if not family:
        raise ValueError("family must be nonempty")
    for g in family:
        if (g.rows, g.cols) != (f.rows, f.cols):
            raise DomainMismatchError(
                f"family member domain {g.rows}x{g.cols} differs from matrix"
            )
    grids = [pp_matrix(g) for g in family]
    payoff = [
        [
            1 if grids[j].entries[x][y] != f.entries[x][y] else 0
            for j in range(len(family))
        ]
        for x in range(f.rows)
        for y in range(f.cols)
    ]
    primal_value, family_weights = minimize_max(payoff)
    dual_value, input_weights = maximize_min(payoff)
    check(
        primal_value == dual_value,
        f"game values differ: {primal_value} vs {dual_value} (LP bug)",
    )
    return {
        "value": primal_value,
        "primal_value": primal_value,
        "dual_value": dual_value,
        "difference": primal_value - dual_value,
        "family_strategy": list(family_weights),
        "input_strategy": list(input_weights),
    }
