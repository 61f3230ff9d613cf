"""Compile polynomials, rational quotients, and majorities into guess protocols.

The monomial construction: a term c * z1^a1 * ... * zk^ak over guess
protocols g_1..g_k becomes the product of a_i copies of each g_i (gap is the
product of gaps), complemented when c is negative (gap flips sign), repeated
|c| times (gap scales), and terms are concatenated (gaps add).  The compiled
gap therefore equals the polynomial evaluated at the member gaps, input by
input.

Guess counts multiply along products, so compiled protocols are often far
too long to write out; the algebra in `protocols` keeps the counts and gap
grids exact regardless.  `compile_polynomial` enforces a materialization
guard by default since its typical callers want explicit protocols;
`compile_majority` runs unguarded because the majority quotient is
astronomically long by design and only its gap, count, and cost are used.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .majority import MajorityForm, majority_form
from .polynomials import IntPolynomial, RationalFunction
from .protocols import (
    GuessProtocol,
    ProtocolTooLargeError,
    always_accept,
    always_reject,
    ceil_log2,
    normalize_nonzero,
    pp_cost,
)

DEFAULT_GUESS_LIMIT = 1 << 20

MAJORITY_MAX_K = 25
MAJORITY_MAX_COST = 32


class CompilerError(ValueError):
    pass


def _check_protocols(protocols: Sequence[GuessProtocol], nvars: int):
    if len(protocols) != nvars:
        raise CompilerError(
            f"polynomial has {nvars} variables but {len(protocols)} protocols given"
        )
    rows, cols = protocols[0].rows, protocols[0].cols
    for g in protocols[1:]:
        protocols[0]._check_domain(g)
    return rows, cols


class _PowerCache:
    """Shared left-associated powers g, g*g, g*g*g, ... per protocol."""

    def __init__(self, protocols: Sequence[GuessProtocol]):
        self._powers: list[list[GuessProtocol]] = [[g] for g in protocols]

    def get(self, index: int, exponent: int) -> GuessProtocol:
        powers = self._powers[index]
        while len(powers) < exponent:
            powers.append(powers[-1] * powers[0])
        return powers[exponent - 1]


def _compile_terms(
    protocols: Sequence[GuessProtocol],
    poly: IntPolynomial,
    cache: Optional[_PowerCache] = None,
) -> GuessProtocol:
    rows, cols = _check_protocols(protocols, poly.nvars)
    if poly.is_zero():
        # Gap identically zero: one accepting and one rejecting guess.
        return always_accept(rows, cols) + always_reject(rows, cols)
    cache = cache or _PowerCache(protocols)
    result: Optional[GuessProtocol] = None
    for exps, coeff in poly.sorted_terms():
        term: Optional[GuessProtocol] = None
        for i, a in enumerate(exps):
            if a:
                piece = cache.get(i, a)
                term = piece if term is None else term * piece
        if term is None:
            term = always_accept(rows, cols)
        if coeff < 0:
            term = term.complement()
        term = term.repeat(abs(coeff))
        result = term if result is None else result + term
    assert result is not None
    return result


def compile_polynomial(
    protocols: Sequence[GuessProtocol],
    poly: IntPolynomial,
    max_guesses: Optional[int] = DEFAULT_GUESS_LIMIT,
) -> GuessProtocol:
    """Build a guess protocol whose gap is poly evaluated at the member gaps.

    The guess count is sum over terms of |coeff| * prod l_i^(a_i), at most
    M * l^d * (d+k)^(k+1); pass max_guesses=None to lift the guard.
    """
    result = _compile_terms(protocols, poly)
    if max_guesses is not None and result.guess_count > max_guesses:
        raise ProtocolTooLargeError(
            f"compiled protocol has {result.guess_count} guesses "
            f"(limit {max_guesses}); raise or disable max_guesses to proceed"
        )
    return result


def compile_rational(
    protocols: Sequence[GuessProtocol],
    ratio: RationalFunction,
    max_guesses: Optional[int] = DEFAULT_GUESS_LIMIT,
) -> GuessProtocol:
    """Compile num * den; the gap sign matches the sign of the quotient
    wherever the quotient is defined."""
    return compile_polynomial(protocols, ratio.numerator * ratio.denominator, max_guesses)


def _compile_univariate(
    g: GuessProtocol, poly: IntPolynomial, cache: _PowerCache, index: int
) -> GuessProtocol:
    """Apply a univariate polynomial to one protocol via the term construction."""
    result: Optional[GuessProtocol] = None
    for (a,), coeff in sorted(poly.terms.items(), key=lambda item: -item[0][0]):
        if a:
            term: GuessProtocol = cache.get(index, a)
        else:
            term = always_accept(g.rows, g.cols)
        if coeff < 0:
            term = term.complement()
        term = term.repeat(abs(coeff))
        result = term if result is None else result + term
    if result is None:
        result = always_accept(g.rows, g.cols) + always_reject(g.rows, g.cols)
    return result


def compile_majority(
    protocols: Sequence[GuessProtocol],
    max_guesses: Optional[int] = None,
) -> GuessProtocol:
    """A guess protocol that counting-accepts exactly where a strict majority
    of the given protocols counting-accept.

    Members are first passed through normalize_nonzero so every gap is odd
    and nonzero; with c the largest counting cost of the normalized members,
    the gaps sit in [-2^c, -1] union [1, 2^c] and the majority quotient at
    strength k and scale c has the majority's sign there.  The compiled
    result multiplies the quotient's numerator and denominator protocols, so
    its gap is their product and carries that same sign.
    """
    k = len(protocols)
    if k < 1:
        raise CompilerError("majority needs at least one protocol")
    if k % 2 == 0:
        raise CompilerError(f"majority needs an odd number of protocols, got {k}")
    if k > MAJORITY_MAX_K:
        raise CompilerError(f"majority size capped at {MAJORITY_MAX_K}, got {k}")
    rows, cols = protocols[0].rows, protocols[0].cols
    for g in protocols[1:]:
        protocols[0]._check_domain(g)

    normalized = [normalize_nonzero(g) for g in protocols]
    cost = max(pp_cost(g) for g in normalized)
    if cost > MAJORITY_MAX_COST:
        raise CompilerError(
            f"normalized member cost {cost} exceeds the cap {MAJORITY_MAX_COST}"
        )
    form = majority_form(k, cost)
    cache = _PowerCache(normalized)

    even_parts = [
        _compile_univariate(normalized[j], form.even_part, cache, j) for j in range(k)
    ]
    doubled_odd = form.odd_part * 2
    odd_parts = [
        _compile_univariate(normalized[i], doubled_odd, cache, i) for i in range(k)
    ]

    def chain(parts: Sequence[GuessProtocol]) -> GuessProtocol:
        out = parts[0]
        for p in parts[1:]:
            out = out * p
        return out

    denominator = chain(even_parts)
    numerator: Optional[GuessProtocol] = None
    for i in range(k):
        factors = [odd_parts[j] if j == i else even_parts[j] for j in range(k)]
        term = chain(factors)
        numerator = term if numerator is None else numerator + term
    assert numerator is not None
    numerator = numerator + denominator
    result = numerator * denominator
    if max_guesses is not None and result.guess_count > max_guesses:
        raise ProtocolTooLargeError(
            f"majority protocol has {result.guess_count} guesses (limit {max_guesses})"
        )
    return result


# ---------------------------------------------------------------------------
# bound helpers, exact integer arithmetic throughout


def polynomial_guess_bound(poly: IntPolynomial, member_guesses: int) -> int:
    """M * l^d * (d + k)^(k + 1) for a nonzero polynomial."""
    if poly.is_zero():
        raise ValueError("guess bound needs a nonzero polynomial")
    d, k = poly.degree, poly.nvars
    return poly.max_abs_coeff * member_guesses**d * (d + k) ** (k + 1)


def polynomial_cost_bound(
    poly: IntPolynomial, member_guesses: int, member_cost: int
) -> int:
    """ceil(log2(M * l^d * (d+k)^(k+1))) + c * d, computed exactly."""
    return ceil_log2(polynomial_guess_bound(poly, member_guesses)) + (
        member_cost * poly.degree
    )


def rational_guess_bound(ratio: RationalFunction, member_guesses: int) -> int:
    """(M * l^d * (2d + k)^(k + 1))^2 with M, d over numerator and denominator."""
    d, k = ratio.degree, ratio.nvars
    m = ratio.max_abs_coeff
    if m == 0:
        raise ValueError("guess bound needs a nonzero rational function")
    return (m * member_guesses**d * (2 * d + k) ** (k + 1)) ** 2


def majority_guess_bound(form: MajorityForm, member_guesses: int) -> int:
    """Rational-compilation guess bound instantiated with the majority form's
    exact degree and coefficient data."""
    d = form.total_degree
    m = form.max_abs_coeff
    k = form.k
    return (m * member_guesses**d * (2 * d + k) ** (k + 1)) ** 2


def majority_cost_bound(
    form: MajorityForm, member_guesses: int, member_cost: int
) -> int:
    d = form.total_degree
    m = form.max_abs_coeff
    k = form.k
    half = ceil_log2(m * member_guesses**d * (2 * d + k) ** (k + 1))
    return 2 * (half + member_cost * d)
