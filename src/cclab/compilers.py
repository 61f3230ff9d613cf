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

A majority applies the same two univariate polynomials to every member, so
`compile_majority` builds each distinct member's normalized protocol, power
chain and univariate parts once and shares those objects wherever the member
recurs, in one call or, through `randomized.amplify`, across the calls that
build one amplified support.  Sharing changes no node's shape: the DAG is the
one the term construction spells out, with identical subexpressions reused.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .invariants import check
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
    check(result is not None, "a nonzero polynomial has a term")
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


class _MajorityParts:
    """Each member's majority pieces, built once and shared.

    Guess protocols have no value equality, so pieces are keyed by member
    identity; the member is kept alive with them so its id cannot be reused
    while the memo lives.  A member's normalized protocol and power chain
    depend on the member alone, its (D, 2N) univariate parts also on the
    form (k, cost).
    """

    def __init__(self):
        # id(member) -> (member, normalized member, its power chain)
        self._members: dict[int, tuple] = {}
        # (id(member), k, cost) -> (D, 2N) of the normalized member
        self._parts: dict[tuple[int, int, int], tuple] = {}

    def normalized(self, g: GuessProtocol) -> GuessProtocol:
        entry = self._members.get(id(g))
        if entry is None:
            h = normalize_nonzero(g)
            entry = self._members[id(g)] = (g, h, _PowerCache([h]))
        return entry[1]

    def parts(
        self, g: GuessProtocol, form: MajorityForm, cost: int
    ) -> tuple[GuessProtocol, GuessProtocol]:
        """(D(g'), 2N(g')) for the normalized member g' at form (k, cost)."""
        key = (id(g), form.k, cost)
        parts = self._parts.get(key)
        if parts is None:
            _, h, powers = self._members[id(g)]
            parts = self._parts[key] = (
                _compile_terms([h], form.even_part, powers),
                _compile_terms([h], form.odd_part * 2, powers),
            )
        return parts


def compile_majority(
    protocols: Sequence[GuessProtocol],
    max_guesses: Optional[int] = None,
    *,
    _parts: Optional[_MajorityParts] = None,
) -> GuessProtocol:
    """A guess protocol that counting-accepts exactly where a strict majority
    of the given protocols counting-accept.

    Members are first passed through normalize_nonzero so every gap is odd
    and nonzero; with c the largest counting cost of the normalized members,
    the gaps sit in [-2^c, -1] union [1, 2^c] and the majority quotient at
    strength k and scale c has the majority's sign there.  The compiled
    result multiplies the quotient's numerator and denominator protocols, so
    its gap is their product and carries that same sign.

    Each distinct member (by identity) is normalized once, and its
    left-associated powers and univariate parts D and 2N are built once and
    shared by every position it fills.  `_parts` lets a caller that compiles
    many majorities over the same members, such as `randomized.amplify`,
    share those pieces across its calls; by default each call has its own.
    """
    k = len(protocols)
    if k < 1:
        raise CompilerError("majority needs at least one protocol")
    if k % 2 == 0:
        raise CompilerError(f"majority needs an odd number of protocols, got {k}")
    if k > MAJORITY_MAX_K:
        raise CompilerError(f"majority size capped at {MAJORITY_MAX_K}, got {k}")
    for g in protocols[1:]:
        protocols[0]._check_domain(g)

    memo = _MajorityParts() if _parts is None else _parts
    cost = max(pp_cost(memo.normalized(g)) for g in protocols)
    if cost > MAJORITY_MAX_COST:
        raise CompilerError(
            f"normalized member cost {cost} exceeds the cap {MAJORITY_MAX_COST}"
        )
    form = majority_form(k, cost)
    even_parts, odd_parts = zip(*(memo.parts(g, form, cost) for g in protocols))

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
    check(numerator is not None, "a majority has a member")
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


def _rational_root(m: int, member_guesses: int, d: int, k: int) -> int:
    """M * l^d * (2d + k)^(k + 1), the square root of the rational bound."""
    return m * member_guesses**d * (2 * d + k) ** (k + 1)


def rational_guess_bound(ratio: RationalFunction, member_guesses: int) -> int:
    """(M * l^d * (2d + k)^(k + 1))^2 with M, d over numerator and denominator."""
    m = ratio.max_abs_coeff
    if m == 0:
        raise ValueError("guess bound needs a nonzero rational function")
    return _rational_root(m, member_guesses, ratio.degree, ratio.nvars) ** 2


def majority_guess_bound(form: MajorityForm, member_guesses: int) -> int:
    """Rational-compilation guess bound instantiated with the majority form's
    exact degree and coefficient data."""
    d, m = form.total_degree, form.max_abs_coeff
    return _rational_root(m, member_guesses, d, form.k) ** 2


def majority_cost_bound(
    form: MajorityForm, member_guesses: int, member_cost: int
) -> int:
    d, m = form.total_degree, form.max_abs_coeff
    half = ceil_log2(_rational_root(m, member_guesses, d, form.k))
    return 2 * (half + member_cost * d)
