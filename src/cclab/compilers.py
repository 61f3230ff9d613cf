"""Compile polynomials and majorities into guess protocols.

The monomial construction: a term c * z1^a1 * ... * zk^ak over guess
protocols g_1..g_k becomes the product of a_i copies of each g_i (gap is the
product of gaps), complemented when c is negative (gap flips sign), repeated
|c| times (gap scales), and terms are concatenated (gaps add).  The compiled
gap therefore equals the polynomial evaluated at the member gaps, input by
input.

Guess counts multiply along products, so compiled protocols are often far
too long to write out; the algebra in `protocols` keeps the counts and gap
grids exact regardless.  Nothing here expands a member list: the one place
that writes members out is `GuessProtocol.flatten`, under its
MATERIALIZE_LIMIT on tree nodes.
The majority quotient in particular is astronomically long by design, and
only its gap, count, and cost are used.

A majority applies the same two univariate polynomials, D and 2N, to every
member.  `compile_majority` makes each distinct member's normalized
protocol and power chain once, and each (member, form) pair of parts once,
and shares those objects wherever the member recurs, in one call or,
through `randomized.amplify`, across the calls that build one amplified
support.  A part is a `_LazyPart`: its gap comes from the majority form's
values at the member's gaps and its guess count and costs from the
polynomial's terms, and its term tree of powers, complements, repeats and
sums is built only when a member walk first reaches it.  Above the parts,
the numerator and denominator come from one Horner recurrence, 3k - 2
product nodes per majority rather than k^2, and a recurrence prefix is
built once for every majority that starts with the same parts.  Products
and sums are associative and distribute in gap, guess count, cost and
member order, so every grouping yields the same values.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

from .majority import MajorityForm, majority_form
from .matrices import SizeGuardError
from .polynomials import IntPolynomial
from .protocols import (
    GuessProtocol,
    SumProtocol,
    always_accept,
    always_reject,
    ceil_log2,
    normalize_nonzero,
    pp_cost,
)

MAJORITY_MAX_K = 25
MAJORITY_MAX_COST = 32


class CompilerError(ValueError):
    pass


class _PowerCache:
    """Shared left-associated powers g, g*g, g*g*g, ... per protocol."""

    def __init__(self, protocols: Sequence[GuessProtocol]):
        self._powers: list[list[GuessProtocol]] = [[g] for g in protocols]

    def get(self, index: int, exponent: int) -> GuessProtocol:
        powers = self._powers[index]
        while len(powers) < exponent:
            powers.append(powers[-1] * powers[0])
        return powers[exponent - 1]


def compile_polynomial(
    protocols: Sequence[GuessProtocol],
    poly: IntPolynomial,
    cache: Optional[_PowerCache] = None,
) -> GuessProtocol:
    """Build a guess protocol whose gap is poly evaluated at the member gaps.

    The guess count is sum over terms of |coeff| * prod l_i^(a_i), at most
    M * l^d * (d+k)^(k+1).  `cache` shares the members' power chains with
    other compilations over the same members.
    """
    if len(protocols) != poly.nvars:
        raise CompilerError(
            f"polynomial has {poly.nvars} variables but {len(protocols)} protocols given"
        )
    rows, cols = protocols[0].rows, protocols[0].cols
    for g in protocols[1:]:
        protocols[0]._check_domain(g)
    if poly.is_zero():
        # Gap identically zero: one accepting and one rejecting guess.
        return always_accept(rows, cols) + always_reject(rows, cols)
    cache = cache or _PowerCache(protocols)
    terms = []
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
        terms.append(term.repeat(abs(coeff)))
    return SumProtocol(terms)


class _LazyPart(GuessProtocol):
    """poly(g) for a nonzero univariate poly, whose term tree is built only
    when a member walk first reads `children`.

    That tree, `compile_polynomial([g], poly, powers)` and the node's one
    child, makes each term c * z^a the power chain g^a (constant terms one
    fixed guess), complemented when c < 0, repeated |c| times, and sums the
    terms.  So the node reads its values off the terms: the guess count
    is the sum of |c| * l^a, and since a chain of a >= 1 factors costs
    ((a - 1) * closed + cost, a * closed), which grows with a, the costs
    are those of the top degree d, or (0, 0) when d = 0; l and (cost,
    closed) are g's.  `value` maps a gap of g to poly's value there.
    """

    def __init__(
        self,
        g: GuessProtocol,
        poly: IntPolynomial,
        powers: _PowerCache,
        value: Callable[[int], int],
    ):
        l = g.guess_count
        count = sum(abs(c) * l**a for (a,), c in poly.terms.items())
        cost, closed = g.costs
        d = poly.degree
        costs = ((d - 1) * closed + cost, d * closed) if d else (0, 0)
        gap = tuple(tuple(map(value, row)) for row in g.gap)
        super().__init__(g.rows, g.cols, count, gap, costs)
        self._terms = (g, poly, powers)

    @cached_property
    def children(self):
        g, poly, powers = self._terms
        return (compile_polynomial([g], poly, powers),)

    def _join(self, lists):
        return lists[0]


class _MajorityParts:
    """Each member's majority pieces, built once and shared.

    Guess protocols have no value equality, so they hash by identity and
    key the memo as they are.  A member's normalized protocol and power
    chain depend on the member alone, its (D, 2N) univariate parts also on
    the form (k, cost), and a Horner prefix (P_i, Q_i) on the parts of
    positions 0..i alone.  The parts are `_LazyPart` nodes, which hold the
    power chain and grow their term trees from it only when walked.
    """

    def __init__(self):
        # member -> (normalized member, its power chain)
        self._members: dict[GuessProtocol, tuple] = {}
        # (member, k, cost) -> (D, 2N) of the normalized member
        self._parts: dict[tuple[GuessProtocol, int, int], tuple] = {}
        # ((E_0, O_0), ..., (E_i, O_i)) -> (P_i, Q_i)
        self._chains: dict[tuple, tuple[GuessProtocol, GuessProtocol]] = {}

    def normalized(self, g: GuessProtocol) -> GuessProtocol:
        if g not in self._members:
            h = normalize_nonzero(g)
            self._members[g] = (h, _PowerCache([h]))
        return self._members[g][0]

    def parts(
        self, g: GuessProtocol, form: MajorityForm, cost: int
    ) -> tuple[GuessProtocol, GuessProtocol]:
        """(D(g'), 2N(g')) for the normalized member g' at form (k, cost)."""
        key = (g, form.k, cost)
        if key not in self._parts:
            h, powers = self._members[g]
            self._parts[key] = (
                _LazyPart(h, form.even_part, powers, lambda v: form._part_at(v)[1]),
                _LazyPart(
                    h, form.doubled_odd_part, powers, lambda v: 2 * form._part_at(v)[0]
                ),
            )
        return self._parts[key]

    def quotient(
        self, parts: Sequence[tuple[GuessProtocol, GuessProtocol]]
    ) -> GuessProtocol:
        """(N + D) * D for the members' parts (E_i, O_i), in member order.

        P_0 = E_0, Q_0 = O_0, P_i = P_{i-1}*E_i and Q_i = Q_{i-1}*E_i +
        P_{i-1}*O_i; P_{k-1} is D and Q_{k-1} the sum N of the k terms
        E_0*...*O_i*...*E_{k-1}.  Each (P_i, Q_i) is kept under its parts
        prefix, so a later call sharing that prefix starts from it.
        """
        parts = tuple(parts)
        for i, (even, odd) in enumerate(parts):
            key = parts[: i + 1]
            if key not in self._chains:
                self._chains[key] = (
                    (even, odd)
                    if i == 0
                    else (p * even, SumProtocol((q * even, p * odd)))
                )
            p, q = self._chains[key]
        return SumProtocol((q, p)) * p


def compile_majority(
    protocols: Sequence[GuessProtocol], *, _parts: Optional[_MajorityParts] = None
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
    univariate parts D and 2N, with their left-associated powers for a
    later member walk, are made once and shared by every position it
    fills.  `_parts` lets a caller that compiles many majorities over the
    same members, such as `randomized.amplify`, share those pieces across
    its calls; by default each call has its own.

    With E_i and O_i the parts D and 2N of member i, the denominator D =
    E_0*...*E_{k-1} and the numerator N, the sum over i of the terms
    E_0*...*E_{i-1}*O_i*E_{i+1}*...*E_{k-1}, come from one Horner
    recurrence (`_MajorityParts.quotient`): k - 1 products for the prefixes
    P_i of D, 2(k - 1) for the partial numerators Q_i, and one for (N + D)
    * D, so 3k - 2 product nodes per call instead of the k^2 of k separate
    chains.  Its prefixes are keyed by the identity of the parts objects,
    so they are shared only between majorities compiled with one
    `_MajorityParts`, and only over a common leading run of members at one
    form.  Regrouping changes no value: product gaps and guess counts
    multiply and sum ones add, so products distribute over sums; a
    product's costs are (closed_L + cost_R, closed_L + closed_R), which
    compose associatively and distribute over a sum's maxima; and a
    product of sums lists its members in the order of the expanded sum of
    products, so N keeps the term order above.
    """
    k = len(protocols)
    if k < 1:
        raise CompilerError("majority needs at least one protocol")
    if k % 2 == 0:
        raise CompilerError(f"majority needs an odd number of protocols, got {k}")
    if k > MAJORITY_MAX_K:
        raise SizeGuardError(f"majority size capped at {MAJORITY_MAX_K}, got {k}")
    for g in protocols[1:]:
        protocols[0]._check_domain(g)

    memo = _MajorityParts() if _parts is None else _parts
    cost = max(pp_cost(memo.normalized(g)) for g in protocols)
    if cost > MAJORITY_MAX_COST:
        raise SizeGuardError(
            f"normalized member cost {cost} exceeds the cap {MAJORITY_MAX_COST}"
        )
    form = majority_form(k, cost)
    return memo.quotient([memo.parts(g, form, cost) for g in protocols])


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


def majority_guess_bound(form: MajorityForm, member_guesses: int) -> int:
    """(M * l^d * (2d + k)^(k + 1))^2, the bound for compiling the quotient's
    numerator times its denominator, with M and d the majority form's exact
    coefficient and degree data."""
    d, m, k = form.total_degree, form.max_abs_coeff, form.k
    return (m * member_guesses**d * (2 * d + k) ** (k + 1)) ** 2


def majority_cost_bound(
    form: MajorityForm, member_guesses: int, member_cost: int
) -> int:
    """2 * (ceil(log2(M * l^d * (2d + k)^(k + 1))) + c * d), computed exactly."""
    d, m, k = form.total_degree, form.max_abs_coeff, form.k
    half = ceil_log2(m * member_guesses**d * (2 * d + k) ** (k + 1))
    return 2 * (half + member_cost * d)
