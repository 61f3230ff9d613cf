"""Compiling polynomials and majority into protocols."""

import math
import operator
import random
from functools import reduce
from itertools import accumulate

import pytest

from cclab.compilers import (
    COMPILE_MAX_DEGREE,
    _LazyPart,
    _MajorityParts,
    _PowerCache,
    compile_majority,
    compile_polynomial,
    majority_cost_bound,
    majority_guess_bound,
    polynomial_cost_bound,
    polynomial_guess_bound,
)
from cclab.majority import majority_form
from cclab.matrices import SizeGuardError
from cclab.polynomials import IntPolynomial, parse_polynomial
from cclab.protocols import (
    BOB,
    DeterministicProtocol,
    Leaf,
    MemberProtocols,
    Node,
    ProductProtocol,
    SumProtocol,
    always_accept,
    ceil_log2,
    normalize_nonzero,
    pp_cost,
    pp_eval,
    pp_matrix,
)
from cclab.suites import random_members, random_polynomial


def test_compile_constant_and_variable():
    g = always_accept(2, 2)
    one = compile_polynomial([g], IntPolynomial.constant(1, 1))
    assert one.gap == ((1, 1), (1, 1))
    ident = compile_polynomial([g], IntPolynomial.variable(1, 0))
    assert ident.gap == g.gap
    minus = compile_polynomial([g], IntPolynomial.constant(1, -3))
    assert minus.gap == ((-3, -3), (-3, -3))


def test_compile_matches_polynomial_exactly():
    rng = random.Random(41)
    for _ in range(60):
        k = rng.randrange(1, 4)
        members = [
            random_members(rng, 3, 3, max_members=4, allow_output=False)
            for _ in range(k)
        ]
        poly = random_polynomial(rng, k)
        compiled = compile_polynomial(members, poly)
        for x in range(3):
            for y in range(3):
                gaps = tuple(m.gap[x][y] for m in members)
                assert compiled.gap[x][y] == poly.evaluate(gaps)


def test_compile_degree_cap_sums_the_highest_exponents(monkeypatch):
    # each variable's power chain grows to its highest exponent; the cap
    # bounds their sum, which is the degree for one variable
    leaf = always_accept(2, 2)
    power = compile_polynomial([leaf], parse_polynomial(f"z1^{COMPILE_MAX_DEGREE}"))
    assert power.gap == ((1, 1), (1, 1))
    built = []
    monkeypatch.setattr(_PowerCache, "get", lambda *args: built.append(args))
    half = COMPILE_MAX_DEGREE // 2
    for text in (f"z1^{COMPILE_MAX_DEGREE + 1}", f"z1^{half} + z2^{half + 1}"):
        with pytest.raises(SizeGuardError, match=f"sum to {COMPILE_MAX_DEGREE + 1}, "):
            compile_polynomial([leaf, leaf], parse_polynomial(text, nvars=2))
    assert built == []


def test_compile_thousands_of_levels_deep():
    # Bob announces his input's middle bit: one guess, cost 1, gap -1 in the
    # middle column and +1 elsewhere
    member = MemberProtocols(
        (DeterministicProtocol(3, 3, Node(BOB, (0, 1, 0), Leaf(1), Leaf(0))),)
    )
    power = compile_polynomial([member], parse_polynomial("z1^2000", nvars=1))
    assert power.gap == ((1, 1, 1),) * 3
    assert (power.guess_count, pp_cost(power)) == (1, 2000)
    # 600 terms make a sum chain as deep as the longest power chain
    poly = parse_polynomial(" + ".join(f"z1^{i}" for i in range(1, 601)), nvars=1)
    series = compile_polynomial([member], poly)
    assert series.gap == ((600, 0, 600),) * 3
    assert (series.guess_count, pp_cost(series)) == (600, ceil_log2(600) + 600)


def test_flatten_thousands_of_product_levels():
    # a cost-0 power is one guess however deep its product chain, so the
    # node guard admits it and the member walk must not recurse per level
    power = compile_polynomial([always_accept(2, 2)], parse_polynomial("z1^1500"))
    flat = power.flatten()
    assert [m.root for m in flat.member_tuple] == [Leaf(1)]


def test_guess_and_cost_bounds_hold():
    rng = random.Random(43)
    for _ in range(40):
        k = rng.randrange(1, 4)
        members = [random_members(rng, 2, 2, max_members=4) for _ in range(k)]
        poly = random_polynomial(rng, k)
        compiled = compile_polynomial(members, poly)
        l_max = max(m.guess_count for m in members)
        c_max = max(m.max_depth for m in members)
        assert compiled.guess_count <= polynomial_guess_bound(poly, l_max)
        assert pp_cost(compiled) <= polynomial_cost_bound(poly, l_max, c_max)


def test_guess_bound_formula():
    # M * l^d * (d+k)^(k+1) with M=5, d=3, k=2, l=4
    poly = parse_polynomial("5*z1^2*z2 - z1", nvars=2)
    assert polynomial_guess_bound(poly, 4) == 5 * 4**3 * 5**3
    with pytest.raises(ValueError):
        polynomial_guess_bound(IntPolynomial(2), 4)


def test_cost_bound_formula():
    poly = parse_polynomial("5*z1^2*z2 - z1", nvars=2)
    expected = math.ceil(math.log2(5) + 3 * math.log2(4) + 3 * math.log2(5)) + 2 * 3
    assert polynomial_cost_bound(poly, 4, 2) == expected


def test_compile_majority_pointwise():
    rng = random.Random(59)
    for _ in range(12):
        k = rng.choice((3, 5))
        members = [random_members(rng, 2, 2, max_members=2, max_depth=1) for _ in range(k)]
        maj = compile_majority(members)
        grids = [pp_matrix(m).entries for m in members]
        for x in range(2):
            for y in range(2):
                want = 1 if 2 * sum(g[x][y] for g in grids) > k else 0
                assert pp_eval(maj, x, y) == want


def test_majority_bounds_are_consistent():
    # the compiler's guess and cost bounds at the form compile_majority uses, with
    # l and c the largest guess count and cost of the normalized members
    rng = random.Random(61)
    for _ in range(8):
        k = rng.choice((3, 5))
        members = [random_members(rng, 2, 2, max_members=2, max_depth=1) for _ in range(k)]
        normalized = [normalize_nonzero(m) for m in members]
        l = max(g.guess_count for g in normalized)
        c = max(g.max_depth for g in normalized)
        form = majority_form(k, max(pp_cost(g) for g in normalized))
        maj = compile_majority(members)
        assert maj.guess_count <= majority_guess_bound(form, l)
        assert pp_cost(maj) <= majority_cost_bound(form, l, c)


def test_lazy_part_flattens_like_its_term_tree():
    rng = random.Random(67)
    for _ in range(30):
        g = random_members(rng, 2, 3, max_members=2, max_depth=1)
        poly = random_polynomial(rng, 1)
        lazy = _LazyPart(g, poly, _PowerCache([g]), lambda v: poly.evaluate((v,)))
        eager = compile_polynomial([g], poly)
        assert (lazy.gap, lazy.guess_count, lazy.costs) == (
            eager.gap,
            eager.guess_count,
            eager.costs,
        )
        assert lazy.flatten().member_tuple == eager.flatten().member_tuple


def test_majority_flatten_refusal_is_unchanged():
    rng = random.Random(71)
    members = [random_members(rng, 2, 2, max_members=2, max_depth=1) for _ in range(3)]
    memo = _MajorityParts()
    maj = compile_majority(members, _parts=memo)
    with pytest.raises(SizeGuardError) as lazy:
        maj.flatten()
    parts = list(memo._parts.values())
    # the refusal reads the stored count and costs, so no term tree is built
    assert not any("children" in vars(p) for pair in parts for p in pair)
    eager = _MajorityParts().quotient(
        [(even.children[0], odd.children[0]) for even, odd in parts]
    )
    with pytest.raises(SizeGuardError) as built:
        eager.flatten()
    assert str(lazy.value) == str(built.value)
    assert str(lazy.value).startswith(f"cannot materialize {maj.guess_count} guesses")


def _quadratic_majority(protocols):
    """The term-by-term construction: each numerator term a fresh
    left-associated chain of k factors, the terms summed pairwise."""
    k, memo = len(protocols), _MajorityParts()
    cost = max(pp_cost(memo.normalized(g)) for g in protocols)
    form = majority_form(k, cost)
    even, odd = zip(*(memo.parts(g, form, cost) for g in protocols))
    denominator = reduce(operator.mul, even)
    terms = (
        reduce(operator.mul, [odd[j] if j == i else even[j] for j in range(k)])
        for i in range(k)
    )
    numerator = reduce(operator.add, terms)
    return (numerator + denominator) * denominator


def _reachable(roots):
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for attr in ("left", "right", "base"):
            if hasattr(node, attr):
                stack.append(getattr(node, attr))
        stack.extend(getattr(node, "parts", ()))
    return seen


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_compile_majority_matches_quadratic_construction(k):
    rng = random.Random(200 + k)
    for _ in range(3):
        members = [random_members(rng, 2, 3, max_members=2, max_depth=1) for _ in range(k)]
        # one member in two positions, as amplify's multisets have
        members[-1] = members[0]
        memo = _MajorityParts()
        maj = compile_majority(members, _parts=memo)
        old = _quadratic_majority(members)
        assert (maj.guess_count, maj.gap, maj.costs) == (old.guess_count, old.gap, old.costs)
        shared = _reachable(
            [h for h, _ in memo._members.values()]
            + [p for parts in memo._parts.values() for p in parts]
        )
        built = [
            node
            for key, node in _reachable([maj]).items()
            if key not in shared and isinstance(node, ProductProtocol)
        ]
        assert len(built) == 3 * k - 2


def _prefix_suffix_quotient(even, odd):
    """The prefix/suffix construction: the left-associated prefixes P_i of
    D kept, the right-associated suffixes S_i = E_i*(E_{i+1}*(...)), term i
    (P_{i-1}*O_i)*S_{i+1}, and the flat sum of the k terms and D, times D."""
    k = len(even)
    prefixes = list(accumulate(even, operator.mul))
    suffixes = list(accumulate(reversed(even[1:]), lambda tail, e: e * tail))
    suffixes.reverse()
    terms = []
    for i, o in enumerate(odd):
        term = o if i == 0 else prefixes[i - 1] * o
        terms.append(term if i == k - 1 else term * suffixes[i])
    return SumProtocol(terms + [prefixes[-1]]) * prefixes[-1]


@pytest.mark.parametrize("allow_output", [False, True])
@pytest.mark.parametrize("k", [3, 5])
def test_majority_quotient_keeps_member_order(k, allow_output):
    # a majority is too long to flatten, so its numerator/denominator chain
    # runs on small stand-in parts (E_i, O_i) that flatten; a private output
    # closes at cost 1, so those parts are terminals and each E_i one guess
    rng = random.Random(300 + k)
    depth, even_guesses = (0, 1) if allow_output else (1, 2)
    for _ in range(4):
        parts = [
            tuple(
                random_members(
                    rng, 2, 2, max_members=m, max_depth=depth, allow_output=allow_output
                )
                for m in (even_guesses, 2)
            )
            for _ in range(k)
        ]
        got = _MajorityParts().quotient(parts).flatten().member_tuple
        want = _prefix_suffix_quotient(*zip(*parts)).flatten().member_tuple
        assert [(m.output_grid(), m.costs) for m in got] == [
            (m.output_grid(), m.costs) for m in want
        ]
        if not allow_output:
            # with fixed leaves only, regrouping a product chain rebuilds
            # every member tree exactly; a private output (s, t) behind a
            # rejecting leaf, spliced before a third factor c, becomes
            # Node(s, t, c, ~c) in one grouping and Node(s, ~t, ~c, c),
            # the same function at the same cost, in the other
            assert got == want
