"""Protocol trees, guess protocols, the gap algebra, and cost accounting."""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.matrices import DomainMismatchError, SizeGuardError
from cclab.protocols import (
    ALICE,
    BOB,
    MATERIALIZE_LIMIT,
    ComplementProtocol,
    DeterministicProtocol,
    Leaf,
    MemberProtocols,
    Node,
    OutputLeaf,
    RepeatProtocol,
    always_accept,
    always_reject,
    ceil_log2,
    dumps_protocol,
    enumerate_protocols,
    grid_protocol,
    leaf_protocol,
    loads_protocol,
    normalize_nonzero,
    pp_cost,
    pp_cost_closed,
    pp_eval,
    pp_matrix,
    pp_to_threshold,
    threshold_to_pp,
    wrap_deterministic,
)
from cclab.suites import random_guess, random_members


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_tree_validation():
    with pytest.raises(ValueError):
        DeterministicProtocol(2, 2, Node(ALICE, (0, 1, 0), Leaf(0), Leaf(1)))
    with pytest.raises(ValueError):
        DeterministicProtocol(2, 2, Leaf(2))
    with pytest.raises(ValueError):
        DeterministicProtocol(2, 2, OutputLeaf("carol", (0, 1)))


def test_deterministic_protocol_semantics():
    # Alice announces her bit; on 1 Bob answers from his table.
    tree = Node(ALICE, (0, 1), Leaf(0), OutputLeaf(BOB, (1, 0)))
    p = DeterministicProtocol(2, 2, tree)
    assert p.output_grid() == ((0, 0), (1, 0))
    assert p.costs == (1, 2)


def test_grid_protocol_matches_grid():
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        grid = tuple(
            tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows)
        )
        p = grid_protocol(rows, cols, grid)
        assert p.output_grid() == grid
        assert p.costs[0] == (ceil_log2(rows) if rows > 1 else 0)
    with pytest.raises(ValueError):
        grid_protocol(2, 2, ((0, 1),))


def test_gap_counts_members():
    g = MemberProtocols(
        (
            DeterministicProtocol(2, 2, Leaf(1)),
            DeterministicProtocol(2, 2, Leaf(1)),
            DeterministicProtocol(2, 2, Leaf(0)),
        )
    )
    assert g.guess_count == 3
    assert g.gap == ((1, 1), (1, 1))  # 2 accepts - 1 reject


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gap_algebra_identities(seed):
    rng = random.Random(seed)
    g1 = random_guess(rng, 3, 3)
    g2 = random_guess(rng, 3, 3)
    comp = g1.complement()
    total = g1 + g2
    prod = g1 * g2
    rep = g1.repeat(3)
    norm = normalize_nonzero(g1)
    for x in range(3):
        for y in range(3):
            assert comp.gap[x][y] == -g1.gap[x][y]
            assert total.gap[x][y] == g1.gap[x][y] + g2.gap[x][y]
            assert prod.gap[x][y] == g1.gap[x][y] * g2.gap[x][y]
            assert rep.gap[x][y] == 3 * g1.gap[x][y]
            assert norm.gap[x][y] == 2 * g1.gap[x][y] - 1
    for g in (comp, total, prod, rep, norm, _deep_guess(rng)):
        _assert_recount(g)


def _assert_recount(g):
    # an algebra node must agree with a recount over its materialized
    # members, in guess count, gap and both member costs
    flat = g.flatten()
    members = flat.member_tuple
    assert len(members) == g.guess_count
    assert flat.gap == g.gap
    assert (g.max_depth, g.closed_depth) == (
        max(m.costs[0] for m in members),
        max(m.costs[1] for m in members),
    )


def _deep_guess(rng):
    """A DAG of eight combinator levels over small 2x2 members, each level
    reusing the one below, kept small enough to flatten."""
    g = random_members(rng, 2, 2, max_members=2, max_depth=1)
    for _ in range(8):
        other = random_members(rng, 2, 2, max_members=2, max_depth=1)
        op = rng.randrange(5)
        if op == 0:
            g = g.complement()
        elif op == 1:
            g = g + other if rng.randrange(2) else other + g
        elif op == 2 and g.guess_count * other.guess_count <= 64 and g.closed_depth <= 6:
            g = g * other if rng.randrange(2) else other * g
        elif op == 3 and g.guess_count <= 64:
            g = g.repeat(rng.randrange(2, 4))
        else:
            g = normalize_nonzero(g) if g.guess_count <= 64 else g + g
    return g


def test_guess_count_algebra():
    rng = random.Random(23)
    g1 = random_members(rng, 2, 2)
    g2 = random_members(rng, 2, 2)
    assert g1.complement().guess_count == g1.guess_count
    assert (g1 + g2).guess_count == g1.guess_count + g2.guess_count
    assert (g1 * g2).guess_count == g1.guess_count * g2.guess_count
    assert g1.repeat(4).guess_count == 4 * g1.guess_count


def test_domain_mismatch_rejected():
    g1 = always_accept(2, 2)
    g2 = always_accept(2, 3)
    with pytest.raises(DomainMismatchError, match="domain mismatch: 2x2 vs 2x3"):
        g1 + g2
    with pytest.raises(DomainMismatchError, match="domain mismatch: 2x2 vs 2x3"):
        g1 * g2


@pytest.mark.parametrize("count", [0, -1])
def test_repeat_count_must_be_positive(count):
    with pytest.raises(ValueError, match="repeat count must be at least 1"):
        always_accept(2, 2).repeat(count)


def test_pp_semantics_and_cost():
    g = always_accept(2, 2)
    assert pp_matrix(g).entries == ((1, 1), (1, 1))
    assert pp_matrix(always_reject(2, 2)).entries == ((0, 0), (0, 0))
    assert pp_eval(g, 0, 1) == 1
    assert pp_cost(g) == 0

    member = DeterministicProtocol(
        2, 2, Node(ALICE, (0, 1), Leaf(0), OutputLeaf(BOB, (1, 0)))
    )
    five = MemberProtocols((member,) * 5)
    assert pp_cost(five) == ceil_log2(5) + 1  # 3 + depth 1
    assert pp_cost_closed(five) == ceil_log2(5) + 2  # output leaf charged


def test_flatten_guard():
    # one node per member: the guess count alone crosses the limit
    with pytest.raises(SizeGuardError, match=f"limit {MATERIALIZE_LIMIT} "):
        always_accept(2, 2).repeat(MATERIALIZE_LIMIT + 1).flatten()
    # closed cost 1 bounds each member by 3 nodes, so fewer guesses cross it
    member = wrap_deterministic(
        DeterministicProtocol(2, 2, Node(ALICE, (0, 1), Leaf(0), Leaf(1)))
    )
    guesses = MATERIALIZE_LIMIT // 3 + 1
    with pytest.raises(SizeGuardError, match=f"{guesses} guesses"):
        member.repeat(guesses).flatten()
    assert len(member.repeat(4).flatten().member_tuple) == 4
    # a single guess of closed cost 20 may have 2^21 - 1 nodes
    power = member
    for _ in range(19):
        power = power * member
    assert (power.guess_count, power.closed_depth) == (1, 20)
    with pytest.raises(SizeGuardError, match="closed cost 20"):
        power.flatten()


def test_flatten_deep_sum_chain():
    # (((p_0 + p_1) + p_2) + ...) + p_1499, one sum level per part; the
    # member walk keeps the parts' order without recursing per level
    bits = [1 if i % 3 else 0 for i in range(1500)]
    chain = reduce(operator.add, [leaf_protocol(2, 2, bit) for bit in bits])
    members = chain.flatten().member_tuple
    assert [m.root.bit for m in members] == bits
    assert chain.gap == ((1000 - 500,) * 2,) * 2


def _agree(a: int, b: int) -> int:
    # a product member of two leaves accepts exactly when they agree
    return int(a == b)


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_flatten_deep_product_chain(nesting):
    # 1,500 cost-0 factors, three of them two-member sums, multiplied as
    # ((F_0 * F_1) * F_2) * ... or F_0 * (F_1 * (F_2 * ...)); the member
    # walk keeps the left-member-outermost order without recursing per level
    rng = random.Random(31)
    factors = [[rng.randrange(2)] for _ in range(1500)]
    for i in (0, 700, 1499):
        factors[i] = [1, 0]
    protocols = [
        reduce(operator.add, [leaf_protocol(2, 2, bit) for bit in bits])
        for bits in factors
    ]
    if nesting == "left":
        chain = reduce(operator.mul, protocols)
        expected = reduce(
            lambda acc, bits: [_agree(a, b) for a in acc for b in bits], factors
        )
    else:
        chain = reduce(lambda acc, g: g * acc, reversed(protocols))
        expected = reduce(
            lambda acc, bits: [_agree(a, b) for a in bits for b in acc],
            reversed(factors),
        )
    members = chain.flatten().member_tuple
    assert [m.root.bit for m in members] == expected
    assert chain.guess_count == 8


def test_flatten_deep_repeat_and_complement_chains():
    base = leaf_protocol(2, 2, 1) + leaf_protocol(2, 2, 0)
    repeated = base
    for level in range(1500):
        repeated = RepeatProtocol(repeated, 2 if level in (3, 900) else 1)
    members = repeated.flatten().member_tuple
    assert [m.root.bit for m in members] == [1, 0] * 4
    flipped = base + leaf_protocol(2, 2, 1)
    for _ in range(1501):
        flipped = ComplementProtocol(flipped)
    assert [m.root.bit for m in flipped.flatten().member_tuple] == [0, 1, 0]
    assert flipped.gap == ((-1, -1), (-1, -1))


def test_threshold_round_trip():
    rng = random.Random(29)
    for _ in range(60):
        g = random_members(rng, rng.randrange(2, 4), rng.randrange(2, 4), max_members=4)
        acc, threshold = pp_to_threshold(g)
        assert threshold == g.guess_count // 2
        rebuilt = threshold_to_pp(g, threshold)
        assert pp_matrix(rebuilt) == pp_matrix(g)
        for x in range(g.rows):
            for y in range(g.cols):
                assert (acc[x][y] > threshold) == bool(
                    pp_matrix(g).entries[x][y]
                )


def test_threshold_to_pp_strictness():
    # acc = threshold must reject; only strict excess accepts
    g = MemberProtocols(
        (
            DeterministicProtocol(1, 1, Leaf(1)),
            DeterministicProtocol(1, 1, Leaf(0)),
        )
    )
    assert pp_matrix(threshold_to_pp(g, 1)).entries == ((0,),)
    assert pp_matrix(threshold_to_pp(g, 0)).entries == ((1,),)


def test_normalize_nonzero():
    rng = random.Random(31)
    for _ in range(30):
        g = random_members(rng, 2, 2, max_members=3)
        n = normalize_nonzero(g)
        for x in range(2):
            for y in range(2):
                assert n.gap[x][y] != 0
                assert (n.gap[x][y] > 0) == (g.gap[x][y] > 0)


def test_enumerate_protocols_depth_one():
    protos = list(enumerate_protocols(2, 2, 1))
    # 2 leaves + 2 speakers * 4 tables * 4 leaf pairs
    assert len(protos) == 34
    assert len({p.root for p in protos}) == 34
    with pytest.raises(SizeGuardError):
        list(enumerate_protocols(5, 2, 1))
    with pytest.raises(SizeGuardError):
        list(enumerate_protocols(2, 2, 4))


def test_serialization_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        g = random_guess(rng, 3, 2)
        flat = g.flatten()
        assert loads_protocol(dumps_protocol(g)).member_tuple == flat.member_tuple
    with pytest.raises(ValueError):
        loads_protocol('{"rows": 2, "cols": 2, "guesses": [{"nonsense": 1}]}')


def test_wrap_deterministic():
    p = grid_protocol(2, 2, ((1, 0), (0, 1)))
    g = wrap_deterministic(p)
    assert g.guess_count == 1
    assert pp_matrix(g).entries == ((1, 0), (0, 1))
