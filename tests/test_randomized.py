"""Randomized acceptance, majority amplification, and the error game."""

import copy
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cclab import compilers, randomized
from cclab.compilers import _MajorityParts, compile_majority
from cclab.matrices import BooleanMatrix, DomainMismatchError, SizeGuardError
from cclab.pipeline import boundary_fixture, run_pipeline
from cclab.protocols import (
    ComplementProtocol,
    ProductProtocol,
    RepeatProtocol,
    SumProtocol,
    always_accept,
    always_reject,
    enumerate_protocols,
    grid_protocol,
    normalize_nonzero,
    pp_cost,
    pp_cost_closed,
    wrap_deterministic,
)
from cclab.randomized import (
    RandomizedPPProtocol,
    SparsifyRetryError,
    amplify,
    majority_success_bound,
    minimax_error_check,
    sparsify_support,
    uniform_support,
)
from cclab.suites import error_third_protocol, suite_majority_amplify
from test_compilers import _reachable


def _identity2():
    return BooleanMatrix.from_rows([(1, 0), (0, 1)])


def test_support_validation():
    with pytest.raises(ValueError):
        RandomizedPPProtocol(())
    g = always_accept(2, 2)
    with pytest.raises(ValueError):
        RandomizedPPProtocol(((g, Fraction(1, 2)),))  # sums to 1/2
    with pytest.raises(ValueError):
        RandomizedPPProtocol(((g, Fraction(-1, 2)), (g, Fraction(3, 2))))
    with pytest.raises(ValueError):
        RandomizedPPProtocol(
            ((g, Fraction(1, 2)), (always_accept(2, 3), Fraction(1, 2)))
        )


def test_support_refuses_float_probabilities():
    # as floats, 1/3 + 1/3 + (1 - 2/3) sums to 1, but the error came out as
    # 0.33333333333333337 and amplify's weights as floats
    members = [g for g, _ in error_third_protocol()[0].support]
    floats = (1 / 3, 1 / 3, 1 - 2 / 3)
    with pytest.raises(ValueError, match=r"^probabilities must be Fractions, got 0\.333"):
        RandomizedPPProtocol(tuple(zip(members, floats)))
    with pytest.raises(ValueError, match="probabilities must be Fractions, got 1$"):
        RandomizedPPProtocol(((members[0], 1),))


def test_per_input_error_exact():
    f = _identity2()
    rp = uniform_support([always_accept(2, 2), always_reject(2, 2)])
    # each input is wrong under exactly one of the two members
    assert rp.per_input_error(f) == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    )
    assert rp.error(f) == Fraction(1, 2)


def test_deterministic_support_is_errorless_on_its_own_matrix():
    g = wrap_deterministic(grid_protocol(2, 2, ((1, 0), (0, 1))))
    rp = uniform_support([g])
    assert rp.error(_identity2()) == 0
    assert rp.cost() >= 0


def test_majority_success_bound_frozen_values():
    b3 = majority_success_bound(Fraction(1, 6), 3)
    b5 = majority_success_bound(Fraction(1, 6), 5)
    assert float(b3) == 0.5809737592968607
    assert float(1 - b3) == 0.41902624070313926
    assert float(1 - b5) == 0.3724677695139016
    assert b5 > b3 > Fraction(1, 2)
    # directed rounding: the rational bound never exceeds the true
    # 1 - (1/2)(4pq)^(t/2), here with 4pq = 8/9
    failure3 = 2 * (1 - b3)
    assert failure3**2 >= Fraction(8, 9) ** 3


def test_majority_success_bound_validation():
    with pytest.raises(ValueError):
        majority_success_bound(Fraction(1, 6), 2)
    with pytest.raises(ValueError):
        majority_success_bound(Fraction(2, 3), 3)


def test_boundary_fixture_amplification():
    rp, target = error_third_protocol()
    assert rp.error(target) == Fraction(1, 3)
    amped3 = amplify(rp, 3)
    assert amped3.error(target) == Fraction(7, 27)
    # majority of three votes at per-input success 2/3 succeeds with 20/27
    assert 1 - Fraction(7, 27) == Fraction(20, 27)
    assert len(amped3.support) == 10  # multisets of size 3 from 3 members
    amped5 = amplify(rp, 5)
    assert amped5.error(target) == Fraction(17, 81)
    assert len(amped5.support) == 21
    for t, amped in ((3, amped3), (5, amped5)):
        bound = 1 - majority_success_bound(Fraction(1, 6), t)
        assert amped.error(target) <= bound
    # P[Bin(t, 1/3) > t/2]: the majority errs where most of the t votes err
    assert amplify(rp, 7).error(target) == Fraction(379, 2187)
    assert amplify(rp, 9).error(target) == Fraction(2851, 19683)


def _fields(g):
    return g.gap, g.guess_count, g.costs, pp_cost_closed(g)


def _mixed_cost_protocol():
    # normalized member costs 2, 3 and 4, so multisets differ in their form
    ident = wrap_deterministic(grid_protocol(2, 2, ((1, 0), (0, 1))))
    reject = always_reject(2, 2)
    return uniform_support([always_accept(2, 2), ident, reject + reject + ident])


FIXTURES = {
    "third": lambda: error_third_protocol()[0],
    "boundary": lambda: run_pipeline(*boundary_fixture()).protocol,
    "mixed-cost": _mixed_cost_protocol,
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("t", [3, 5, 7])
def test_amplify_shared_parts_match_unshared_compiles(fixture, t):
    rp = FIXTURES[fixture]()
    amped = amplify(rp, t)
    expected = []
    for key in combinations_with_replacement(range(len(rp.support)), t):
        weight = Fraction(math.factorial(t))
        for i in set(key):
            c = key.count(i)
            weight = weight / math.factorial(c) * rp.support[i][1] ** c
        if weight:
            # every position gets its own deep copy, so nothing is shared
            members = [copy.deepcopy(rp.support[i][0]) for i in key]
            expected.append((compile_majority(members), weight))
    assert len(amped.support) == len(expected)
    for (got, got_weight), (want, want_weight) in zip(amped.support, expected):
        assert got_weight == want_weight
        assert _fields(got) == _fields(want)


def _products(roots):
    return {
        key for key, node in _reachable(roots).items() if isinstance(node, ProductProtocol)
    }


@pytest.fixture
def memos(monkeypatch):
    """Every `_MajorityParts` that `amplify` makes."""
    made = []

    class RecordedParts(_MajorityParts):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(randomized, "_MajorityParts", RecordedParts)
    return made


@pytest.mark.parametrize("fixture", ["mixed-cost", "third"])
def test_amplify_shares_majority_prefixes(fixture, memos):
    rp, t = FIXTURES[fixture](), 5
    amped = amplify(rp, t)
    keys = list(combinations_with_replacement(range(len(rp.support)), t))
    assert len(amped.support) == len(keys)
    separate = sum(
        len(_products([compile_majority([rp.support[i][0] for i in key])]))
        for key in keys
    )
    assert len(_products([g for g, _ in amped.support])) < separate
    # above the shared member parts, each distinct (form, member prefix) of
    # two or more members adds three products and each multiset one more
    (memo,) = memos
    parts = [p for pair in memo._parts.values() for p in pair]
    chains = _products([g for g, _ in amped.support]) - _products(parts)
    costs = [pp_cost(normalize_nonzero(g)) for g, _ in rp.support]
    prefixes = {
        (max(costs[i] for i in key), key[:n]) for key in keys for n in range(2, t + 1)
    }
    assert len(chains) == 3 * len(prefixes) + len(keys) < len(keys) * (3 * t - 2)


def test_lazy_parts_match_their_term_trees(memos, monkeypatch):
    # each part's gap comes from the majority form's evaluation, its count
    # and costs from the polynomial's terms; its term tree, built here,
    # must agree for every (member, form) that these majorities reach
    monkeypatch.setattr(compilers, "_MajorityParts", randomized._MajorityParts)
    suite_majority_amplify(0)
    for name in sorted(FIXTURES):
        for t in (3, 5, 7, 9):
            amplify(FIXTURES[name](), t)
    parts = [p for memo in memos for pair in memo._parts.values() for p in pair]
    assert len(parts) > 300
    for part in parts:
        (tree,) = part.children
        assert (part.gap, part.guess_count, part.costs) == (
            tree.gap,
            tree.guess_count,
            tree.costs,
        )


def test_amplify_builds_no_term_tree_until_walked(memos, monkeypatch):
    built = Counter()
    for cls in (SumProtocol, RepeatProtocol, ComplementProtocol):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    amped = amplify(FIXTURES["third"](), 9)
    (memo,) = memos
    # normalize_nonzero makes one repeat and one sum per member; above the
    # parts, each Horner step past a prefix's first adds one sum and each
    # majority its (N + D)
    normalized = len(memo._members)
    steps = sum(len(prefix) > 1 for prefix in memo._chains)
    assert built == {
        "RepeatProtocol": normalized,
        "SumProtocol": normalized + steps + len(amped.support),
    }
    parts = [p for pair in memo._parts.values() for p in pair]
    assert not any("children" in vars(p) for p in parts)
    # a member walk starts by reading children, which builds the term trees
    for part in parts:
        part.children
    assert built["ComplementProtocol"] > 0
    assert built["RepeatProtocol"] > normalized


def test_compile_majority_repeated_member_matches_copy():
    rp, _ = error_third_protocol()
    a, b = rp.support[0][0], rp.support[1][0]
    shared = compile_majority([a, a, b])
    unshared = compile_majority([a, copy.deepcopy(a), b])
    assert _fields(shared) == _fields(unshared)
    # the denominator (D(a) * D(a)) * D(b) reuses one D(a) object
    left_pair = shared.right.left
    assert left_pair.left is left_pair.right
    assert unshared.right.left.left is not unshared.right.left.right


def test_amplify_validation():
    rp, _ = error_third_protocol()
    with pytest.raises(ValueError):
        amplify(rp, 2)
    with pytest.raises(ValueError):
        amplify(rp, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: amplify(error_third_protocol()[0], 11),
            "product support would have 3^11 tuples (limit 100000)",
        ),
        (
            lambda: sparsify_support(*error_third_protocol(), Fraction(1, 6), 100_001),
            "sparsify sample of 100001 draws (limit 100000)",
        ),
        (
            lambda: compile_majority([always_accept(2, 2)] * 27),
            "majority size capped at 25, got 27",
        ),
        (
            lambda: compile_majority([always_accept(2, 2).repeat(2**32)] * 3),
            "normalized member cost 34 exceeds the cap 32",
        ),
    ],
    ids=["AMPLIFY_TUPLE_LIMIT", "sparsify", "MAJORITY_MAX_K", "MAJORITY_MAX_COST"],
)
def test_amplify_guards_raise_size_guard_error(build, message):
    with pytest.raises(SizeGuardError) as refused:
        build()
    assert str(refused.value) == message


def test_sparsify_support():
    rp, target = error_third_protocol()
    amped = amplify(rp, 3)
    sparse, search = sparsify_support(amped, target, Fraction(1, 6), 32, seed=0)
    assert len(sparse.support) <= 32
    assert sparse.error(target) <= amped.error(target) + Fraction(1, 6)
    assert search["attempts"] >= 1
    # every support probability is a multiple of 1/32
    for _, prob in sparse.support:
        assert prob.denominator <= 32


def test_sparsify_support_gives_up_after_max_attempts(monkeypatch):
    rp, target = error_third_protocol()
    monkeypatch.setattr(randomized, "SPARSIFY_MAX_ATTEMPTS", 1)
    # a single member errs with certainty somewhere, above the budget 1/3
    with pytest.raises(SparsifyRetryError, match=r"in 1 attempts") as excinfo:
        sparsify_support(rp, target, Fraction(0), 1, seed=0)
    assert excinfo.value.measured_errors == [Fraction(1)]


def test_minimax_error_check_hand_value():
    f = _identity2()
    family = [always_accept(2, 2), always_reject(2, 2)]
    report = minimax_error_check(f, family)
    # accepting errs on the two off-diagonal inputs, rejecting on the two
    # diagonal ones; balanced mass on one of each pins every mixture at 1/2
    assert report["value"] == Fraction(1, 2)
    assert report["difference"] == 0
    assert report["primal_value"] == report["dual_value"]


def test_error_and_the_error_game_refuse_a_matrix_of_another_shape():
    g = always_accept(2, 2)
    wide = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 0)])
    with pytest.raises(DomainMismatchError, match="domain mismatch: 2x3 vs 2x2"):
        uniform_support([g]).error(wide)
    with pytest.raises(DomainMismatchError, match="domain mismatch: 2x3 vs 2x2"):
        minimax_error_check(wide, [g])


def test_minimax_exact_duality_on_enumerated_family():
    pool = [wrap_deterministic(p) for p in enumerate_protocols(2, 2, 1)]
    f = BooleanMatrix.from_rows([(1, 1), (0, 1)])
    report = minimax_error_check(f, pool[:8])
    assert report["difference"] == 0
    assert 0 <= report["value"] <= 1
