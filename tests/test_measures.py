"""Discrepancy, margin complexity, the cost lower bound, and the
perturbation operator."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.matrices import (
    BooleanMatrix,
    InputDistribution,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
)
from cclab import measures
from cclab.measures import (
    BpGame,
    HighsGame,
    MeasureFn,
    _numerators,
    _separate,
    best_rectangle,
    bp_measure,
    check_cost_discrepancy_bound,
    check_margin_discrepancy_sandwich,
    disc,
    disc_mu,
    disc_prime,
    entry_count_measure,
    family_cost_measure,
    inverse_disc_log_measure,
    margin_bracket,
    margin_measure,
    mc,
    mc_prime,
)
from cclab.invariants import InvariantError
from cclab.lp import maximize_min
from cclab.pipeline import cell_polynomial, counting_protocol
from cclab.protocols import (
    enumerate_protocols,
    grid_protocol,
    pp_matrix,
    threshold_to_pp,
    wrap_deterministic,
)
from cclab.suites import random_sign_matrix


def _parity2():
    return SignMatrix.from_rows([(1, -1), (-1, 1)])


def _hadamard2():
    return SignMatrix.from_rows([(1, 1), (1, -1)])


def test_disc_parity_quarter():
    result = disc(_parity2())
    assert result.value == Fraction(1, 4)
    # the optimal distribution is uniform and a single cell achieves 1/4
    assert disc_mu(_parity2(), InputDistribution.uniform(2, 2)) == Fraction(1, 4)
    value, rect = best_rectangle(_parity2(), result.distribution)
    assert value == Fraction(1, 4)
    assert len(rect.row_set) * len(rect.col_set) >= 1


def test_disc_hadamard_third():
    # mu = (0, 1/3, 1/3, 1/3) beats uniform on [[+,+],[+,-]]
    assert disc(_hadamard2()).value == Fraction(1, 3)


def test_disc_all_ones_is_one():
    ones = SignMatrix.from_rows([(1, 1), (1, 1)])
    assert disc(ones).value == 1


def test_disc_sylvester4():
    h4 = SignMatrix.from_rows(
        [
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        ]
    )
    assert disc(h4).value == Fraction(1, 6)


def _witness_weight(A, result):
    return sum(
        result.distribution.weights[x][y] * A.entries[x][y]
        for x, y in result.witness.cells()
    )


def test_disc_sylvester8():
    # took 55 s when the exact simplex re-solved every working set
    h2 = [[1, 1], [1, -1]]
    h8 = SignMatrix.from_rows(
        [[a * b * c for a in r1 for b in r2 for c in r3] for r1 in h2 for r2 in h2 for r3 in h2]
    )
    result = disc(h8)
    assert result.value == Fraction(5, 56)
    assert abs(_witness_weight(h8, result)) == result.value


def test_disc_4x10():
    # took about 9 minutes: 38 exact re-solves after the first had the value
    A = SignMatrix.from_rows(
        [
            [1 if c == "+" else -1 for c in row]
            for row in ("+-+--+++++", "-++++-+--+", "-+--++++--", "---+-++---")
        ]
    )
    result = disc(A)
    assert result.value == Fraction(1, 8)
    assert abs(_witness_weight(A, result)) == result.value


def _counting(monkeypatch, name):
    # every call of measures.<name>, which the module looks up when it calls
    calls = []
    solve = getattr(measures, name)
    monkeypatch.setattr(measures, name, lambda *args: calls.append(args) or solve(*args))
    return calls


def _sign_matrices(max_side: int):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda s: st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        )
    )


@settings(max_examples=40, deadline=None)
@given(_sign_matrices(5))
def test_disc_certificate_matches_the_simplex(entries):
    # the basis certificate settles disc alone, at the simplex's value
    A = SignMatrix.from_rows(entries)
    with pytest.MonkeyPatch.context() as patch:
        solved = _counting(patch, "minimize_max")
        certified = disc.__wrapped__(A)
        assert solved == []
        patch.setattr(HighsGame, "tight_basis", lambda game: None)
        simplex = disc.__wrapped__(A)
        assert solved
    assert certified.value == simplex.value
    assert best_rectangle(A, certified.distribution)[0] == certified.value
    assert abs(_witness_weight(A, certified)) == certified.value


@pytest.mark.parametrize(
    "basis",
    [None, ([0], []), ([0, 0], [0, 0]), ([0], [0]), "prefix-game"],
    ids=["no-basis", "not-square", "singular", "repeated-cut", "prefix-game"],
)
def test_disc_falls_back_to_the_simplex(monkeypatch, basis):
    # ([0], [0]) certifies only L = 0 < U = 1, and U's cut is cell (0, 0),
    # already a row of the game
    if basis == "prefix-game":
        # a prefix game with no basis takes the maximize_min side
        bits = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=np.int64)
        monkeypatch.setattr(HighsGame, "tight_basis", lambda game: None)
        solved = _counting(monkeypatch, "maximize_min")
        value, weights = measures._prefix_game(bits, len(bits))
        assert value == Fraction(1, 3)
        assert solved
        assert min(bits @ np.array(weights, dtype=object)) == value
        return
    h4 = SignMatrix.from_rows(
        [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    )
    monkeypatch.setattr(HighsGame, "tight_basis", lambda game: basis)
    solved = _counting(monkeypatch, "minimize_max")
    result = disc.__wrapped__(h4)
    assert result.value == Fraction(1, 6)
    # one certificate tried, then the simplex rounds
    assert len(solved) == result.iterations - 1 > 0
    assert abs(_witness_weight(h4, result)) == result.value


def test_disc_fallback_settles_a_random_7x7_in_few_rounds(monkeypatch):
    # with no basis to certify, each round is one exact simplex solve on the
    # rows tight at the float optimum; the game simplex settles this game in
    # 9 rounds, where a two-phase simplex took 42
    a = random_sign_matrix(random.Random(107), 7, 7)
    monkeypatch.setattr(HighsGame, "tight_basis", lambda game: None)
    result = disc.__wrapped__(a)
    assert result.value == Fraction(1, 8)
    assert result.iterations <= 15
    assert abs(_witness_weight(a, result)) == result.value


_prefixes = st.integers(2, 6).flatmap(
    lambda cells: st.lists(
        st.lists(st.integers(0, 1), min_size=cells, max_size=cells),
        min_size=1,
        max_size=40,
    )
).flatmap(lambda bits: st.tuples(st.just(bits), st.integers(1, len(bits))))


@settings(max_examples=80, deadline=None)
@given(_prefixes)
def test_prefix_game_certificate_matches_the_simplex(case):
    # the basis certificate settles a prefix game alone, at the value of
    # the exact simplex on the whole prefix, and its weights attain it
    bits, prefix = case
    bits = np.array(bits, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        solved = _counting(patch, "maximize_min")
        value, weights = measures._prefix_game(bits, prefix)
        assert solved == []
    assert value == maximize_min(bits[:prefix].T.tolist())[0]
    assert sum(weights) == 1 and min(weights) >= 0
    assert min(bits[:prefix] @ np.array(weights, dtype=object)) == value


_masks = st.integers(0, 6).flatmap(
    lambda cells: st.tuples(
        st.just(cells),
        st.one_of(
            st.lists(
                st.integers(0, 2**cells - 1), min_size=1, max_size=40, unique=True
            ),
            # every mask at least twice, in shuffled order
            st.lists(st.integers(0, 2**cells - 1), min_size=1, max_size=20)
            .map(lambda m: m + m[::-1])
            .flatmap(st.permutations),
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(_masks)
def test_first_proper_subsets_match_brute_force(case):
    cells, masks = case
    below = measures._first_proper_subsets(np.array(masks, dtype=np.int64), cells)
    assert below.tolist() == [
        next((i for i, a in enumerate(masks) if (a & b) == a and a != b), len(masks))
        for b in masks
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2)]).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.permutations(range(2 ** (shape[0] * shape[1]))),
            st.integers(0, 2 ** (shape[0] * shape[1]) - 1),
            st.integers(1, 2 ** (shape[0] * shape[1])),
        )
    )
)
def test_minimal_rows_keep_the_prefix_game(case):
    # with the candidates in a random measure order, a prefix game on the
    # rows `BpGame` keeps has the value of the exact simplex on the whole
    # prefix, and its weights attain that value on the whole prefix
    shape, ranks, f_index, prefix = case
    matrices = list(all_boolean_matrices(*shape))
    rank = {g.entries: r for g, r in zip(matrices, ranks)}
    game = BpGame(MeasureFn("ranked", lambda g: rank[g.entries]), *shape)
    f = matrices[f_index]
    bits, below = game._differences(f)
    value, weights = game._game(f, bits, below, prefix)
    assert value == maximize_min(bits[:prefix].T.tolist())[0]
    assert min(bits[:prefix] @ np.array(weights, dtype=object)) == value


def test_half_full_3x4_prefix_games_stay_small(monkeypatch):
    # the 3x4 game holds 4,096 candidates; only minimal difference rows
    # reach a prefix game
    games = _counting(monkeypatch, "_prefix_game")
    f = BooleanMatrix.from_rows([(0, 0, 1, 1), (1, 1, 0, 1), (0, 0, 1, 0)])
    game = BpGame(entry_count_measure(), 3, 4)
    for eps in (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        game.solve(f, eps)
    assert games
    assert max(len(bits[:prefix]) for bits, prefix in games) <= 32


def test_disc_certificate_is_self_consistent():
    rng = random.Random(61)
    for _ in range(10):
        A = random_sign_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        result = disc(A)
        # the returned distribution achieves the value: separation equals it
        achieved, _ = best_rectangle(A, result.distribution)
        assert achieved == result.value
        assert disc_mu(A, result.distribution) == result.value


def test_disc_prime_is_disc_of_sign_version():
    rng = random.Random(67)
    for _ in range(6):
        B = BooleanMatrix.from_rows(
            [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        )
        assert disc_prime(B).value == disc(B.to_sign()).value


def _rectangle_weight(A, mu, rows, cols):
    cells = (mu.weights[x][y] * A.entries[x][y] for x in rows for y in cols)
    return sum(cells, Fraction(0))


def _random_distribution(rng, rows, cols, den):
    raw = [rng.choice((0, 0, 1, 2, 3)) for _ in range(rows * cols)]
    raw[rng.randrange(rows * cols)] += 1
    flat = [Fraction(k * den // sum(raw), den) for k in raw]
    flat[-1] += 1 - sum(flat)
    return InputDistribution(
        rows, cols, tuple(tuple(flat[x * cols : (x + 1) * cols]) for x in range(rows))
    )


def _check_against_brute_force(A, mu):
    value, rect = best_rectangle(A, mu)
    rows, cols = (
        [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        for n in (A.rows, A.cols)
    )
    brute = max(abs(_rectangle_weight(A, mu, r, c)) for r in rows for c in cols)
    assert value == brute
    assert abs(_rectangle_weight(A, mu, rect.row_set, rect.col_set)) == value


def test_best_rectangle_matches_brute_force():
    rng = random.Random(71)
    for rows, cols in [(5, 2)] + [
        (rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(40)
    ]:
        A = random_sign_matrix(rng, rows, cols)
        _check_against_brute_force(A, InputDistribution.uniform(rows, cols))
        _check_against_brute_force(A, _random_distribution(rng, rows, cols, 1000))


def test_best_rectangle_denominator_beyond_int64():
    den = 2**89 - 1  # prime, so the numerators need Python ints
    rng = random.Random(73)
    mu = _random_distribution(rng, 4, 3, den)
    nums, common = _numerators([w for row in mu.weights for w in row])
    assert common == den and nums.dtype == object
    _check_against_brute_force(random_sign_matrix(rng, 4, 3), mu)


def _loop_separate(A, w):
    """The scan `_separate` vectorises: subsets of the smaller side in
    order, sums taken line by line in ascending order, first strict best."""
    transpose = A.rows > A.cols
    m, n = sorted((A.rows, A.cols))
    best = (0, Rectangle((), ()), 1)
    for mask in range(1 << m):
        fixed = tuple(i for i in range(m) if mask >> i & 1)
        totals = [0] * n
        for j in range(n):
            for i in fixed:
                x, y = (j, i) if transpose else (i, j)
                totals[j] += w[x * A.cols + y] * A.entries[x][y]
        for sign in (1, -1):
            lines = tuple(j for j in range(n) if sign * totals[j] > 0)
            value = 0
            for j in lines:
                value += sign * totals[j]
            if value > best[0]:
                sides = (lines, fixed) if transpose else (fixed, lines)
                best = (value, Rectangle(*sides), sign)
    return best


def test_separate_matches_the_loop_scan():
    # same sums in the same order: equal floats and the same tie-breaks
    rng = random.Random(83)
    for _ in range(40):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        A = random_sign_matrix(rng, rows, cols)
        w = [rng.choice((0.0, 1.0, rng.random())) for _ in range(rows * cols)]
        w = [x / (sum(w) or 1.0) for x in w]
        assert _separate(A, np.array(w)) == _loop_separate(A, w)
        # float sums of k/64 are exact, so both kernels give the same answer
        mu = _random_distribution(rng, rows, cols, 64)
        flat = [x for row in mu.weights for x in row]
        nums, den = _numerators(flat)
        value, rect, sign = _separate(A, nums)
        floating = _separate(A, np.array([float(x) for x in flat]))
        assert (Fraction(int(value), den), rect, sign) == _loop_separate(A, flat)
        assert (float(floating[0]), *floating[1:]) == (value / den, rect, sign)


def test_mc_hadamard_sqrt2():
    realization = mc(_hadamard2())
    assert abs(realization.value - math.sqrt(2)) / math.sqrt(2) < 0.05
    assert realization.check(_hadamard2())


def test_mc_parity_is_one():
    realization = mc(_parity2())
    assert abs(realization.value - 1.0) < 0.01
    assert realization.check(_parity2())


def test_mc_realization_check_rejects_wrong_matrix():
    realization = mc(_hadamard2())
    assert not realization.check(_parity2())


@settings(max_examples=40, deadline=None)
@given(_sign_matrices(8), st.integers(0, 2**32 - 1))
def test_mc_is_certified_below_the_axis_value_and_seeded(entries, seed):
    A = SignMatrix.from_rows(entries)
    realization = mc(A, seed=seed)
    assert realization.check(A)
    assert realization.value <= math.sqrt(min(A.rows, A.cols)) * (1 + 1e-12)
    assert realization.restarts_used == 1
    assert mc(A, seed=seed) == realization


def test_mc_sylvester_hadamard_is_root_n():
    h = [[1]]
    for n in (2, 4, 8):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
        assert abs(mc(SignMatrix.from_rows(h)).value - math.sqrt(n)) <= 1e-9


def test_mc_rank_one_is_exactly_one():
    rng = random.Random(101)
    for _ in range(20):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        left = [rng.choice((1, -1)) for _ in range(rows)]
        right = [rng.choice((1, -1)) for _ in range(cols)]
        A = SignMatrix.from_rows([[a * b for b in right] for a in left])
        realization = mc(A)
        assert (realization.value, realization.margin) == (1.0, 1.0)
        assert realization.check(A)


def test_mc_wide_matrix_uses_its_smaller_side():
    # the 2 rows give sqrt(2); realizing the 7 columns gave sqrt(7)
    A = random_sign_matrix(random.Random(2), 2, 7)
    assert mc(A).value <= math.sqrt(2) * (1 + 1e-12)


def test_realization_check_is_exact():
    # a margin of 1 - 2^-52 is refused, although it is within 1e-9 of 1
    below = measures.MarginRealization(((1.0 - 2.0**-52,),), ((1.0,),), 1.0, 1.0, 1)
    assert not below.check(SignMatrix.from_rows([[1]]))
    exact = measures.MarginRealization(((0.5, 0.5),), ((1.0, 1.0),), 1.0, 1.0, 1)
    assert exact.check(SignMatrix.from_rows([[1]]))
    assert not exact.check(SignMatrix.from_rows([[-1]]))


@settings(max_examples=60, deadline=None)
@given(_sign_matrices(6).filter(lambda rows: min(len(rows), len(rows[0])) >= 2))
def test_mc_value_bounds_the_exact_norm_product(entries):
    # `value` is a float, but never below the exact product of the largest
    # norms of the vectors reported, and at most a few ulps above it
    realization = mc(SignMatrix.from_rows(entries))
    rows, cols = (
        max(sum(Fraction(v) ** 2 for v in x) for x in side)
        for side in (realization.row_vectors, realization.col_vectors)
    )
    norms = rows * cols
    assert Fraction(realization.value) ** 2 >= norms
    assert realization.value <= math.sqrt(norms) * (1 + 2**-50)


def test_margin_discrepancy_sandwich():
    for A in (_hadamard2(), _parity2()):
        report = check_margin_discrepancy_sandwich(A)
        assert Fraction(1, 8) - Fraction(1, 10**9) <= report["product"] <= 8.001
    rng = random.Random(71)
    for _ in range(5):
        A = random_sign_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        report = check_margin_discrepancy_sandwich(A)
        assert not report["mc_exceeds_bracket"]


def test_margin_bracket_edges():
    third = Fraction(1, 3)
    assert margin_bracket(1.0, third) == (Fraction(3, 8), Fraction(24), True)
    assert margin_bracket(24.0 + 5e-7, third)[2]
    assert not margin_bracket(24.0 + 2e-6, third)[2]
    assert margin_bracket(0.375 - 5e-10, third)[2]
    assert not margin_bracket(0.375 - 2e-9, third)[2]


def test_margin_sandwich_failure_carries_its_report(monkeypatch):
    # a realization value above 8/disc fails the check, report attached
    real = measures.mc
    monkeypatch.setattr(
        measures,
        "mc",
        lambda A, **kw: dataclasses.replace(real(A, **kw), value=100.0),
    )
    with pytest.raises(InvariantError) as failure:
        check_margin_discrepancy_sandwich(_hadamard2())
    assert failure.value.report["mc_exceeds_bracket"]
    assert failure.value.report["mc_upper_bound"] == 100.0


def test_cost_discrepancy_bound_on_pipeline_protocols():
    rng = random.Random(73)
    for _ in range(4):
        f = BooleanMatrix.from_rows(
            [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        )
        g = threshold_to_pp(*counting_protocol(cell_polynomial(f)))
        report = check_cost_discrepancy_bound(f, g)
        assert report["lower_bound_holds"]
        assert report["pp_cost"] <= report["pp_cost_closed"]


def test_cost_discrepancy_bound_worked_example():
    # [[0,1],[1,0]] has disc' = 1/4, so any protocol needs 2 closed bits
    f = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    g = threshold_to_pp(*counting_protocol(cell_polynomial(f)))
    report = check_cost_discrepancy_bound(f, g)
    assert report["disc_prime"] == Fraction(1, 4)
    assert report["log2_inverse_disc"] == 2.0
    assert report["pp_cost_closed"] >= 2


def test_cost_discrepancy_bound_precondition():
    f = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    wrong = wrap_deterministic(grid_protocol(2, 2, ((1, 1), (1, 1))))
    with pytest.raises(ValueError):
        check_cost_discrepancy_bound(f, wrong)


def test_bp_worked_example():
    lam = entry_count_measure()
    identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    result = bp_measure(lam, identity, Fraction(1, 4))
    assert result.value == 2
    half = Fraction(1, 2)
    assert result.distribution.weights == ((half, Fraction(0)), (Fraction(0), half))
    assert result.matrix == identity


def test_bp_eps_zero_recovers_measure():
    lam = entry_count_measure()
    for f in all_boolean_matrices(2, 2):
        assert bp_measure(lam, f, Fraction(0)).value == f.count_ones()


def test_bp_eps_one_hits_minimum():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 1), (1, 1)])
    # radius 1 admits every candidate, so the adversary gets the global min
    assert bp_measure(lam, f, Fraction(1)).value == 0


def test_bp_monotone_in_eps():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 0), (1, 1, 0)])
    values = [
        bp_measure(lam, f, eps).value
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    ]
    assert values == sorted(values, reverse=True)
    assert values[0] == 5


def test_bp_validation():
    lam = entry_count_measure()
    f = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        bp_measure(lam, f, Fraction(3, 2))
    # a game already kept for this measure and shape refuses it too
    assert bp_measure(lam, f, Fraction(0)).value == 2
    with pytest.raises(ValueError):
        bp_measure(lam, f, Fraction(3, 2))
    kept = measures._shared_game.cache_info().currsize
    with pytest.raises(SizeGuardError):
        bp_measure(lam, BooleanMatrix(5, 4, ((0,) * 4,) * 5), Fraction(0))
    assert measures._shared_game.cache_info().currsize == kept


def test_bp_measure_refuses_eps_before_building_a_game():
    # a 4x4 game scores 65,536 candidates, so eps is checked first
    lam = entry_count_measure()
    identity = BooleanMatrix.from_rows([[int(x == y) for y in range(4)] for x in range(4)])
    misses = measures._shared_game.cache_info().misses
    for eps in (Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(ValueError):
            bp_measure(lam, identity, eps)
    assert measures._shared_game.cache_info().misses == misses


def test_bp_measure_shares_one_game_per_measure_and_shape(monkeypatch):
    applied = []
    lam = MeasureFn("counted", lambda f: applied.append(f) or f.count_ones())
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1)])
    ladder = [Fraction(k, 12) for k in (0, 1, 3, 4, 6)]
    games = _counting(monkeypatch, "_prefix_game")
    first = [bp_measure(lam, f, eps) for eps in ladder]
    assert len(applied) == 2**6
    solved = len(games)
    assert solved > 0
    assert [bp_measure(lam, f, eps) for eps in ladder] == first
    assert (len(applied), len(games)) == (2**6, solved)
    fresh = [BpGame(lam, 2, 3).solve(f, eps) for eps in ladder]
    assert fresh == first
    # measures built apart never share a game, even under one name
    ones = MeasureFn("same-name", lambda g: g.count_ones())
    zeros = MeasureFn("same-name", lambda g: 6 - g.count_ones())
    assert bp_measure(ones, f, Fraction(0)).value == 4
    assert bp_measure(zeros, f, Fraction(0)).value == 2


def test_bp_family_cost_measure():
    identity = BooleanMatrix.from_rows([(1, 0), (0, 1)])
    family = [wrap_deterministic(grid_protocol(2, 2, identity.entries))]
    lam = family_cost_measure(family)
    result = bp_measure(lam, identity, Fraction(0))
    assert result.value == lam.apply(identity)
    # a matrix no family member decides scores infinite under every prefix
    other = BooleanMatrix.from_rows([(1, 1), (0, 0)])
    blown = bp_measure(lam, other, Fraction(0))
    assert blown.value == math.inf


def test_bp_game_answers_interleaved_queries_like_fresh_calls():
    # one long-lived game per (measure, shape) answers f and eps in any
    # order exactly as a freshly built game does, inf results included
    rng = random.Random(7)
    pool = [wrap_deterministic(p) for p in enumerate_protocols(2, 2, 1)]
    family = family_cost_measure(rng.sample(pool, 4))
    mod3 = MeasureFn("ones-mod-3", lambda f: f.count_ones() % 3)
    values = []
    for lam, rows, cols in ((entry_count_measure(), 2, 3), (family, 2, 2), (mod3, 3, 2)):
        game = BpGame(lam, rows, cols)
        matrices = rng.sample(list(all_boolean_matrices(rows, cols)), 6)
        queries = [(f, Fraction(k, 12)) for f in matrices for k in (0, 2, 3, 5, 12)]
        rng.shuffle(queries)
        for f, eps in queries + queries[:5]:
            result = game.solve(f, eps)
            assert result == BpGame(lam, rows, cols).solve(f, eps)
            values.append(result.value)
        with pytest.raises(ValueError):
            game.solve(BooleanMatrix(rows + 1, cols, ((0,) * cols,) * (rows + 1)), 0)
    assert math.inf in values


def test_bp_game_scores_once_and_solves_each_prefix_once(monkeypatch):
    applied = []
    lam = MeasureFn("counted", lambda f: applied.append(f) or f.count_ones())
    game = BpGame(lam, 2, 3)
    assert len(applied) == len(set(applied)) == 2**6
    games = _counting(monkeypatch, "_prefix_game")
    queries = [
        (f, eps)
        for f in itertools.islice(all_boolean_matrices(2, 3), 0, 64, 7)
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1))
    ]
    first = [game.solve(f, eps) for f, eps in queries]
    solved = len(games)
    assert solved > 0
    assert [game.solve(f, eps) for f, eps in queries] == first
    assert len(games) == solved
    assert len(applied) == 2**6


def test_measure_wrappers():
    lam = inverse_disc_log_measure()
    parity_bool = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    assert lam.apply(parity_bool) == 2.0  # log2(1 / (1/4))
    margin = margin_measure(seed=0)
    value = margin.apply(parity_bool)
    assert 0.9 < value < 1.6
    prime = mc_prime(parity_bool)
    assert abs(prime.value - value) < 1e-6


def test_disc_cache_holds_every_3x3_candidate():
    # bp_measure under inverse_disc_log_measure scores all 512 3x3 matrices
    # through disc; a fresh game scoring them again must find every one
    # cached (bp_measure itself would reuse its shared game's scores)
    lam = inverse_disc_log_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    first = bp_measure(lam, f, Fraction(0))
    misses = disc.cache_info().misses
    second = BpGame(lam, 3, 3).solve(f, Fraction(0))
    assert disc.cache_info().misses == misses
    assert second == first
