"""Discrepancy, margin complexity, the cost lower bound, and the
perturbation operator."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cclab.matrices import (
    BooleanMatrix,
    InputDistribution,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    to_sign,
)
from cclab import measures
from cclab.measures import (
    BpGame,
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
    margin_measure,
    mc,
    mc_prime,
)
from cclab.pipeline import cell_polynomial, counting_to_guess, shift_nonnegative
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
        assert disc_prime(B).value == disc(to_sign(B)).value


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


def test_margin_discrepancy_sandwich():
    for A in (_hadamard2(), _parity2()):
        report = check_margin_discrepancy_sandwich(A)
        assert Fraction(1, 8) - Fraction(1, 10**9) <= report["product"] <= 8.001
    rng = random.Random(71)
    for _ in range(5):
        A = random_sign_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        report = check_margin_discrepancy_sandwich(A, restarts=3, rounds=30)
        assert not report["mc_exceeds_bracket"]


def test_cost_discrepancy_bound_on_pipeline_protocols():
    rng = random.Random(73)
    for _ in range(4):
        f = BooleanMatrix.from_rows(
            [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        )
        form, shift = shift_nonnegative(cell_polynomial(f))
        g = threshold_to_pp(counting_to_guess(form), shift)
        report = check_cost_discrepancy_bound(f, g)
        assert report["lower_bound_holds"]
        assert report["pp_cost"] <= report["pp_cost_closed"]


def test_cost_discrepancy_bound_worked_example():
    # [[0,1],[1,0]] has disc' = 1/4, so any protocol needs 2 closed bits
    f = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    form, shift = shift_nonnegative(cell_polynomial(f))
    g = threshold_to_pp(counting_to_guess(form), shift)
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
    with pytest.raises(SizeGuardError):
        bp_measure(lam, BooleanMatrix(5, 4, ((0,) * 4,) * 5), Fraction(0))


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
    # order exactly as a fresh bp_measure call does, inf results included
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
            assert result == bp_measure(lam, f, eps)
            values.append(result.value)
        with pytest.raises(ValueError):
            game.solve(BooleanMatrix(rows + 1, cols, ((0,) * cols,) * (rows + 1)), 0)
    assert math.inf in values


def test_bp_game_scores_once_and_solves_each_prefix_once(monkeypatch):
    applied = []
    lam = MeasureFn("counted", lambda f: applied.append(f) or f.count_ones())
    game = BpGame(lam, 2, 3)
    assert len(applied) == len(set(applied)) == 2**6
    games = []
    solve = measures.maximize_min
    monkeypatch.setattr(
        measures, "maximize_min", lambda rows: games.append(rows) or solve(rows)
    )
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
    # through disc; a second call on the same f must find every one cached
    lam = inverse_disc_log_measure()
    f = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    first = bp_measure(lam, f, Fraction(0))
    misses = disc.cache_info().misses
    second = bp_measure(lam, f, Fraction(0))
    assert disc.cache_info().misses == misses
    assert second == first
