"""Discrepancy, margin complexity, the cost lower bound, and the
perturbation operator."""

import math
import random
from fractions import Fraction

import pytest

from cclab.matrices import (
    BooleanMatrix,
    InputDistribution,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    to_sign,
)
from cclab.measures import (
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
from cclab.protocols import grid_protocol, pp_matrix, threshold_to_pp, wrap_deterministic
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
