"""The amplifier polynomial family and the majority quotient."""

from fractions import Fraction

import pytest

from cclab.compilers import MAJORITY_MAX_COST
from cclab.majority import (
    MajorityForm,
    _amplifier_parts,
    amplifier_exponent,
    majority_form,
    root_poly,
    sign_amplifier,
    verify_amplifier_bounds,
)
from cclab.matrices import SizeGuardError
from cclab.polynomials import IntPolynomial, RationalFunction, format_polynomial


def _expanded(form: MajorityForm) -> RationalFunction:
    """The majority quotient expanded as k-variate polynomials: the reference
    the structured form's evaluation and exact data are checked against."""

    def embed(p: IntPolynomial, index: int) -> IntPolynomial:
        terms = {}
        for (e,), c in p.terms.items():
            terms[tuple(e if i == index else 0 for i in range(form.k))] = c
        return IntPolynomial(form.k, terms)

    den = IntPolynomial.constant(form.k, 1)
    for j in range(form.k):
        den = den * embed(form.even_part, j)
    num = den
    for i in range(form.k):
        term = 2 * embed(form.odd_part, i)
        for j in range(form.k):
            if j != i:
                term = term * embed(form.even_part, j)
        num = num + term
    return RationalFunction(num, den)


def test_amplifier_exponent_values():
    assert [amplifier_exponent(k) for k in (1, 2, 3, 4)] == [3, 3, 3, 5]
    # always odd, so powers preserve sign
    for k in range(1, 9):
        assert amplifier_exponent(k) % 2 == 1


def test_root_poly_shape():
    for m in range(0, 4):
        p = root_poly(m)
        assert p.degree == 2 * m + 1
    assert (
        format_polynomial(root_poly(2))
        == "z1^5 - 13*z1^4 + 64*z1^3 - 148*z1^2 + 160*z1 - 64"
    )
    assert root_poly(2).evaluate((3,)) == 2
    assert root_poly(2).evaluate((-3,)) == -4900


def test_root_poly_window_positive_inputs():
    # the normalized value P(z)/z^(2m+1)... the direct check: the sign
    # amplifier lands in [1, 1 + 1/k) on every integer in [1, 2^m]
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            amp = sign_amplifier(k, m)
            for z in range(1, 2**m + 1):
                value = amp.evaluate((z,))
                assert 1 <= value < 1 + Fraction(1, k), (k, m, z, value)
                mirrored = amp.evaluate((-z,))
                assert -1 - Fraction(1, k) < mirrored <= -1, (k, m, z, mirrored)


def test_sign_amplifier_base_point():
    assert sign_amplifier(1, 1).evaluate((1,)) == 1


def test_majority_rational_signs():
    form = majority_form(3, 2)
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)):
        point = tuple(s * 2 for s in signs)
        majority = 1 if sum(signs) > 0 else -1
        assert form.sign(point) == majority, signs
        assert (form.evaluate(point) > 0) == (majority > 0), signs


def test_majority_form_matches_rational():
    form = majority_form(3, 1)
    ratio = _expanded(form)
    for point in ((1, 1, 1), (2, -1, 1), (-2, -2, 1), (-1, -1, -1)):
        assert form.evaluate(point) == ratio.evaluate(point)
        expected_sign = 1 if form.evaluate(point) > 0 else -1
        assert form.sign(point) == expected_sign


@pytest.mark.parametrize("k, m", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_majority_form_exact_data_matches_expansion(k, m):
    form = majority_form(k, m)
    ratio = _expanded(form)
    assert form.numerator_total_degree == ratio.numerator.degree
    assert form.denominator_total_degree == ratio.denominator.degree
    assert form.numerator_max_abs_coeff == ratio.numerator.max_abs_coeff
    assert form.denominator_max_abs_coeff == ratio.denominator.max_abs_coeff


@pytest.mark.parametrize("h", [3, 5, 7])
def test_amplifier_parts_match_the_polynomial_expansion(h):
    # the convolved coefficient lists against P^h expanded as a polynomial
    for m in [*range(9), MAJORITY_MAX_COST]:
        pos = root_poly(m) ** h
        # P(-z), raised to the h-th power on its own
        flipped = {(e,): -c if e % 2 else c for (e,), c in root_poly(m).terms.items()}
        neg = IntPolynomial(1, flipped) ** h
        odd, even = _amplifier_parts(h, m)
        assert odd.terms == (neg - pos).terms
        assert even.terms == (neg + pos).terms


def test_majority_form_degree_equalities():
    for k in (1, 2):
        for m in (1, 2):
            form = majority_form(k, m)
            h = amplifier_exponent(2 * k)
            assert form.exponent == h
            # the amplifier power of one root polynomial per coordinate
            assert form.per_variable_degree == h * (2 * m + 1)
            assert (root_poly(m) ** h).degree == h * (2 * m + 1)
            # leading terms cancel in the even combination, losing one degree
            assert form.even_part.degree == h * (2 * m + 1) - 1
            assert form.denominator_total_degree == k * (h * (2 * m + 1) - 1)


def test_family_guard():
    with pytest.raises(SizeGuardError):
        sign_amplifier(6, 1)
    with pytest.raises(SizeGuardError):
        sign_amplifier(1, 7)
    with pytest.raises(ValueError):
        MajorityForm(0, 1)


def test_verify_amplifier_bounds_clean():
    report = verify_amplifier_bounds(2, 2, grid_budget=10_000, seed=0)
    assert report["ok"]
    assert report["violations"] == []
    assert report["majority"]["sign_failures"] == 0
    assert report["majority"]["expanded_within_bound"]
