"""Exact integer polynomials and rational functions."""

import random
from fractions import Fraction

import pytest

from cclab.polynomials import (
    IntPolynomial,
    RationalFunction,
    format_polynomial,
    parse_polynomial,
)


def _random_poly(rng, nvars, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = tuple(rng.randrange(0, 3) for _ in range(nvars))
        terms[key] = rng.randrange(-6, 7)
    return IntPolynomial(nvars, terms)


def test_constructors_and_evaluation():
    c = IntPolynomial.constant(2, 7)
    assert c.evaluate((100, -3)) == 7
    z2 = IntPolynomial.variable(2, 1)
    assert z2.evaluate((5, -4)) == -4
    p = IntPolynomial(1, {(2,): 3, (0,): -1})
    assert p.evaluate((2,)) == 11
    assert IntPolynomial(3).is_zero()


def test_canonical_form_drops_zero_terms():
    p = IntPolynomial(1, {(1,): 0, (0,): 5})
    assert (0,) in p.terms and (1,) not in p.terms
    q = IntPolynomial(1, {(1,): 2}) + IntPolynomial(1, {(1,): -2})
    assert q.is_zero()


def test_degree_and_coefficient_statistics():
    p = parse_polynomial("2*z1^2*z2 - 3*z2^4 + 1", nvars=2)
    assert p.degree == 4
    assert p.max_abs_coeff == 3


def test_ring_identities_exact():
    rng = random.Random(5)
    for _ in range(60):
        a = _random_poly(rng, 2)
        b = _random_poly(rng, 2)
        c = _random_poly(rng, 2)
        point = (rng.randrange(-4, 5), rng.randrange(-4, 5))
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert ((a + b) * c).evaluate(point) == (a * c + b * c).evaluate(point)
        assert (a - a).is_zero()


def test_power_and_flip():
    p = parse_polynomial("z1 + 1", nvars=1)
    assert (p**3).evaluate((2,)) == 27
    flipped = p.flip_variable(0)
    for z in range(-3, 4):
        assert flipped.evaluate((z,)) == p.evaluate((-z,))
    assert flipped.flip_variable(0) == p


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        p = _random_poly(rng, 3)
        if p.is_zero():
            continue
        assert parse_polynomial(format_polynomial(p), nvars=3) == p
    assert format_polynomial(IntPolynomial(2)) == "0"
    assert parse_polynomial("0", nvars=2).is_zero()


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_polynomial("2*w1", nvars=1)
    with pytest.raises(ValueError):
        parse_polynomial("z1^", nvars=1)
    with pytest.raises(ValueError):
        parse_polynomial("z3", nvars=2)


def test_rational_function_evaluation():
    r = RationalFunction(
        parse_polynomial("z1^2 - 1", nvars=1), parse_polynomial("z1 + 2", nvars=1)
    )
    assert r.evaluate((2,)) == Fraction(3, 4)
    assert (r.degree, r.max_abs_coeff) == (2, 2)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(parse_polynomial("z1", nvars=1), IntPolynomial(1))
