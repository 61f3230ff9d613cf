"""Rectangle-term polynomials, their counting protocols, and the randomized
pipeline."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab import pipeline
from cclab.matrices import BooleanMatrix
from cclab.pipeline import (
    RandomizedRectanglePolynomial,
    RectangleTermPolynomial,
    and_fixture,
    boundary_fixture,
    cell_polynomial,
    counting_protocol,
    decision_matrix,
    eval_phi,
    or_fixture,
    parse_randomized_polynomial,
    run_pipeline,
    serialize_randomized_polynomial,
)
from cclab.protocols import ceil_log2, gap_profile, pp_matrix, threshold_to_pp


def _mixed_phi():
    return RectangleTermPolynomial.from_terms(
        2,
        2,
        [(-2, (1, 1), (1, 0)), (3, (1, 0), (1, 1))],
    )


def test_eval_phi_and_decision_matrix():
    phi = _mixed_phi()
    assert eval_phi(phi, 0, 0) == 1
    assert eval_phi(phi, 0, 1) == 3
    assert eval_phi(phi, 1, 0) == -2
    assert eval_phi(phi, 1, 1) == 0
    assert decision_matrix(phi) == BooleanMatrix.from_rows([(1, 1), (0, 0)])
    with pytest.raises(IndexError):
        eval_phi(phi, 2, 0)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        RectangleTermPolynomial.from_terms(2, 2, [(0, (1, 1), (1, 1))])
    with pytest.raises(ValueError):
        RectangleTermPolynomial.from_terms(2, 2, [(1, (1,), (1, 1))])
    with pytest.raises(ValueError):
        RectangleTermPolynomial.from_terms(2, 2, [(1, (1, 2), (1, 1))])
    with pytest.raises(ValueError):
        RectangleTermPolynomial(0, 2, ())


def test_shift_makes_counting_form():
    phi = _mixed_phi()
    g, shift = counting_protocol(phi)
    # one unit member per absolute coefficient, shift from the negatives
    assert shift == 2
    members = list(g.members())
    assert len(members) == 5
    # only the complemented -2 members accept at (1, 1), outside both rectangles
    assert sum(m.output_grid()[1][1] for m in members) == 2
    for x in range(2):
        for y in range(2):
            assert sum(m.output_grid()[x][y] for m in members) == eval_phi(phi, x, y) + shift


def test_counting_protocol_counts_the_form():
    phi = _mixed_phi()
    g, shift = counting_protocol(phi)
    assert g.guess_count == 5
    profile = gap_profile(g)
    for x in range(2):
        for y in range(2):
            assert profile.acc[x][y] == eval_phi(phi, x, y) + shift


def test_counting_protocol_empty_form_rejects():
    g, shift = counting_protocol(RectangleTermPolynomial(2, 2, ()))
    assert shift == 0
    assert g.guess_count == 1
    profile = gap_profile(g)
    assert all(v == 0 for row in profile.acc for v in row)


_sides = st.integers(1, 3)
_coefficients = st.integers(-4, 4).filter(bool)


def _polynomials(shape):
    rows, cols = shape
    term = st.tuples(
        _coefficients,
        st.tuples(*[st.integers(0, 1)] * rows),
        st.tuples(*[st.integers(0, 1)] * cols),
    )
    return st.lists(term, max_size=4).map(
        lambda terms: RectangleTermPolynomial.from_terms(rows, cols, terms)
    )


@settings(max_examples=100, deadline=None)
@given(st.tuples(_sides, _sides).flatmap(_polynomials))
@example(RectangleTermPolynomial(2, 2, ()))
def test_counting_protocol_counts_phi_plus_shift(phi):
    g, shift = counting_protocol(phi)
    coefficients = [t.coefficient for t in phi.terms]
    assert shift == sum(-c for c in coefficients if c < 0)
    assert g.guess_count == (sum(abs(c) for c in coefficients) or 1)
    acc = gap_profile(g).acc
    # the algebra's grid is the one its explicit members count
    assert gap_profile(g.flatten()).acc == acc
    for x in range(phi.rows):
        for y in range(phi.cols):
            assert acc[x][y] == eval_phi(phi, x, y) + shift
    assert pp_matrix(threshold_to_pp(g, shift)) == decision_matrix(phi)


@pytest.mark.parametrize("sign", [1, -1])
def test_huge_coefficient_stays_symbolic(sign):
    # 10^12 unit members are never materialized: counts stay exact integers
    phi = RectangleTermPolynomial.from_terms(
        2, 2, [(sign * 10**12, (1, 0), (0, 1))]
    )
    rphi = RandomizedRectanglePolynomial(((phi, Fraction(1)),))
    report = run_pipeline(rphi, decision_matrix(phi)).report
    (member,) = report["members"]
    assert member["counting_guesses"] == 10**12
    assert member["shift"] == (10**12 if sign < 0 else 0)
    assert member["pp_guesses"] == 2 * 10**12
    assert report["max_error"] == 0


def test_cell_polynomial_matches_grid():
    grid = BooleanMatrix.from_rows([(1, 0, 1), (0, 0, 1)])
    phi = cell_polynomial(grid)
    assert len(phi.terms) == grid.count_ones()
    assert all(t.coefficient == 1 for t in phi.terms)
    assert decision_matrix(phi) == grid


def test_and_fixture_is_exact():
    rphi, target = and_fixture()
    assert target.entries == ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))
    result = run_pipeline(rphi, target)
    assert result.report["max_error"] == 0
    assert result.report["cost"] == 2


def test_or_fixture_is_exact():
    rphi, target = or_fixture()
    assert target.entries == ((1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0))
    result = run_pipeline(rphi, target)
    report = result.report
    assert report["max_error"] == 0
    assert report["cost"] == 3
    (member,) = report["members"]
    assert member["term_weight"] == 3
    assert member["shift"] == 1
    assert member["pp_cost"] == 3
    assert member["pp_cost"] <= member["cost_bound"] == ceil_log2(3) + 2
    assert member["verified"]


def test_boundary_fixture_sits_on_the_error_line():
    rphi, target = boundary_fixture()
    result = run_pipeline(rphi, target)
    report = result.report
    assert report["max_error"] == Fraction(1, 3)
    assert report["cost"] == 5
    assert [m["pp_cost"] for m in report["members"]] == [5, 5, 5]
    errors = report["per_input_error"]
    for x in range(4):
        for y in range(4):
            expected = Fraction(1, 3) if x < 3 else Fraction(0)
            assert errors[x][y] == expected


def test_pipeline_rejects_error_above_third():
    rphi, target = boundary_fixture()
    complemented = BooleanMatrix(
        4, 4, tuple(tuple(1 - v for v in row) for row in target.entries)
    )
    with pytest.raises(AssertionError):
        run_pipeline(rphi, complemented)


def test_pipeline_names_the_first_cell_a_member_misdecides(monkeypatch):
    # with every polynomial's sign read as all zeros, the and fixture's
    # member decides 1 against 0 at its one accepted cell, (3, 3)
    rphi, target = and_fixture()
    zeros = BooleanMatrix(4, 4, ((0,) * 4,) * 4)
    monkeypatch.setattr(pipeline, "decision_matrix", lambda phi: zeros)
    with pytest.raises(AssertionError) as caught:
        run_pipeline(rphi, target)
    assert str(caught.value) == (
        "member 0 disagrees with its polynomial at (3, 3): protocol 1, sign 0"
    )


def test_pipeline_rejects_domain_mismatch():
    rphi, _ = and_fixture()
    with pytest.raises(ValueError):
        run_pipeline(rphi, BooleanMatrix.from_rows([(1, 0), (0, 1)]))


def test_support_validation():
    phi = _mixed_phi()
    with pytest.raises(ValueError):
        RandomizedRectanglePolynomial(())
    with pytest.raises(ValueError):
        RandomizedRectanglePolynomial(((phi, Fraction(1, 2)),))
    with pytest.raises(ValueError):
        RandomizedRectanglePolynomial(
            ((phi, Fraction(3, 2)), (phi, Fraction(-1, 2)))
        )
    other = RectangleTermPolynomial.from_terms(3, 2, [(1, (1, 0, 0), (1, 0))])
    with pytest.raises(ValueError):
        RandomizedRectanglePolynomial(
            ((phi, Fraction(1, 2)), (other, Fraction(1, 2)))
        )


def test_serialization_round_trip_is_byte_exact():
    for fixture in (and_fixture, or_fixture, boundary_fixture):
        rphi, _ = fixture()
        text = serialize_randomized_polynomial(rphi)
        assert text.endswith("\n")
        again = parse_randomized_polynomial(text)
        assert serialize_randomized_polynomial(again) == text
        assert again == rphi


def test_parse_error_reporting():
    with pytest.raises(ValueError, match="missing field 'cols'"):
        parse_randomized_polynomial('{"rows": 2}')
    with pytest.raises(ValueError, match="support must be nonempty"):
        parse_randomized_polynomial('{"rows": 2, "cols": 2, "support": []}')
    bad_table = (
        '{"rows": 2, "cols": 2, "support": [{"probability": "1", '
        '"terms": [{"coefficient": 1, "f": "21", "g": "11"}]}]}'
    )
    with pytest.raises(ValueError, match="0/1 string"):
        parse_randomized_polynomial(bad_table)
