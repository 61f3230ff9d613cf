"""Matrix types, conversions, file formats, and enumeration."""

from fractions import Fraction

import pytest

from cclab.matrices import (
    BooleanMatrix,
    InputDistribution,
    MatrixFormatError,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    parse_matrix,
    serialize_matrix,
)


def test_boolean_matrix_validation():
    with pytest.raises(ValueError):
        BooleanMatrix(2, 2, ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        BooleanMatrix(2, 2, ((0, 1),))
    m = BooleanMatrix.from_rows([(0, 1), (1, 0)])
    assert m.rows == 2 and m.cols == 2
    assert m.count_ones() == 2


def test_sign_conversion_round_trip():
    for b in all_boolean_matrices(2, 2):
        s = b.to_sign()
        assert all(v in (-1, 1) for row in s.entries for v in row)
        # the 0/1 to +1/-1 map sends 1 to -1
        assert all(
            s.entries[x][y] == 1 - 2 * b.entries[x][y]
            for x in range(2)
            for y in range(2)
        )


def test_parse_serialize_matrix_round_trip():
    m = BooleanMatrix.from_rows([(1, 0, 1), (0, 0, 1)])
    assert parse_matrix(serialize_matrix(m)) == m
    s = SignMatrix.from_rows([(1, -1), (-1, 1)])
    assert parse_matrix(serialize_matrix(s)) == s
    assert serialize_matrix(s) == "sign 2 2\n+-\n-+\n"


def test_parse_matrix_error_reporting():
    with pytest.raises(MatrixFormatError):
        parse_matrix("bool 2 2\n10\n")  # missing row
    with pytest.raises(MatrixFormatError):
        parse_matrix("bool 2 2\n10\n1x\n")  # bad symbol
    with pytest.raises(MatrixFormatError):
        parse_matrix("spin 2 2\n10\n01\n")  # unknown kind
    with pytest.raises(MatrixFormatError):
        parse_matrix("bool 2 2\n10\n01\nextra\n")
    err = None
    try:
        parse_matrix("bool 2 2\n10\n0")
    except MatrixFormatError as exc:
        err = str(exc)
    assert err is not None and "2" in err  # row length named with a count


def test_input_distribution_constructors():
    u = InputDistribution.uniform(2, 3)
    assert u.weights[1][2] == Fraction(1, 6)
    with pytest.raises(ValueError):
        InputDistribution(2, 2, ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))))
    with pytest.raises(ValueError):
        InputDistribution(
            2, 2, ((Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        )


def test_rectangle_validation():
    Rectangle((0, 2), (1,))
    with pytest.raises(ValueError):
        Rectangle((2, 0), (1,))
    with pytest.raises(ValueError):
        Rectangle((0, 0), (1,))
    with pytest.raises(ValueError):
        Rectangle((-1,), (0,))


def test_all_boolean_matrices_enumeration():
    two = list(all_boolean_matrices(2, 2))
    assert len(two) == 16
    assert len(set(two)) == 16
    # row-major lexicographic order: all zeros first, all ones last
    assert two[0].entries == ((0, 0), (0, 0))
    assert two[-1].entries == ((1, 1), (1, 1))
    assert len(list(all_boolean_matrices(3, 3))) == 512


def test_all_boolean_matrices_guard():
    with pytest.raises(SizeGuardError):
        list(all_boolean_matrices(5, 4))
