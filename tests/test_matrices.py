"""Matrix types, conversions, file formats, and enumeration."""

from fractions import Fraction

import pytest

from cclab.compilers import compile_majority, compile_polynomial
from cclab.matrices import (
    BooleanMatrix,
    DomainMismatchError,
    InputDistribution,
    MatrixFormatError,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    parse_matrix,
    serialize_matrix,
)
from cclab.measures import BpGame, best_rectangle, entry_count_measure, family_cost_measure
from cclab.pipeline import (
    RandomizedRectanglePolynomial,
    RectangleTermPolynomial,
    run_pipeline,
)
from cclab.polynomials import parse_polynomial
from cclab.protocols import (
    DeterministicProtocol,
    Leaf,
    MemberProtocols,
    ProductProtocol,
    SumProtocol,
    always_accept,
)
from cclab.randomized import RandomizedPPProtocol, minimax_error_check, uniform_support


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


def _phi(rows, cols):
    return RectangleTermPolynomial.from_terms(rows, cols, [(1, (1,) * rows, (1,) * cols)])


def _support(*members):
    return tuple((m, Fraction(1, len(members))) for m in members)


# Every site that combines two objects on a domain each; the first named
# object is always 2x2 and the other 2x3.
_SQUARE, _WIDE = always_accept(2, 2), always_accept(2, 3)
_F_SQUARE = BooleanMatrix.from_rows([(1, 0), (0, 1)])
_F_WIDE = BooleanMatrix.from_rows([(1, 0, 1), (0, 1, 0)])
_DOMAIN_SITES = {
    "SumProtocol": lambda: SumProtocol((_SQUARE, _WIDE)),
    "ProductProtocol": lambda: ProductProtocol(_SQUARE, _WIDE),
    "compile_polynomial": lambda: compile_polynomial(
        [_SQUARE, _WIDE], parse_polynomial("z1*z2", nvars=2)
    ),
    "compile_majority": lambda: compile_majority([_SQUARE, _WIDE, _SQUARE]),
    "MemberProtocols": lambda: MemberProtocols(
        (DeterministicProtocol(2, 2, Leaf(1)), DeterministicProtocol(2, 3, Leaf(1)))
    ),
    "RandomizedPPProtocol": lambda: RandomizedPPProtocol(_support(_SQUARE, _WIDE)),
    "RandomizedPPProtocol.error": lambda: uniform_support([_WIDE]).error(_F_SQUARE),
    "minimax_error_check": lambda: minimax_error_check(_F_SQUARE, [_WIDE]),
    "RandomizedRectanglePolynomial": lambda: RandomizedRectanglePolynomial(
        _support(_phi(2, 2), _phi(2, 3))
    ),
    "run_pipeline": lambda: run_pipeline(
        RandomizedRectanglePolynomial(_support(_phi(2, 2))), _F_WIDE
    ),
    "best_rectangle": lambda: best_rectangle(
        _F_SQUARE.to_sign(), InputDistribution.uniform(2, 3)
    ),
    "family_cost_measure": lambda: family_cost_measure([_SQUARE, _WIDE]),
    "BpGame.solve": lambda: BpGame(entry_count_measure(), 2, 2).solve(
        _F_WIDE, Fraction(1, 4)
    ),
}


@pytest.mark.parametrize("site", sorted(_DOMAIN_SITES))
def test_every_domain_match_raises_one_error(site):
    with pytest.raises(DomainMismatchError, match=r"^domain mismatch: 2x2 vs 2x3$"):
        _DOMAIN_SITES[site]()


def test_protocol_domains_follow_the_side_guard():
    # a protocol or a rectangle polynomial is admitted exactly like a matrix
    for build in (
        lambda rows, cols: DeterministicProtocol(rows, cols, Leaf(0)),
        lambda rows, cols: RectangleTermPolynomial(rows, cols, ()),
    ):
        build(12, 12)
        with pytest.raises(SizeGuardError, match="13x1 exceed the guard of 12 per side"):
            build(13, 1)
        with pytest.raises(ValueError, match="sides must be positive, got 0x2"):
            build(0, 2)
