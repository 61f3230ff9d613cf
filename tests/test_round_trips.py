"""Parse/serialise round trips as hypothesis properties: every text form
the CLI reads back reproduces the object it was written from."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.matrices import BooleanMatrix, SignMatrix, parse_matrix, serialize_matrix
from cclab.pipeline import (
    RandomizedRectanglePolynomial,
    RectangleTerm,
    RectangleTermPolynomial,
    parse_randomized_polynomial,
    serialize_randomized_polynomial,
)
from cclab.polynomials import IntPolynomial, format_polynomial, parse_polynomial
from cclab.protocols import (
    ALICE,
    BOB,
    DeterministicProtocol,
    Leaf,
    MemberProtocols,
    Node,
    OutputLeaf,
    dumps_protocol,
    loads_protocol,
)

_sides = st.integers(1, 5)


def _grid(rows: int, cols: int, symbols) -> st.SearchStrategy:
    row = st.tuples(*[st.sampled_from(symbols)] * cols)
    return st.tuples(*[row] * rows)


_matrices = st.tuples(_sides, _sides, st.booleans()).flatmap(
    lambda shape: st.builds(
        BooleanMatrix if shape[2] else SignMatrix,
        st.just(shape[0]),
        st.just(shape[1]),
        _grid(shape[0], shape[1], (0, 1) if shape[2] else (1, -1)),
    )
)


@settings(max_examples=80, deadline=None)
@given(_matrices)
def test_matrix_text_round_trip(matrix):
    text = serialize_matrix(matrix)
    again = parse_matrix(text)
    assert type(again) is type(matrix) and again == matrix
    assert serialize_matrix(again) == text


def _bits(size: int) -> st.SearchStrategy:
    return st.tuples(*[st.integers(0, 1)] * size)


def _trees(rows: int, cols: int) -> st.SearchStrategy:
    def spoken(speaker):
        size = rows if speaker == ALICE else cols
        return _bits(size).map(lambda table: (speaker, table))

    speakers = st.sampled_from((ALICE, BOB))
    leaves = st.one_of(
        st.builds(Leaf, st.integers(0, 1)),
        speakers.flatmap(spoken).map(lambda pair: OutputLeaf(*pair)),
    )
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda pair, zero, one: Node(*pair, zero, one),
            speakers.flatmap(spoken),
            children,
            children,
        ),
        max_leaves=6,
    )


def _members(rows: int, cols: int) -> st.SearchStrategy:
    protocol = _trees(rows, cols).map(
        lambda root: DeterministicProtocol(rows, cols, root)
    )
    return st.lists(protocol, min_size=1, max_size=3).map(
        lambda members: MemberProtocols(tuple(members))
    )


def _guess_protocols(shape) -> st.SearchStrategy:
    rows, cols = shape
    base = _members(rows, cols)
    return st.one_of(
        base,
        base.map(lambda g: g.complement()),
        st.builds(lambda a, b: a + b, base, base),
        st.builds(lambda a, b: a * b, base, base),
        st.builds(lambda a, k: a.repeat(k), base, st.integers(2, 3)),
    )


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(_guess_protocols))
def test_protocol_json_round_trip(g):
    text = dumps_protocol(g)
    again = loads_protocol(text)
    assert again.member_tuple == g.flatten().member_tuple
    assert dumps_protocol(again) == text


_polynomials = st.integers(1, 4).flatmap(
    lambda nvars: st.builds(
        IntPolynomial,
        st.just(nvars),
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * nvars),
            st.integers(-(10**12), 10**12),
            max_size=5,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(_polynomials)
def test_polynomial_text_round_trip(poly):
    text = format_polynomial(poly)
    again = parse_polynomial(text, nvars=poly.nvars)
    assert again == poly
    assert format_polynomial(again) == text


def _randomized(shape) -> st.SearchStrategy:
    rows, cols = shape
    term = st.builds(
        RectangleTerm,
        st.integers(-50, 50).filter(bool),
        _bits(rows),
        _bits(cols),
    )
    member = st.lists(term, max_size=4).map(
        lambda terms: RectangleTermPolynomial(rows, cols, tuple(terms))
    )

    def normalise(pairs):
        total = sum(weight for _, weight in pairs)
        return RandomizedRectanglePolynomial(
            tuple((phi, Fraction(weight, total)) for phi, weight in pairs)
        )

    return st.lists(
        st.tuples(member, st.integers(1, 1000)), min_size=1, max_size=3
    ).map(normalise)


@settings(max_examples=60, deadline=None)
@given(st.tuples(_sides, _sides).flatmap(_randomized))
def test_randomized_polynomial_json_round_trip(rphi):
    text = serialize_randomized_polynomial(rphi)
    again = parse_randomized_polynomial(text)
    assert again == rphi
    assert serialize_randomized_polynomial(again) == text
