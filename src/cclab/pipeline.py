"""Rectangle-term polynomials and their expansion into guess protocols.

A rectangle-term polynomial is an integer combination of products
f(x) * g(y) of one-sided predicates.  Each term has a cost-1 member that
accepts exactly where f(x) * g(y) = 1; repeating it |c| times, complemented
for a negative coefficient c, gives a guess protocol that counts the
polynomial plus the total weight of the negative coefficients.
Thresholding at that shift recovers the sign of the original polynomial in
counting-acceptance mode.  The repetitions stay symbolic in the gap
algebra, so the protocol's size does not grow with the coefficients.

The randomized pipeline applies this member by member to a distribution
over polynomials and measures the error of the assembled randomized
protocol against a target matrix, exactly.  Nothing here constructs the
polynomials themselves; exact fixtures for small unions of rectangles are
provided instead so the full path is exercised end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .invariants import check
from .matrices import BooleanMatrix, check_same_domain, check_sides
from .protocols import (
    ALICE,
    BOB,
    DeterministicProtocol,
    GuessProtocol,
    Leaf,
    Node,
    OutputLeaf,
    SumProtocol,
    always_reject,
    ceil_log2,
    json_int,
    pp_cost,
    pp_matrix,
    threshold_to_pp,
    wrap_deterministic,
)
from .randomized import RandomizedPPProtocol


def _check_table(table: Sequence[int], size: int, label: str) -> tuple[int, ...]:
    table = tuple(table)
    if len(table) != size:
        raise ValueError(f"{label} table has {len(table)} entries, expected {size}")
    for v in table:
        if v not in (0, 1):
            raise ValueError(f"{label} table entry must be 0 or 1, got {v!r}")
    return table


@dataclass(frozen=True)
class RectangleTerm:
    """One term c * f(x) * g(y); the tables are the one-sided predicates."""

    coefficient: int
    f_table: tuple[int, ...]
    g_table: tuple[int, ...]


@dataclass(frozen=True)
class RectangleTermPolynomial:
    rows: int
    cols: int
    terms: tuple[RectangleTerm, ...]

    def __post_init__(self):
        check_sides(self.rows, self.cols)
        for term in self.terms:
            if term.coefficient == 0:
                raise ValueError("zero coefficients are not allowed")
            _check_table(term.f_table, self.rows, "f")
            _check_table(term.g_table, self.cols, "g")

    @classmethod
    def from_terms(
        cls,
        rows: int,
        cols: int,
        terms: Sequence[tuple[int, Sequence[int], Sequence[int]]],
    ) -> "RectangleTermPolynomial":
        return cls(
            rows,
            cols,
            tuple(RectangleTerm(c, tuple(f), tuple(g)) for c, f, g in terms),
        )


def eval_phi(phi: RectangleTermPolynomial, x: int, y: int) -> int:
    if not (0 <= x < phi.rows and 0 <= y < phi.cols):
        raise IndexError(f"input ({x}, {y}) outside {phi.rows}x{phi.cols}")
    return sum(
        t.coefficient * t.f_table[x] * t.g_table[y] for t in phi.terms
    )


def decision_matrix(phi: RectangleTermPolynomial) -> BooleanMatrix:
    """The Boolean grid [phi > 0]."""
    grid = tuple(
        tuple(1 if eval_phi(phi, x, y) > 0 else 0 for y in range(phi.cols))
        for x in range(phi.rows)
    )
    return BooleanMatrix(phi.rows, phi.cols, grid)


def counting_protocol(phi: RectangleTermPolynomial) -> tuple[GuessProtocol, int]:
    """A guess protocol whose acc is phi + shift at every input, and the shift.

    Each term's cost-1 member has Alice announce f(x); on 1 Bob privately
    outputs g(y), on 0 the member rejects, so it accepts exactly when
    f(x)g(y) = 1.  A coefficient c > 0 repeats that member c times.  A
    coefficient -c repeats its complement c times, which accepts
    c - c * f * g times, so the shift is the sum of the negative magnitudes.
    Repetition stays symbolic, so the protocol is built in O(terms) whatever
    the coefficients.  A polynomial with no terms gets a single rejecting
    member, keeping acc at zero.
    """
    if not phi.terms:
        return always_reject(phi.rows, phi.cols), 0
    shift = 0
    parts = []
    for term in phi.terms:
        tree = Node(ALICE, term.f_table, Leaf(0), OutputLeaf(BOB, term.g_table))
        member = wrap_deterministic(DeterministicProtocol(phi.rows, phi.cols, tree))
        if term.coefficient < 0:
            shift -= term.coefficient
            member = member.complement()
        parts.append(member.repeat(abs(term.coefficient)))
    return SumProtocol(parts), shift


@dataclass(frozen=True)
class RandomizedRectanglePolynomial:
    """A probability distribution over rectangle-term polynomials."""

    support: tuple[tuple[RectangleTermPolynomial, Fraction], ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        check_same_domain(self, (phi for phi, _ in self.support))
        total = Fraction(0)
        for _, prob in self.support:
            if not isinstance(prob, Fraction) or prob <= 0:
                raise ValueError("probabilities must be positive Fractions")
            total += prob
        if total != 1:
            raise ValueError(f"probabilities must sum to 1, got {total}")

    @property
    def rows(self) -> int:
        return self.support[0][0].rows

    @property
    def cols(self) -> int:
        return self.support[0][0].cols


@dataclass(frozen=True)
class PipelineResult:
    protocol: RandomizedPPProtocol
    report: dict


def run_pipeline(
    rphi: RandomizedRectanglePolynomial, target: BooleanMatrix
) -> PipelineResult:
    """Expand every support member into a PP protocol and measure the error.

    Per member: build the counting protocol and threshold it at its shift,
    so the member counting-accepts exactly where its polynomial is positive;
    that equivalence is verified exhaustively, not assumed.  The assembled randomized protocol keeps the
    support distribution; its exact per-input error against the target is
    reported and the maximum is checked to stay within 1/3; a failed check
    carries that report on its InvariantError.
    """
    check_same_domain(rphi, (target,))
    member_reports = []
    assembled = []
    for index, (phi, prob) in enumerate(rphi.support):
        counting, shift = counting_protocol(phi)
        total_weight = sum(abs(t.coefficient) for t in phi.terms)
        if phi.terms:
            check(
                counting.guess_count == total_weight,
                f"member {index}: counting guesses equal the term weight",
            )
        member_pp = threshold_to_pp(counting, shift)
        decided = pp_matrix(member_pp).entries
        wanted = decision_matrix(phi).entries
        if decided != wanted:
            x, y = next(
                (x, y)
                for x in range(phi.rows)
                for y in range(phi.cols)
                if decided[x][y] != wanted[x][y]
            )
            check(
                False,
                f"member {index} disagrees with its polynomial at ({x}, {y}): "
                f"protocol {decided[x][y]}, sign {wanted[x][y]}",
            )
        cost = pp_cost(member_pp)
        bound = ceil_log2(max(total_weight, 1)) + 2
        check(cost <= bound, f"member {index}: cost {cost} above bound {bound}")
        member_reports.append(
            {
                "index": index,
                "probability": prob,
                "term_weight": total_weight,
                "shift": shift,
                "counting_guesses": counting.guess_count,
                "pp_guesses": member_pp.guess_count,
                "pp_cost": cost,
                "cost_bound": bound,
                "verified": True,
            }
        )
        assembled.append((member_pp, prob))
    protocol = RandomizedPPProtocol(tuple(assembled))
    errors = protocol.per_input_error(target)
    max_error = max(v for row in errors for v in row)
    report = {
        "members": member_reports,
        "per_input_error": errors,
        "max_error": max_error,
        "cost": protocol.cost(),
    }
    worst = next(
        (x, y)
        for x in range(target.rows)
        for y in range(target.cols)
        if errors[x][y] == max_error
    )
    check(
        max_error <= Fraction(1, 3),
        f"error {max_error} at input {worst} exceeds 1/3",
        report,
    )
    return PipelineResult(protocol, report)


# ---------------------------------------------------------------------------
# input format


def _parse_table(text: str, size: int, label: str) -> tuple[int, ...]:
    if not isinstance(text, str) or any(c not in "01" for c in text):
        raise ValueError(f"{label} table must be a 0/1 string, got {text!r}")
    return _check_table(tuple(int(c) for c in text), size, label)


def parse_randomized_polynomial(text: str) -> RandomizedRectanglePolynomial:
    """Read a support description from JSON.

    Schema: {"rows": R, "cols": C, "support": [{"probability": "p/q",
    "terms": [{"coefficient": c, "f": "0101..", "g": "0011.."}, ...]}, ...]}
    with truth tables as bit strings over the row and column domains.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("top level must be an object")
    try:
        rows = json_int(data["rows"], "rows")
        cols = json_int(data["cols"], "cols")
        raw_support = data["support"]
    except KeyError as missing:
        raise ValueError(f"missing field {missing.args[0]!r}") from None
    support = []
    for entry in raw_support:
        try:
            prob = Fraction(str(entry["probability"]))
        except ZeroDivisionError:
            raise ValueError(
                f"probability {entry['probability']!r} has a zero denominator"
            ) from None
        terms = tuple(
            RectangleTerm(
                json_int(t["coefficient"], "coefficient"),
                _parse_table(t["f"], rows, "f"),
                _parse_table(t["g"], cols, "g"),
            )
            for t in entry["terms"]
        )
        support.append((RectangleTermPolynomial(rows, cols, terms), prob))
    return RandomizedRectanglePolynomial(tuple(support))


def serialize_randomized_polynomial(rphi: RandomizedRectanglePolynomial) -> str:
    data = {
        "rows": rphi.rows,
        "cols": rphi.cols,
        "support": [
            {
                "probability": str(prob),
                "terms": [
                    {
                        "coefficient": t.coefficient,
                        "f": "".join(map(str, t.f_table)),
                        "g": "".join(map(str, t.g_table)),
                    }
                    for t in phi.terms
                ],
            }
            for phi, prob in rphi.support
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# fixtures


def and_fixture() -> tuple[RandomizedRectanglePolynomial, BooleanMatrix]:
    """Single positive term picking out the one cell (3, 3) on 4x4."""
    phi = RectangleTermPolynomial.from_terms(
        4, 4, [(1, (0, 0, 0, 1), (0, 0, 0, 1))]
    )
    return (
        RandomizedRectanglePolynomial(((phi, Fraction(1)),)),
        decision_matrix(phi),
    )


def or_fixture() -> tuple[RandomizedRectanglePolynomial, BooleanMatrix]:
    """Exact inclusion-exclusion polynomial for a union of two rectangles.

    f1 g1 + f2 g2 - (f1 and f2)(g1 and g2) is the indicator of the union,
    so the single-support pipeline run has error 0 and the negative term
    exercises the shift.
    """
    f1, g1 = (1, 1, 0, 0), (1, 1, 0, 0)
    f2, g2 = (0, 1, 1, 0), (0, 1, 1, 0)
    both_f = tuple(a & b for a, b in zip(f1, f2))
    both_g = tuple(a & b for a, b in zip(g1, g2))
    phi = RectangleTermPolynomial.from_terms(
        4, 4, [(1, f1, g1), (1, f2, g2), (-1, both_f, both_g)]
    )
    return (
        RandomizedRectanglePolynomial(((phi, Fraction(1)),)),
        decision_matrix(phi),
    )


def cell_polynomial(grid: BooleanMatrix) -> RectangleTermPolynomial:
    """Exact polynomial for an arbitrary grid: one unit term per 1-cell."""
    terms = []
    for x in range(grid.rows):
        for y in range(grid.cols):
            if grid.entries[x][y]:
                f = tuple(1 if i == x else 0 for i in range(grid.rows))
                g = tuple(1 if j == y else 0 for j in range(grid.cols))
                terms.append((1, f, g))
    return RectangleTermPolynomial.from_terms(grid.rows, grid.cols, terms)


def row_flipped_identities() -> tuple[BooleanMatrix, tuple[BooleanMatrix, ...]]:
    """The 4x4 identity and, for each i < 3, the identity with row i flipped.

    Of three equiprobable members deciding the flipped grids, exactly one
    errs at each input in rows 0-2 (error 1/3, the assertion boundary) and
    none errs in row 3 (error 0).
    """
    identity = [[1 if x == y else 0 for y in range(4)] for x in range(4)]
    flipped = tuple(
        BooleanMatrix.from_rows(
            [[1 - v if x == i else v for v in row] for x, row in enumerate(identity)]
        )
        for i in range(3)
    )
    return BooleanMatrix.from_rows(identity), flipped


def boundary_fixture() -> tuple[RandomizedRectanglePolynomial, BooleanMatrix]:
    """Three equiprobable cell polynomials of the `row_flipped_identities`."""
    target, grids = row_flipped_identities()
    support = tuple((cell_polynomial(grid), Fraction(1, 3)) for grid in grids)
    return RandomizedRectanglePolynomial(support), target
