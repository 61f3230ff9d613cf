"""Rectangle-term polynomials and their expansion into guess protocols.

A rectangle-term polynomial is an integer combination of products
f(x) * g(y) of one-sided predicates.  Shifting by the total weight of the
negative coefficients turns it into a counting form, a multiset of unit
terms, some complemented; a guess protocol with one cost-1 member per unit
term then counts exactly the shifted value, and thresholding at the shift
recovers the sign of the original polynomial in counting-acceptance mode.

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
from .matrices import BooleanMatrix
from .protocols import (
    ALICE,
    BOB,
    DeterministicProtocol,
    GuessProtocol,
    Leaf,
    MemberProtocols,
    Node,
    OutputLeaf,
    always_reject,
    ceil_log2,
    pp_cost,
    pp_matrix,
    threshold_to_pp,
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
        if self.rows < 1 or self.cols < 1:
            raise ValueError("domain sides must be positive")
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


@dataclass(frozen=True)
class CountingTerm:
    """A unit term f(x) * g(y), or its complement 1 - f(x) * g(y)."""

    f_table: tuple[int, ...]
    g_table: tuple[int, ...]
    complemented: bool

    def value(self, x: int, y: int) -> int:
        v = self.f_table[x] * self.g_table[y]
        return 1 - v if self.complemented else v


@dataclass(frozen=True)
class CountingForm:
    """A multiset of unit counting terms; evaluates to their sum."""

    rows: int
    cols: int
    terms: tuple[CountingTerm, ...]

    def __post_init__(self):
        for term in self.terms:
            _check_table(term.f_table, self.rows, "f")
            _check_table(term.g_table, self.cols, "g")

    def evaluate(self, x: int, y: int) -> int:
        return sum(t.value(x, y) for t in self.terms)


def shift_nonnegative(phi: RectangleTermPolynomial) -> tuple[CountingForm, int]:
    """Shift a polynomial into counting form.

    Positive terms expand into coefficient many copies of the plain unit
    term; a term with coefficient -c expands into c complemented copies,
    which contributes c - c * f * g, so the whole form evaluates to
    phi + g where g is the sum of the absolute negative coefficients.
    """
    shift = 0
    units: list[CountingTerm] = []
    for term in phi.terms:
        if term.coefficient > 0:
            units.extend(
                CountingTerm(term.f_table, term.g_table, False)
                for _ in range(term.coefficient)
            )
        else:
            shift += -term.coefficient
            units.extend(
                CountingTerm(term.f_table, term.g_table, True)
                for _ in range(-term.coefficient)
            )
    return CountingForm(phi.rows, phi.cols, tuple(units)), shift


def counting_to_guess(form: CountingForm) -> GuessProtocol:
    """One cost-1 member per unit term; acc equals the form's value.

    The plain member has Alice announce f(x); on 1 Bob privately outputs
    g(y), on 0 the member rejects, so it accepts exactly when f(x)g(y) = 1.
    Complemented terms use the complement of that member.  An empty form
    degenerates to a single rejecting member, keeping acc at zero.
    """
    if not form.terms:
        return always_reject(form.rows, form.cols)
    members = []
    for term in form.terms:
        tree = Node(
            ALICE,
            term.f_table,
            Leaf(0),
            OutputLeaf(BOB, term.g_table),
        )
        member = DeterministicProtocol(form.rows, form.cols, tree)
        members.append(member.complemented() if term.complemented else member)
    return MemberProtocols(tuple(members))


@dataclass(frozen=True)
class RandomizedRectanglePolynomial:
    """A probability distribution over rectangle-term polynomials."""

    support: tuple[tuple[RectangleTermPolynomial, Fraction], ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        first = self.support[0][0]
        total = Fraction(0)
        for phi, prob in self.support:
            if (phi.rows, phi.cols) != (first.rows, first.cols):
                raise ValueError("support members must share one domain")
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

    Per member: shift into counting form, build the counting protocol, and
    threshold at the member's own shift, so the member counting-accepts
    exactly where its polynomial is positive; that equivalence is verified
    exhaustively, not assumed.  The assembled randomized protocol keeps the
    support distribution; its exact per-input error against the target is
    reported and the maximum is checked to stay within 1/3; a failed check
    carries that report on its InvariantError.
    """
    if (rphi.rows, rphi.cols) != (target.rows, target.cols):
        raise ValueError("target matrix does not match the support domain")
    member_reports = []
    assembled = []
    for index, (phi, prob) in enumerate(rphi.support):
        form, shift = shift_nonnegative(phi)
        counting = counting_to_guess(form)
        total_weight = sum(abs(t.coefficient) for t in phi.terms)
        if phi.terms:
            check(
                counting.guess_count == total_weight,
                f"member {index}: counting guesses equal the term weight",
            )
        member_pp = threshold_to_pp(counting, shift)
        decided = pp_matrix(member_pp)
        wanted = decision_matrix(phi)
        for x in range(phi.rows):
            for y in range(phi.cols):
                check(
                    decided.entries[x][y] == wanted.entries[x][y],
                    f"member {index} disagrees with its polynomial at "
                    f"({x}, {y}): protocol {decided.entries[x][y]}, "
                    f"sign {wanted.entries[x][y]}",
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
        rows = int(data["rows"])
        cols = int(data["cols"])
        raw_support = data["support"]
    except KeyError as missing:
        raise ValueError(f"missing field {missing.args[0]!r}") from None
    support = []
    for entry in raw_support:
        prob = Fraction(str(entry["probability"]))
        terms = tuple(
            RectangleTerm(
                int(t["coefficient"]),
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


def boundary_fixture() -> tuple[RandomizedRectanglePolynomial, BooleanMatrix]:
    """Three equiprobable members, each wrong on its own quarter of 4x4.

    Member i decides the target with row i flipped, so inputs in rows 0-2
    see exactly one wrong member (error 1/3, the assertion boundary) and
    row 3 sees none (error 0).
    """
    target = BooleanMatrix.from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    support = []
    for i in range(3):
        flipped = tuple(
            tuple(1 - v if x == i else v for v in row)
            for x, row in enumerate(target.entries)
        )
        phi = cell_polynomial(BooleanMatrix(4, 4, flipped))
        support.append((phi, Fraction(1, 3)))
    return RandomizedRectanglePolynomial(tuple(support)), target
