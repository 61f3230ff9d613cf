"""Exact multivariate integer polynomials and unreduced rational quotients.

Coefficients are arbitrary-precision Python ints; the compiled constructions
produce coefficients with hundreds of digits and nothing here may round.
RationalFunction keeps its numerator and denominator as given, with no GCD
reduction, because the sign amplifier's degree and coefficient claims are
stated about exactly that numerator and denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

Exponents = tuple[int, ...]


class PolynomialParseError(ValueError):
    pass


class IntPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        if nvars < 1:
            raise ValueError("polynomials need at least one variable")
        clean: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r} for {nvars} variables")
                coeff = int(coeff)
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if not clean[exps]:
                        del clean[exps]
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: int(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "IntPolynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    @property
    def max_abs_coeff(self) -> int:
        if not self.terms:
            return 0
        return max(abs(c) for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Canonical order: total degree descending, then exponents descending."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, int):
            return IntPolynomial.constant(self.nvars, other)
        raise TypeError(f"cannot combine polynomial with {other!r}")

    def __add__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return IntPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return IntPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPolynomial.constant(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, values: Sequence[Union[int, Fraction]]):
        if len(values) != self.nvars:
            raise ValueError(
                f"expected {self.nvars} values, got {len(values)}"
            )
        total: Union[int, Fraction] = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    # -- comparison and display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial.constant(self.nvars, other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"IntPolynomial({self.nvars}, {format_polynomial(self)!r})"


def format_polynomial(p: IntPolynomial) -> str:
    """Canonical text form: terms like 3*z1^2*z2, joined with ' + ' / ' - '."""
    items = p.sorted_terms()
    if not items:
        return "0"
    pieces: list[str] = []
    for pos, (exps, coeff) in enumerate(items):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"z{i + 1}")
            elif e > 1:
                factors.append(f"z{i + 1}^{e}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if pos == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<body>
            (?:\d+)(?:\s*\*\s*z\d+(?:\^\d+)?)*
          | (?:z\d+(?:\^\d+)?)(?:\s*\*\s*z\d+(?:\^\d+)?)*
        )\s*""",
    re.VERBOSE,
)
_FACTOR_RE = re.compile(r"z(\d+)(?:\^(\d+))?")


def parse_polynomial(text: str, nvars: int | None = None) -> IntPolynomial:
    """Parse the term-sum polynomial format, e.g. '2*z1^2*z2 - z3 + 4'.

    Variables are z1, z2, ... and the variable count defaults to the largest
    index seen (at least 1).
    """
    text = text.strip()
    if not text:
        raise PolynomialParseError("empty polynomial text")
    pos = 0
    raw_terms: list[tuple[int, dict[int, int]]] = []
    max_index = 0
    first = True
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.start("body") == match.end("body"):
            raise PolynomialParseError(
                f"cannot parse polynomial at position {pos}: {text[pos:pos + 20]!r}"
            )
        if not first and match.group("sign") is None:
            raise PolynomialParseError(
                f"missing '+' or '-' before position {match.start('body')}"
            )
        first = False
        sign = -1 if match.group("sign") == "-" else 1
        body = match.group("body")
        coeff = 1
        exps: dict[int, int] = {}
        for factor in re.split(r"\s*\*\s*", body):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            fmatch = _FACTOR_RE.fullmatch(factor)
            if not fmatch:
                raise PolynomialParseError(f"bad factor {factor!r}")
            idx = int(fmatch.group(1))
            if idx < 1:
                raise PolynomialParseError(f"variable index must start at 1: {factor!r}")
            power = int(fmatch.group(2) or 1)
            exps[idx - 1] = exps.get(idx - 1, 0) + power
            max_index = max(max_index, idx)
        raw_terms.append((sign * coeff, exps))
        pos = match.end()
    k = nvars if nvars is not None else max(max_index, 1)
    if max_index > k:
        raise PolynomialParseError(
            f"polynomial uses z{max_index} but only {k} variables are allowed"
        )
    terms: dict[Exponents, int] = {}
    for coeff, exps in raw_terms:
        key = tuple(exps.get(i, 0) for i in range(k))
        terms[key] = terms.get(key, 0) + coeff
    return IntPolynomial(k, terms)


class RationalFunction:
    """A quotient of integer polynomials, kept unreduced."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: IntPolynomial, denominator: IntPolynomial):
        if numerator.nvars != denominator.nvars:
            raise ValueError("variable-count mismatch between numerator and denominator")
        if denominator.is_zero():
            raise ZeroDivisionError("denominator is identically zero")
        self.numerator = numerator
        self.denominator = denominator

    @property
    def degree(self) -> int:
        """Larger of the numerator and denominator total degrees."""
        return max(self.numerator.degree, self.denominator.degree)

    @property
    def max_abs_coeff(self) -> int:
        return max(self.numerator.max_abs_coeff, self.denominator.max_abs_coeff)

    def evaluate(self, values: Sequence[Union[int, Fraction]]) -> Fraction:
        den = self.denominator.evaluate(values)
        if den == 0:
            raise ZeroDivisionError(
                f"rational function undefined at {tuple(values)}: denominator vanishes"
            )
        return Fraction(self.numerator.evaluate(values), den)
