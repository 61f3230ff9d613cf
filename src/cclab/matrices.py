"""Communication matrices, input distributions, and combinatorial rectangles.

Everything here is exact: Boolean and sign matrices hold small integer grids,
distributions hold `fractions.Fraction` weights, and rectangle enumeration is
exhaustive.  Sizes are capped at MAX_SIDE per side so that exhaustive loops
stay desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence, Union

MAX_SIDE = 12
# Cells of the largest shape whose every Boolean matrix may be enumerated;
# the perturbation operator scores each one.
BP_MAX_CELLS = 16


class MatrixFormatError(ValueError):
    """Malformed matrix text.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeGuardError(ValueError):
    """An input beyond one of the package's size guards; every guard raises
    this error."""


class DomainMismatchError(ValueError):
    """Objects over different rows x cols input domains cannot be combined."""


# The three domain decisions.  Every matrix, distribution, protocol and
# polynomial of the package is admitted, and matched against another, here.


def check_sides(rows: int, cols: int) -> None:
    """A rows x cols domain with positive sides of at most MAX_SIDE."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix sides must be positive, got {rows}x{cols}")
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise SizeGuardError(
            f"matrix sides {rows}x{cols} exceed the guard of {MAX_SIDE} per side"
        )


def check_cells(rows: int, cols: int) -> None:
    """At most BP_MAX_CELLS cells, for a scan of every rows x cols Boolean
    matrix."""
    if rows * cols > BP_MAX_CELLS:
        raise SizeGuardError(
            f"enumerating 2^{rows * cols} matrices exceeds the guard "
            f"of 2^{BP_MAX_CELLS}"
        )


def check_same_domain(first, others: Iterable) -> None:
    """Every object of `others` has the rows x cols domain of `first`."""
    domain = (first.rows, first.cols)
    for other in others:
        if (other.rows, other.cols) != domain:
            raise DomainMismatchError(
                f"domain mismatch: {first.rows}x{first.cols} "
                f"vs {other.rows}x{other.cols}"
            )


def _check_grid(rows: int, cols: int, grid: Sequence[Sequence], label: str) -> None:
    """Sides within the guard, and `grid` rows x cols; `label` names it."""
    check_sides(rows, cols)
    if len(grid) != rows:
        raise ValueError(f"{label} grid has the wrong number of rows")
    for row in grid:
        if len(row) != cols:
            raise ValueError(f"{label} grid has a ragged row")


@dataclass(frozen=True)
class _SymbolGrid:
    """A grid whose entries are the values of the class's `symbols`, the
    table that spells each entry in the text format of `kind`."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_grid(self.rows, self.cols, self.entries, "entry")
        values = set(self.symbols.values())
        if not values.issuperset(set().union(*self.entries)):
            v = next(v for row in self.entries for v in row if v not in values)
            raise ValueError(f"{self.kind} entry must be in {values}, got {v!r}")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]):
        grid = tuple(tuple(row) for row in entries)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)


class BooleanMatrix(_SymbolGrid):
    """A 0/1 matrix indexed by (row input, column input)."""

    kind = "bool"
    symbols = {"0": 0, "1": 1}

    def count_ones(self) -> int:
        return sum(sum(row) for row in self.entries)

    def to_sign(self) -> "SignMatrix":
        grid = tuple(tuple(1 - 2 * v for v in row) for row in self.entries)
        return SignMatrix(self.rows, self.cols, grid)


class SignMatrix(_SymbolGrid):
    """A +1/-1 matrix; +1 encodes the Boolean 0 and -1 the Boolean 1."""

    kind = "sign"
    symbols = {"+": 1, "-": -1}


Matrix = Union[BooleanMatrix, SignMatrix]


@dataclass(frozen=True)
class InputDistribution:
    """Exact probability weights over the cells of a rows x cols input grid."""

    rows: int
    cols: int
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_grid(self.rows, self.cols, self.weights, "weight")
        total = Fraction(0)
        for row in self.weights:
            for w in row:
                if not isinstance(w, Fraction):
                    raise ValueError("weights must be Fractions")
                if w < 0:
                    raise ValueError(f"weights must be nonnegative, got {w}")
                total += w
        if total != 1:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence[object]]) -> "InputDistribution":
        grid = tuple(tuple(Fraction(w) for w in row) for row in weights)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    @classmethod
    def uniform(cls, rows: int, cols: int) -> "InputDistribution":
        w = Fraction(1, rows * cols)
        return cls(rows, cols, tuple(tuple(w for _ in range(cols)) for _ in range(rows)))


@dataclass(frozen=True)
class Rectangle:
    """A combinatorial rectangle: a set of row inputs times a set of column inputs."""

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]

    def __post_init__(self):
        for name, idx in (("row_set", self.row_set), ("col_set", self.col_set)):
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"{name} must be strictly increasing, got {idx}")
            if any(i < 0 for i in idx):
                raise ValueError(f"{name} must contain nonnegative indices")


def all_boolean_matrices(rows: int, cols: int) -> Iterator[BooleanMatrix]:
    """Yield every rows x cols Boolean matrix once, in row-major
    lexicographic order of the entry sequence (all-zeros first)."""
    check_sides(rows, cols)
    check_cells(rows, cols)
    for bits in iter_product((0, 1), repeat=rows * cols):
        grid = tuple(bits[i * cols : (i + 1) * cols] for i in range(rows))
        yield BooleanMatrix(rows, cols, grid)


def _parse_header(lines: list[str]) -> tuple[type, int, int]:
    if not lines or not lines[0].strip():
        raise MatrixFormatError("missing header line", 1)
    parts = lines[0].split()
    if len(parts) != 3:
        raise MatrixFormatError(
            f"header must be '<kind> <rows> <cols>', got {lines[0]!r}", 1
        )
    kinds = {cls.kind: cls for cls in (BooleanMatrix, SignMatrix)}
    if parts[0] not in kinds:
        raise MatrixFormatError(
            f"unknown kind {parts[0]!r}, expected one of {tuple(kinds)}", 1
        )
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixFormatError(f"non-integer dimensions in header {lines[0]!r}", 1) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {rows}x{cols}", 1)
    return kinds[parts[0]], rows, cols


def _check_trailing(lines: list[str], first_unused: int) -> None:
    for offset, line in enumerate(lines[first_unused:]):
        if line.strip():
            raise MatrixFormatError(
                f"unexpected extra content {line!r}", first_unused + offset + 1
            )


def parse_matrix(text: str) -> Matrix:
    """Parse the plain-text matrix format.

    Header line '<kind> <rows> <cols>' with kind 'bool' or 'sign', then one
    line per row made of '0'/'1' or '+'/'-' symbols.  A trailing newline is
    optional.  Raises MatrixFormatError with a line number on any defect.
    """
    lines = text.split("\n")
    cls, rows, cols = _parse_header(lines)
    grid = []
    for i in range(rows):
        lineno = i + 2
        if i + 1 >= len(lines) or not lines[i + 1].strip():
            raise MatrixFormatError(f"missing row {i} of {rows}", lineno)
        raw = lines[i + 1].strip()
        if len(raw) != cols:
            raise MatrixFormatError(
                f"row has {len(raw)} symbols, expected {cols}", lineno
            )
        row = []
        for j, ch in enumerate(raw):
            if ch not in cls.symbols:
                raise MatrixFormatError(
                    f"bad symbol {ch!r} at column {j} for kind {cls.kind!r}", lineno
                )
            row.append(cls.symbols[ch])
        grid.append(tuple(row))
    _check_trailing(lines, rows + 1)
    return cls(rows, cols, tuple(grid))


def serialize_matrix(matrix: Matrix) -> str:
    """Canonical text form of a matrix; `parse_matrix` inverts it exactly."""
    symbol = {v: ch for ch, v in matrix.symbols.items()}
    lines = [f"{matrix.kind} {matrix.rows} {matrix.cols}"]
    lines += ("".join(symbol[v] for v in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"
