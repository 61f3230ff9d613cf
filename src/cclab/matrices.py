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
from typing import Iterator, Sequence, Union

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
    """Requested dimensions exceed the exhaustive-computation guard."""


def _check_sides(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix sides must be positive, got {rows}x{cols}")
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise SizeGuardError(
            f"matrix sides {rows}x{cols} exceed the guard of {MAX_SIDE} per side"
        )


def _freeze_grid(entries: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in entries)


@dataclass(frozen=True)
class BooleanMatrix:
    """A 0/1 matrix indexed by (row input, column input)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_sides(self.rows, self.cols)
        if len(self.entries) != self.rows:
            raise ValueError("entry grid has the wrong number of rows")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid has a ragged row")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"Boolean entry must be 0 or 1, got {v!r}")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "BooleanMatrix":
        grid = _freeze_grid(entries)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    def count_ones(self) -> int:
        return sum(sum(row) for row in self.entries)

    def to_sign(self) -> "SignMatrix":
        grid = tuple(tuple(1 - 2 * v for v in row) for row in self.entries)
        return SignMatrix(self.rows, self.cols, grid)


@dataclass(frozen=True)
class SignMatrix:
    """A +1/-1 matrix; +1 encodes the Boolean 0 and -1 the Boolean 1."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_sides(self.rows, self.cols)
        if len(self.entries) != self.rows:
            raise ValueError("entry grid has the wrong number of rows")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid has a ragged row")
            for v in row:
                if v not in (-1, 1):
                    raise ValueError(f"sign entry must be +1 or -1, got {v!r}")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "SignMatrix":
        grid = _freeze_grid(entries)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    def to_boolean(self) -> BooleanMatrix:
        grid = tuple(tuple((1 - v) // 2 for v in row) for row in self.entries)
        return BooleanMatrix(self.rows, self.cols, grid)


Matrix = Union[BooleanMatrix, SignMatrix]


@dataclass(frozen=True)
class InputDistribution:
    """Exact probability weights over the cells of a rows x cols input grid."""

    rows: int
    cols: int
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_sides(self.rows, self.cols)
        if len(self.weights) != self.rows:
            raise ValueError("weight grid has the wrong number of rows")
        total = Fraction(0)
        for row in self.weights:
            if len(row) != self.cols:
                raise ValueError("weight grid has a ragged row")
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

    def cells(self) -> Iterator[tuple[int, int]]:
        for x in self.row_set:
            for y in self.col_set:
                yield (x, y)


def all_boolean_matrices(rows: int, cols: int) -> Iterator[BooleanMatrix]:
    """Yield every rows x cols Boolean matrix once, in row-major
    lexicographic order of the entry sequence (all-zeros first)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix sides must be positive, got {rows}x{cols}")
    if rows * cols > BP_MAX_CELLS:
        raise SizeGuardError(
            f"enumerating 2^{rows * cols} matrices exceeds the guard "
            f"of 2^{BP_MAX_CELLS}"
        )
    for bits in iter_product((0, 1), repeat=rows * cols):
        grid = tuple(bits[i * cols : (i + 1) * cols] for i in range(rows))
        yield BooleanMatrix(rows, cols, grid)


_BOOL_SYMBOLS = {"0": 0, "1": 1}
_SIGN_SYMBOLS = {"+": 1, "-": -1}


def _split_lines(text: Union[str, bytes]) -> list[str]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"input is not valid UTF-8: {exc}") from None
    return text.split("\n")


def _parse_header(lines: list[str]) -> tuple[str, int, int]:
    if not lines or not lines[0].strip():
        raise MatrixFormatError("missing header line", 1)
    parts = lines[0].split()
    if len(parts) != 3:
        raise MatrixFormatError(
            f"header must be '<kind> <rows> <cols>', got {lines[0]!r}", 1
        )
    kind = parts[0]
    kinds = ("bool", "sign")
    if kind not in kinds:
        raise MatrixFormatError(f"unknown kind {kind!r}, expected one of {kinds}", 1)
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixFormatError(f"non-integer dimensions in header {lines[0]!r}", 1) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {rows}x{cols}", 1)
    return kind, rows, cols


def _check_trailing(lines: list[str], first_unused: int) -> None:
    for offset, line in enumerate(lines[first_unused:]):
        if line.strip():
            raise MatrixFormatError(
                f"unexpected extra content {line!r}", first_unused + offset + 1
            )


def parse_matrix(text: Union[str, bytes]) -> Matrix:
    """Parse the plain-text matrix format.

    Header line '<kind> <rows> <cols>' with kind 'bool' or 'sign', then one
    line per row made of '0'/'1' or '+'/'-' symbols.  A trailing newline is
    optional.  Raises MatrixFormatError with a line number on any defect.
    """
    lines = _split_lines(text)
    kind, rows, cols = _parse_header(lines)
    symbols = _BOOL_SYMBOLS if kind == "bool" else _SIGN_SYMBOLS
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
            if ch not in symbols:
                raise MatrixFormatError(
                    f"bad symbol {ch!r} at column {j} for kind {kind!r}", lineno
                )
            row.append(symbols[ch])
        grid.append(tuple(row))
    _check_trailing(lines, rows + 1)
    if kind == "bool":
        return BooleanMatrix(rows, cols, tuple(grid))
    return SignMatrix(rows, cols, tuple(grid))


def serialize_matrix(matrix: Matrix) -> str:
    """Canonical text form of a matrix; `parse_matrix` inverts it exactly."""
    if isinstance(matrix, BooleanMatrix):
        kind, symbol = "bool", {0: "0", 1: "1"}
    elif isinstance(matrix, SignMatrix):
        kind, symbol = "sign", {1: "+", -1: "-"}
    else:
        raise TypeError(f"not a matrix: {matrix!r}")
    lines = [f"{kind} {matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append("".join(symbol[v] for v in row))
    return "\n".join(lines) + "\n"
