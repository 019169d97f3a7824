"""Exact rational arithmetic and linear algebra.

Everything downstream (hull computations, rank tests, matrix groups) must be
exact: a single rounded pivot can change a face lattice.  Numbers are
`fractions.Fraction`, which keeps values auto-reduced with a positive
denominator, so equality is literal equality.  Matrices are immutable
row-major tuples; elimination routines copy into lists of lists internally.

Text form of a rational is "p/q" with q > 0, or just "p" when q == 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (integers, optional sign) into a Fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) is not None else 1
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction | int) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_fraction_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot of vectors with different lengths")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v))


def primitive_vector(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonzero rational vector by a positive rational so entries are
    integers with gcd 1.  The direction (sign pattern) is preserved; for an
    inequality normal, flipping signs would reverse the inequality, so only
    positive scaling is ever applied.
    """
    vals = [Fraction(v) for v in values]
    if all(v == 0 for v in vals):
        raise ValueError("primitive_vector of zero vector")
    denom_lcm = 1
    for v in vals:
        d = v.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(v * denom_lcm) for v in vals]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(Fraction(n // g) for n in ints)


class RationalMatrix:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(Fraction(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, row_data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(row_data)
        cols = len(row_data[0]) if rows else 0
        if any(len(r) != cols for r in row_data):
            raise ValueError("ragged rows")
        return cls(rows, cols, (e for r in row_data for e in r))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, (Fraction(1) if i == j else Fraction(0)
                          for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j::self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        other_cols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            for c in other_cols:
                out.append(dot(r, c))
        return RationalMatrix(self.rows, other.cols, out)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RationalMatrix.identity(self.rows)


def _eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place forward elimination.  Returns (rows, pivot column indices).

    Pivot choice is the first nonzero entry scanning columns left to right,
    rows top to bottom; exact arithmetic makes the choice a determinism
    concern only, not a stability one.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                row_i = rows[i]
                row_r = rows[r]
                for j in range(c, ncols):
                    row_i[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _independent_rows(vectors: Iterable[Sequence[Fraction]]
                      ) -> Iterator[tuple[int, Sequence[Fraction]]]:
    """Yield (position, vector) for the greedy independent subsequence.

    One pass: each vector is reduced against the ones kept before it and
    is kept when a nonzero remainder is left, which picks the same vectors
    as one rank test per vector.  Lazy, so a caller can stop as soon as
    it has enough, or too many.
    """
    reduced = []  # (remainder scaled to pivot 1, its pivot column)
    for i, v in enumerate(vectors):
        rem = v
        for row, c in reduced:
            f = rem[c]
            if f:
                rem = [a - f * b for a, b in zip(rem, row)]
        pivot = next((c for c, x in enumerate(rem) if x), None)
        if pivot is None:
            continue
        pv = rem[pivot]
        reduced.append(([x / pv for x in rem], pivot))
        yield i, v


def rank(matrix: RationalMatrix | Sequence[Sequence]) -> int:
    """Exact rank by fraction-free-in-spirit Gaussian elimination."""
    if isinstance(matrix, RationalMatrix):
        rows = matrix.row_list()
    else:
        rows = [[Fraction(e) for e in r] for r in matrix]
    _, pivots = _eliminate(rows)
    return len(pivots)


def affine_dimension(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of a nonempty point set.

    A single point has affine dimension 0.  Raises ValueError on an empty
    input because the empty affine hull has no meaningful dimension here.
    """
    if len(points) == 0:
        raise ValueError("affine_dimension of empty point set")
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    if not diffs:
        return 0
    return rank(diffs)


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square invertible matrix (Gauss-Jordan)."""
    n = matrix.rows
    if matrix.cols != n:
        raise ValueError("inverse of non-square matrix")
    rows = [list(matrix.row(i)) + [Fraction(1) if j == i else Fraction(0)
                                   for j in range(n)] for i in range(n)]
    rows, pivots = _eliminate(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    for i in range(n - 1, -1, -1):
        pv = rows[i][i]
        rows[i] = [e / pv for e in rows[i]]
        for k in range(i):
            f = rows[k][i]
            if f != 0:
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
    return RationalMatrix.from_rows([r[n:] for r in rows])
