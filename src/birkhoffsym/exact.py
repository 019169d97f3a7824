"""Exact rational arithmetic and linear algebra.

Everything downstream (hull computations, rank tests, matrix groups) must be
exact: a single rounded pivot can change a face lattice.  Numbers are
`fractions.Fraction`, which keeps values auto-reduced with a positive
denominator, so equality is literal equality.  Matrices are immutable
row-major tuples.

There is one row reduction, `_independent_rows`: a lazy one-pass
generator that keeps the greedy independent rows with their reduced
forms and pivot columns.  `rank` counts its rows, `inverse` reduces
[M | I] with it, and the hull's affine chart and double-description start
take their rows and pivots from it.

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


def _independent_rows(vectors: Iterable[Sequence[Fraction]]
                      ) -> Iterator[tuple[int, Sequence[Fraction],
                                          list[Fraction], int]]:
    """Yield (position, vector, reduced, pivot) for the greedy independent
    subsequence: the one row reduction of this module.

    One pass: each vector is reduced against the ones kept before it and
    is kept when a nonzero remainder is left, which picks the same vectors
    as one rank test per vector.  `reduced` is that remainder scaled so
    its entry at `pivot`, its first nonzero column, is 1; it is zero at
    the pivot of every row kept before it.  So the kept rows sorted by
    pivot are an echelon form of the span, and the pivot set is the one
    any elimination finds.  Lazy, so a caller can stop as soon as it has
    enough, or too many.
    """
    kept = []  # (reduced, pivot)
    for i, v in enumerate(vectors):
        rem = v
        for row, c in kept:
            f = rem[c]
            if f:
                rem = [a - f * b for a, b in zip(rem, row)]
        pivot = next((c for c, x in enumerate(rem) if x), None)
        if pivot is None:
            continue
        pv = rem[pivot]
        reduced = [x / pv for x in rem]
        kept.append((reduced, pivot))
        yield i, v, reduced, pivot


def rank(matrix: RationalMatrix | Sequence[Sequence]) -> int:
    """Exact rank: the number of rows `_independent_rows` keeps."""
    if isinstance(matrix, RationalMatrix):
        rows = (matrix.row(i) for i in range(matrix.rows))
    else:
        rows = ([Fraction(e) for e in r] for r in matrix)
    return sum(1 for _ in _independent_rows(rows))


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
    """Exact inverse of a square invertible matrix: reduce [M | I] in one
    pass, then clear each kept row at the pivots of the rows kept after
    it, which leaves the row of [I | M^-1] at its pivot."""
    n = matrix.rows
    if matrix.cols != n:
        raise ValueError("inverse of non-square matrix")
    augmented = [list(matrix.row(i)) + [Fraction(int(j == i)) for j in range(n)]
                 for i in range(n)]
    kept = []
    for _, _, row, pivot in _independent_rows(augmented):
        if pivot >= n:
            raise ValueError("matrix is singular")
        kept.append((row, pivot))
    out: list = [None] * n
    done = []  # rows already zero at every other pivot
    for row, pivot in reversed(kept):
        for later, c in done:
            f = row[c]
            if f:
                row = [a - f * b for a, b in zip(row, later)]
        done.append((row, pivot))
        out[pivot] = row[n:]
    return RationalMatrix.from_rows(out)
