"""Exact rational arithmetic and linear algebra on integers.

Everything downstream (hull computations, rank tests, matrix groups) must be
exact: a single rounded pivot can change a face lattice.  A rational is
carried as integers over one positive denominator wherever the package
passes it on: text is read into an integer pair (`_rational_pair`) and
written from one (`_format_over`), a matrix keeps only its entries'
integer numerators over one common denominator, and the matrices of a
group share the lcm of theirs (`_common_form`).  `Fraction` is kept only
where a caller passes or reads one: `parse_rational`, `format_rational`,
the entries of a `RationalMatrix` (built the first time they are read, so
products, hashing and equality build none) and `as_fraction_vector`,
which refuses floats and any other non-rational with TypeError.  A
rational vector is scaled once by the lcm of its denominators
(`clear_denominators`), and every elimination is fraction-free.
Matrices are immutable row-major tuples.

There is one row reduction, on integer rows: `_independent_rows`, a lazy
one-pass generator that keeps the greedy independent rows with their
pivot columns and reduced rows.  The hull's affine chart takes its pivots
from it, the double-description start its independent inequalities and,
from two more passes over [N | I], the columns of N^-1, and
`reppoly.matrix_closure` checks that a generator is invertible by its
rank.

Text form of a rational is "p/q" with q > 0, or just "p" when q == 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator, Sequence

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def _rational_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" (integers, optional sign) into the pair (p, q)
    with q > 0, not reduced."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) is not None else 1
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return (-p, -q) if q < 0 else (p, q)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (integers, optional sign) into a Fraction."""
    return Fraction(*_rational_pair(text))


def format_rational(x: Fraction | int) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if type(x) is int:
        return str(x)
    if type(x) is not Fraction:
        (x,) = as_fraction_vector((x,))
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _format_over(num: int, den: int) -> str:
    """The text of num / den for den > 0, as `format_rational` writes it,
    reduced with one gcd."""
    g = gcd(num, den)
    if g != den:
        return f"{num // g}/{den // g}"
    return str(num // g)


def as_fraction_vector(values: Iterable) -> tuple[Fraction, ...]:
    """The values as Fractions.  Only rationals are accepted: a float (or
    any other non-`numbers.Rational`) raises TypeError rather than enter
    exact arithmetic as its binary expansion."""
    out = []
    for v in values:
        if type(v) is not Fraction:
            if type(v) is not int and not isinstance(v, Rational):
                raise TypeError(
                    f"not an exact rational: {v!r} of type {type(v).__name__}")
            v = Fraction(v)
        out.append(v)
    return tuple(out)


def clear_denominators(values: Iterable[Fraction | int]
                       ) -> tuple[int, tuple[int, ...]]:
    """(L, L * values) for L the lcm of the denominators, the least
    positive scale that makes every entry an integer.  Reads numerators
    and denominators only; no Fraction arithmetic."""
    values = tuple(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def primitive_vector(values: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational so entries are
    integers with gcd 1.  The direction (sign pattern) is preserved; for an
    inequality normal, flipping signs would reverse the inequality, so only
    positive scaling is ever applied.  An all-`int` vector, such as every
    ray of the double description, is divided by its gcd directly.
    """
    if all(type(x) is int for x in values):
        ints = tuple(values)
    else:
        _, ints = clear_denominators(values)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("primitive_vector of zero vector")
    return ints if g == 1 else tuple(x // g for x in ints)


class RationalMatrix:
    """Immutable dense matrix over the rationals, row-major.

    A matrix holds only its canonical form: the integer numerators `_num`
    over the one common denominator `_den` > 0, the lcm of the entries'
    reduced denominators.  Products, equality and the hash are
    computed on that form, which is equal exactly when the entries are.
    `entries`, the Fractions, are built on first read and kept."""

    __slots__ = ("rows", "cols", "_entries", "_num", "_den", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self._entries = as_fraction_vector(entries)
        if len(self._entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self._den, self._num = clear_denominators(self._entries)
        self._hash = None

    @classmethod
    def _over(cls, rows: int, cols: int, nums: Sequence[int],
              den: int) -> "RationalMatrix":
        """The matrix nums / den for integers nums and den > 0."""
        g = gcd(den, *nums)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        # after dividing by the common gcd, den is the lcm of the entries'
        # reduced denominators, as __init__ would have found it
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self._num = tuple(nums)
        self._den = den
        self._hash = None
        self._entries = None
        return self

    @property
    def entries(self) -> tuple[Fraction, ...]:
        if self._entries is None:
            den = self._den
            self._entries = (tuple(map(Fraction, self._num)) if den == 1
                             else tuple(Fraction(x, den) for x in self._num))
        return self._entries

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._over(n, n, [int(i == j) for i in range(n) for j in range(n)], 1)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a, b, k, w = self._num, other._num, self.cols, other.cols
        cols = [b[j::w] for j in range(w)]
        out = [sum(map(mul, a[i * k:(i + 1) * k], c))
               for i in range(self.rows) for c in cols]
        return RationalMatrix._over(self.rows, w, out, self._den * other._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._den, self._num))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == RationalMatrix.identity(self.rows)


def _common_form(matrices: Iterable[RationalMatrix]
                 ) -> tuple[int, list[tuple[int, ...]]]:
    """(L, rows) for L the lcm of the matrices' denominators and row k
    the integer entries of matrix k times L, row-major: every matrix over
    one denominator, with no Fraction built."""
    matrices = list(matrices)
    scale = lcm(*(m._den for m in matrices))
    return scale, [m._num if m._den == scale
                   else tuple(x * (scale // m._den) for x in m._num)
                   for m in matrices]


def _independent_rows(vectors: Iterable[Sequence[int]]
                      ) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (position, pivot, row) for the greedy independent subsequence
    of integer vectors: the one row reduction of this module.

    Each vector is reduced, fraction-free, against the rows kept before
    it and is kept when a nonzero remainder is left, which picks the same
    vectors as one rank test per vector.  A remainder is cleared at a
    kept row's pivot c by rem <- row[c] * rem - rem[c] * row, a nonzero
    multiple of the rational elimination step, so every zero pattern and
    pivot is the one the rational elimination finds.  The kept `row` is
    the remainder divided by its gcd; `pivot` is its first nonzero column,
    and it is zero at the pivot of every row kept before it.  So the kept
    rows sorted by pivot are an echelon form of the span, and fed through
    again in descending pivot order they come out zero at every pivot but
    their own.  Lazy, so a caller can stop as soon as it has enough, or
    too many.  The caller must not modify a yielded row.
    """
    kept = []  # (primitive remainder, pivot)
    for i, v in enumerate(vectors):
        rem = v
        for row, c in kept:
            f = rem[c]
            if f:
                p = row[c]
                rem = [p * a - f * b for a, b in zip(rem, row)]
        pivot = next((c for c, x in enumerate(rem) if x), None)
        if pivot is None:
            continue
        g = gcd(*rem)
        row = [x // g for x in rem]
        kept.append((row, pivot))
        yield i, pivot, row
