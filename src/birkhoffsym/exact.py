"""Exact rational arithmetic and linear algebra on integers.

Everything downstream (hull computations, rank tests, matrix groups) must be
exact: a single rounded pivot can change a face lattice.  A rational is
integers over one positive denominator from the text to the report: text
is read into an integer pair (`_rational_pair`), pairs are put over the
lcm of their denominators (`_over_lcm`) and a number is written from its
pair (`_format_over`).  A matrix is the pair (nums, den): its entries'
row-major integer numerators as a tuple over one positive denominator, in
lowest terms (`_matrix`), so tuple equality and the tuple hash compare
matrices exactly.  `_product` multiplies two square matrices, and the
matrices of a group share the lcm of their denominators
(`_common_form`).  Every elimination is fraction-free.

There is one row reduction, on integer rows: `_independent_rows`, a lazy
one-pass generator that keeps the greedy independent rows with their
pivot columns and reduced rows.  The hull's affine chart takes its
coordinates from it, the greedy independent columns of the differences
of its points, and `reppoly.matrix_closure` checks that a generator is
invertible by its rank.  No matrix is inverted: the double-description
start chooses its inequalities and their rays in one Gauss-Jordan pass
of its own, on lines.

Text form of a rational is "p/q" with q > 0, or just "p" when q == 1.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence


def _integer(text: str) -> int:
    """The value of a decimal literal, an optional minus sign and ASCII
    digits, no more than `int` converts; anything else raises ValueError
    naming the text.  Every reader of integers in input uses it."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {_shown(text)}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer too long: {_shown(text)}") from None


def _integers(texts: Sequence[str]) -> list[int]:
    """`_integer` of each text.  When the texts hold ASCII digits and
    minus signs only, `int` alone reads them in one C-level `map`."""
    joined = "".join(texts)
    if joined.isascii() and joined.replace("-", "").isdigit():
        try:
            return list(map(int, texts))
        except ValueError:  # a misplaced "-" or too many digits
            pass
    return list(map(_integer, texts))


def _shown(text: str) -> str:
    """`text` quoted for an error message, cut to 24 characters."""
    if len(text) <= 24:
        return repr(text)
    return f"{text[:24]!r}... ({len(text)} characters)"


def _rational_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or "p" (decimal integers, optional minus sign) into
    the pair (p, q) with q > 0, not reduced."""
    num, slash, den = text.strip().partition("/")
    try:
        p, q = _integer(num), _integer(den) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational literal: {_shown(text)}") from None
    if q == 0:
        raise ValueError(f"zero denominator: {_shown(text)}")
    return (-p, -q) if q < 0 else (p, q)


def _format_over(num: int, den: int) -> str:
    """The text of num / den for den > 0, reduced with one gcd: "p/q" with
    q > 1, or "p"."""
    g = gcd(num, den)
    if g != den:
        return f"{num // g}/{den // g}"
    return str(num // g)


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, L) for L the lcm of the denominators q > 0 of the pairs
    (p, q): each p / q as the integer p * (L / q) over L."""
    scale = lcm(*(q for _, q in pairs))
    return [p * (scale // q) for p, q in pairs], scale


def primitive_vector(values: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries.  The
    direction (sign pattern) is preserved; for an inequality normal,
    flipping signs would reverse the inequality, so only positive scaling
    is ever applied."""
    g = gcd(*values)
    if g == 0:
        raise ValueError("primitive_vector of zero vector")
    return tuple(values) if g == 1 else tuple([x // g for x in values])


def _matrix(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The matrix of the row-major integer numerators `nums` over `den` > 0
    as the pair (nums, den) in lowest terms, both divided by their gcd:
    `den` is then the lcm of the entries' reduced denominators, and two
    pairs are equal exactly when their entries are.  A non-`int` entry
    raises TypeError in `gcd`."""
    g = gcd(den, *nums)
    if g > 1:
        return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


def _product(a: tuple[tuple[int, ...], int], b: tuple[tuple[int, ...], int]
             ) -> tuple[tuple[int, ...], int]:
    """The product a b of two square matrices of one size, as a `_matrix`
    pair."""
    (x, p), (y, q) = a, b
    n = isqrt(len(x))
    cols = [y[j::n] for j in range(n)]
    return _matrix([sum(map(mul, x[i:i + n], c))
                    for i in range(0, n * n, n) for c in cols], p * q)


def _common_form(matrices: Iterable[tuple[tuple[int, ...], int]]
                 ) -> tuple[list[tuple[int, ...]], int]:
    """(rows, L) for L the lcm of the matrices' denominators and row k
    the integer entries of matrix k times L, row-major: every matrix over
    one denominator, in the order `hull.facet_enumeration` takes."""
    matrices = list(matrices)
    scale = lcm(*(den for _, den in matrices))
    return [nums if den == scale else tuple(x * (scale // den) for x in nums)
            for nums, den in matrices], scale


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
