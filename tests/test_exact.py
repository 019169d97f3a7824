"""Tests for exact rational arithmetic and linear algebra, with sympy as
the independent oracle for rank / inverse."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import hull
from birkhoffsym.exact import (_format_over, _independent_rows, _matrix,
                               _over_lcm, _product, _rational_pair,
                               primitive_vector)

from hull_oracle import entries, integer_form, rational_matrix

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def matrix_of(rows):
    """The matrix with these rows of rationals."""
    return rational_matrix([x for r in rows for x in r])


def test_parse_rational_forms():
    # the integer pair as written, with the sign moved to the numerator
    assert _rational_pair("3") == (3, 1)
    assert _rational_pair("-7") == (-7, 1)
    assert _rational_pair("2/4") == (2, 4)
    assert _rational_pair("-2/4") == (-2, 4)
    assert _rational_pair("6/-4") == (-6, 4)
    assert _rational_pair("-6/-9") == (6, 9)
    assert _rational_pair("  5/3 ") == (5, 3)


@pytest.mark.parametrize("bad", ["", "x", "1.5", "1/2/3", "1/ 2", "++1"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError, match="not a rational literal"):
        _rational_pair(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        _rational_pair("1/0")


@given(rationals)
def test_format_parse_roundtrip(x):
    text = _format_over(x.numerator, x.denominator)
    assert _rational_pair(text) == (x.numerator, x.denominator)


def rational_text(sign, digits, zeros):
    return ("-" if sign else "") + "0" * zeros + str(digits)


big = st.one_of(st.sampled_from([0, 1]), st.integers(0, 10 ** 30))


@given(st.booleans(), big, st.integers(0, 3), st.none() | st.tuples(
    st.booleans(), big.filter(bool), st.integers(0, 3)), st.booleans())
def test_integer_parse_and_render_match_the_fraction_path(
        sign, p, zeros, denominator, padded):
    # negative and unit denominators, zero, leading zeros, 30 digits; the
    # reference value is built from the parts the text was written from
    text = rational_text(sign, p, zeros)
    want = Fraction(-p if sign else p)
    if denominator is not None:
        text += "/" + rational_text(*denominator)
        want /= -denominator[1] if denominator[0] else denominator[1]
    if padded:
        text = f"  {text} "
    num, den = _rational_pair(text)
    assert den > 0 and Fraction(num, den) == want
    assert _format_over(num, den) == (
        str(want.numerator) if want.denominator == 1
        else f"{want.numerator}/{want.denominator}")


@pytest.mark.parametrize("bad", ["1/0", "-3/-0", "0/000", "", "x", "1.5",
                                 "1/2/3", "1/ 2", "++1", "1e3", "0x10"])
def test_integer_parse_refuses_what_parse_rational_refuses(bad):
    with pytest.raises(ValueError):
        _rational_pair(bad)


def test_format_rational_plain_integers():
    assert _format_over(4, 2) == "2"
    assert _format_over(-9, 3) == "-3"
    assert _format_over(1, 3) == "1/3"
    assert _format_over(-6, 4) == "-3/2"


def test_format_rational_of_an_int():
    assert _format_over(7, 1) == "7"
    assert _format_over(-12, 1) == "-12"
    assert _format_over(0, 5) == "0"


def test_floats_are_refused_at_the_boundary():
    # a rational is integers over a positive denominator: a float, a
    # Fraction or a string as a numerator is refused, not converted
    for bad in (0.5, 1.0, Fraction(1, 2), "1/2", None):
        with pytest.raises(TypeError):
            _matrix([1, bad], 1)
        with pytest.raises(TypeError):
            primitive_vector([1, bad])
        with pytest.raises(TypeError, match="is not an int"):
            hull.facet_enumeration([(0, 0), (1, bad)])


def test_primitive_vector_of_ints_reads_no_denominators():
    # every double-description ray is all-int: it is divided by its gcd
    assert primitive_vector((4, -6, 0)) == (2, -3, 0)
    assert primitive_vector([0, 5]) == (0, 1)
    assert primitive_vector((3, 7)) == (3, 7)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_primitive_vector_cases():
    assert primitive_vector((2, 4)) == (1, 2)
    assert primitive_vector((-2, 4)) == (-1, 2)
    assert primitive_vector((0, 5)) == (0, 1)
    assert primitive_vector([-9]) == (-1,)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
       st.integers(1, 20))
def test_primitive_vector_scale_invariant(vec, scale):
    if all(v == 0 for v in vec):
        return
    a = primitive_vector(vec)
    assert a == primitive_vector(tuple(scale * v for v in vec))
    assert all(type(x) is int for x in a)
    assert math.gcd(*a) == 1
    # same direction: original = positive multiple of primitive
    nz = next(i for i, v in enumerate(vec) if v != 0)
    ratio = Fraction(vec[nz], a[nz])
    assert ratio > 0
    assert tuple(ratio * x for x in a) == tuple(vec)


matrices_3 = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3)


@given(matrices_3, matrices_3)
@settings(max_examples=40)
def test_matrix_product_matches_sympy(a_rows, b_rows):
    a = matrix_of(a_rows)
    b = matrix_of(b_rows)
    got = _product(a, b)
    want = sympy.Matrix(a_rows) * sympy.Matrix(b_rows)
    assert entries(got) == tuple(Fraction(str(x)) for x in want)


@given(st.lists(st.lists(rationals, min_size=2, max_size=4),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60)
def test_rank_matches_sympy(rows):
    cleared = [integer_form(r)[0] for r in rows]
    assert (sum(1 for _ in _independent_rows(cleared))
            == sympy.Matrix(rows).rank())


def random_rows(rng, rows, cols, den=5):
    # sparse entries, so some pivots need a later row
    return [[Fraction(rng.choice((0, 0, rng.randint(-9, 9))), rng.randint(1, den))
             for _ in range(cols)] for _ in range(rows)]


def assert_start_rays_are_inverse_columns(rows):
    """d independent inequalities in d coordinates leave the double
    description nothing to insert, so its rays are its start: each must
    be a column of M^-1 scaled by a positive factor to a primitive
    integer vector.  A rational M enters as its integer numerators N = qM
    (q > 0), whose inverse has the same columns up to the factor 1/q."""
    n = len(rows)
    flat, _ = integer_form([x for r in rows for x in r])
    rays = hull._dd_extreme_rays([flat[i * n:(i + 1) * n] for i in range(n)])
    inv = sympy.Matrix(rows).inv()
    assert len(rays) == n
    for j, ray in enumerate(rays):
        column = [Fraction(str(x)) for x in inv.col(j)]
        k = next(i for i, x in enumerate(column) if x)
        factor = ray[k] / column[k]
        assert factor > 0
        assert list(ray) == [factor * x for x in column]
        assert math.gcd(*ray) == 1


@given(matrices_3)
@settings(max_examples=40)
def test_inverse_matches_sympy(rows):
    if sympy.Matrix(rows).det() == 0:
        flat, _ = integer_form([x for r in rows for x in r])
        with pytest.raises(ValueError, match="not pointed"):
            hull._dd_extreme_rays([flat[0:3], flat[3:6], flat[6:9]])
        return
    assert_start_rays_are_inverse_columns(rows)


def test_dd_start_rays_are_the_inverse_columns():
    rng = random.Random(20261018)
    negative = 0
    for size in list(range(1, 10)) * 20:
        while True:
            # sparse entries, so some pivots need a later row
            rows = [[rng.choice((0, 0, rng.randint(-9, 9)))
                     for _ in range(size)] for _ in range(size)]
            det = int(sympy.Matrix(rows).det())
            if det:
                break
        negative += det < 0
        assert_start_rays_are_inverse_columns(rows)
    assert negative > 0


def test_inverse_rejects_a_singular_matrix():
    # third row = first + second, and column 0 has its first nonzero
    # entry in the second row
    rows = [(0, 2, 1), (3, 1, 0), (3, 3, 1)]
    assert sympy.Matrix(rows).det() == 0
    assert sympy.Matrix(rows).rank() == 2
    with pytest.raises(ValueError, match="not pointed"):
        hull._dd_extreme_rays(rows)


def test_integer_products_match_sympy():
    rng = random.Random(12)
    for size in [1, 2, 3, 4, 6] * 4:
        a_rows = random_rows(rng, size, size, 7)
        b_rows = random_rows(rng, size, size, 9)
        got = _product(matrix_of(a_rows), matrix_of(b_rows))
        want = sympy.Matrix(a_rows) * sympy.Matrix(b_rows)
        assert entries(got) == tuple(Fraction(str(x)) for x in want)
        # numerators over the lcm of the entry denominators, as a matrix
        # built from those entries holds them
        built = rational_matrix(entries(got))
        assert got == built and hash(got) == hash(built)


def fraction_product(a, b):
    # the textbook product, in Fraction arithmetic
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def assert_holds(got, want_rows):
    # the canonical form of a product is the one a matrix built from
    # the Fraction entries holds: equal, equally hashed, with the same
    # entries and the same integer form
    want = matrix_of(want_rows)
    assert got == want and hash(got) == hash(want)
    nums, den = got
    assert den > 0 and math.gcd(den, *nums) == 1
    assert entries(got) == tuple(x for row in want_rows for x in row)


def test_canonical_form_of_products():
    rng = random.Random(20261019)
    for size in [1, 2, 3, 4, 5] * 6:
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              for _ in range(size)] for _ in range(size)]
        b = random_rows(rng, size, size, 4)
        ma, mb = matrix_of(a), matrix_of(b)
        assert_holds(_product(ma, mb), fraction_product(a, b))
    # the hash ignores how a matrix was made: numerators with a common
    # factor, a product, an identity
    assert hash(matrix_of([[Fraction(2, 4), 1]])) == hash(
        matrix_of([[Fraction(1, 2), Fraction(3, 3)]]))
    two = matrix_of([[2, 0], [0, 2]])
    half = matrix_of([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert _product(two, half) == ((1, 0, 0, 1), 1)
    assert hash(_product(two, half)) == hash(matrix_of([[1, 0], [0, 1]]))


def test_clear_denominators():
    # pairs as read, reduced or not, over the lcm of their denominators
    assert _over_lcm([(1, 2), (-2, 3), (4, 1)]) == ([3, -4, 24], 6)
    assert _over_lcm([(2, 4), (3, 6)]) == ([6, 6], 12)
    assert _over_lcm([(0, 1), (0, 1)]) == ([0, 0], 1)
    assert _over_lcm([]) == ([], 1)


def test_matrix_is_held_in_lowest_terms():
    # numerators and denominator divided by their gcd, as a tuple pair
    assert _matrix([2, 4, 6, -3], 4) == ((2, 4, 6, -3), 4)
    assert _matrix([2, 4, 6, 8], 4) == ((1, 2, 3, 4), 2)
    assert _matrix([3, 0, 0, 3], 3) == ((1, 0, 0, 1), 1)
    assert _matrix([0, 0, 0, 0], 6) == ((0, 0, 0, 0), 1)
