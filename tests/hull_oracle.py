"""Reference hulls used to cross-check facet_enumeration.

The brute-force facet oracle is independent of the package under test:
all linear algebra is sympy, and the algorithm is the naive one: try
every hyperplane spanned by input subsets, keep those with all points on
one side.  Only sensible at toy scale (n <= 8 points, affine dimension
<= 3).  `validate_polytope` checks a finished hull's invariants the
same way, in Fraction and sympy, and `maps_rows_onto_rows` tests one
vertex map against a set of tight sets directly.  Tight sets are vertex
masks, as the package holds them (`masks`), and read out into frozensets
where a check walks their members.

`fraction_facet_enumeration` is the package's double description as it
ran on Fractions before it moved to integers; it borrows only the
package's output types (a Polytope holds its points as integer rows over
one denominator, and a Facet its primitive integer inequality) and must
reproduce the integer hull exactly.  `affine_chart_by_rows` and
`dd_extreme_rays_by_inverse` are the package's integer chart and double
description as they were before the chart took greedy columns and the
start took Gauss-Jordan on lines; the package must give the same pivots
and the same rays in the same order.

The package takes and gives rationals only as integers over one
denominator.  The converters below (`integer_form`, `integer_points`,
`hull_of`, `birkhoff_rows`, `rational_matrix`, `entries`, `points_of`)
give the tests, which state their cases in Fractions, that form and
back.  `birkhoff_hull` hulls B_n with the hull's bounds lifted to its
own sizes for that one call; the package certifies B_n's facets with no
hull.
"""

import itertools
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from operator import mul
from typing import Optional, Sequence
from unittest import mock

import sympy

from birkhoffsym import hull
from birkhoffsym.birkhoff import birkhoff_vertices
from birkhoffsym.errors import PreconditionError
from birkhoffsym.exact import _independent_rows, _matrix, primitive_vector
from birkhoffsym.hull import (Facet, IncidenceStructure, Polytope,
                              facet_enumeration)
from masks import mask, members


def integer_form(values):
    """(nums, L): the rationals as integers over the lcm L of their
    reduced denominators."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def integer_points(points):
    """(rows, L): the rational points as integer rows over one
    denominator, the form facet_enumeration takes."""
    nums, scale = integer_form([x for p in points for x in p])
    cells = iter(nums)
    return [tuple(itertools.islice(cells, len(p))) for p in points], scale


def hull_of(points):
    """facet_enumeration of rational points."""
    return facet_enumeration(*integer_points(points))


def birkhoff_rows(n):
    """B_n's vertices as integer rows; a permutation matrix is over 1."""
    return [nums for nums, _ in birkhoff_vertices(n)]


def birkhoff_hull(n):
    """facet_enumeration of B_n with the hull's bounds lifted, for this
    call only, to its own sizes: n! points in dimension (n - 1)^2."""
    with mock.patch.multiple(hull, MAX_VERTICES=factorial(n),
                             MAX_DIM=(n - 1) ** 2):
        return facet_enumeration(birkhoff_rows(n))


def rational_matrix(values):
    """The matrix pair (nums, den) of these rationals, row-major."""
    return _matrix(*integer_form(values))


def entries(matrix):
    """A matrix pair's entries as Fractions, row-major."""
    nums, den = matrix
    return tuple(Fraction(x, den) for x in nums)


def points_of(polytope):
    """A Polytope's points as Fraction tuples: its rows over its scale."""
    return [tuple(Fraction(x, polytope.scale) for x in row)
            for row in polytope.rows]


def _row(point):
    return [sympy.Rational(x) for x in point]


def affine_dim(points) -> int:
    p0 = _row(points[0])
    diffs = [[a - b for a, b in zip(_row(p), p0)] for p in points[1:]]
    if not diffs:
        return 0
    return sympy.Matrix(diffs).rank()


def _affine_values(basis, points):
    """Values at `points` of the affine functional that is 0 on
    basis[:-1] and -1 on basis[-1].

    basis must be affinely independent and span the affine hull of
    points, so each point has unique affine coordinates over it.
    """
    k = len(basis)
    q = sympy.Matrix([_row(b) + [1] for b in basis]).T  # (m+1) x k
    pivots = q.T.rref()[1]  # independent rows of q
    rows = list(pivots)
    inv = q[rows, :].inv()
    vals = []
    for p in points:
        rhs_full = sympy.Matrix(_row(p) + [1])
        c = inv * rhs_full[rows, :]
        assert q * c == rhs_full, "point outside the affine hull of the basis"
        vals.append(-c[k - 1])
    return vals


def oracle_facets(points) -> frozenset:
    """The facet tight sets of conv(points), as masks over the indices.

    Every D-subset of points with affine rank D-1 (D the affine
    dimension of the whole set) spans a candidate hyperplane within the
    affine hull; it is a facet iff all points fall on one side.
    """
    d = affine_dim(points)
    if d == 0:
        return frozenset()
    n = len(points)
    found = set()
    for subset in itertools.combinations(range(n), d):
        sub = [points[i] for i in subset]
        if affine_dim(sub) != d - 1:
            continue
        q0 = next(i for i in range(n)
                  if affine_dim(sub + [points[i]]) == d)
        vals = _affine_values(sub + [points[q0]], points)
        nonneg = all(v >= 0 for v in vals)
        nonpos = all(v <= 0 for v in vals)
        if nonneg or nonpos:
            found.add(mask(i for i, v in enumerate(vals) if v == 0))
    return frozenset(found)


def in_hull(point, others) -> bool:
    """Caratheodory test: point lies in conv(others) iff it is a convex
    combination of some affinely independent subset."""
    if not others:
        return False
    d = affine_dim(list(others) + [point])
    for k in range(1, d + 2):
        for subset in itertools.combinations(others, k):
            if affine_dim(list(subset)) != k - 1:
                continue
            q = sympy.Matrix([_row(b) + [1] for b in subset]).T
            rhs_full = sympy.Matrix(_row(point) + [1])
            pivots = q.T.rref()[1]
            rows = list(pivots)
            sq = q[rows, :]
            if sq.det() == 0:
                continue
            c = sq.inv() * rhs_full[rows, :]
            if q * c == rhs_full and all(x >= 0 for x in c):
                return True
    return False


def random_point_set(rng, max_points: int = 8, max_dim: int = 3):
    """Random small rational point set: ambient dim 1..max_dim, between
    dim+1 and max_points points, coordinates p/q with small p, q."""
    dim = rng.randint(1, max_dim)
    count = rng.randint(dim + 1, max_points)
    pts = []
    for _ in range(count):
        pts.append(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(dim)))
    uniq = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    return uniq


def rank_certified_vertices(polytope) -> list[bool]:
    """The rank certificate of vertexhood, in sympy: point v is a vertex
    iff the facets through it have gradients of full rank `dim` along the
    affine hull, the gradient of facet f being (<normal_f, p - p_0>) over
    all points p.  It needs the facets and the affine hull, where the
    package's certify_vertices reads the incidence only."""
    pts = points_of(polytope)
    if polytope.dim == 0:
        return [True] * len(pts)
    p0 = _row(pts[0])
    diffs = sympy.Matrix([[a - b for a, b in zip(_row(p), p0)]
                          for p in pts[1:]])
    out = []
    for v in range(len(pts)):
        normals = [_row(f.normal) for f, tight
                   in zip(polytope.facets, polytope.incidence.tight_sets)
                   if v in members(tight)]
        out.append(bool(normals)
                   and (sympy.Matrix(normals) * diffs.T).rank() == polytope.dim)
    return out


def validate_polytope(polytope) -> None:
    """Assert the structural invariants of a hull; raises AssertionError
    on a defect.  Inequalities are evaluated in Fraction and affine
    dimensions taken in sympy, so the check shares no linear algebra
    with the integer hull it checks.

    Checks: there is one tight set per facet, and the facets through
    each vertex are exactly those whose tight set holds it; every vertex
    satisfies every inequality, with equality exactly on the facet's
    tight set; each tight set has affine dimension dim - 1; tight sets
    are pairwise distinct; above dimension 0 no vertex lies on every
    facet.
    """
    pts = points_of(polytope)
    tight_sets = list(map(members, polytope.incidence.tight_sets))
    assert len(tight_sets) == len(polytope.facets)
    assert tuple(map(members, polytope.incidence.vertex_facets)) == tuple(
        frozenset(fi for fi, tight in enumerate(tight_sets) if v in tight)
        for v in range(len(pts)))
    for f, tight in zip(polytope.facets, tight_sets):
        for v, p in enumerate(pts):
            value = _dot(f.normal, p)
            assert value <= f.offset
            assert (value == f.offset) == (v in tight)
        tight_pts = [pts[v] for v in tight]
        assert tight_pts, "facet with empty tight set"
        assert affine_dim(tight_pts) == polytope.dim - 1
    assert len(set(tight_sets)) == len(polytope.facets)
    if polytope.dim >= 1:
        for v in range(polytope.n_vertices):
            assert not all(v in tight for tight in tight_sets)


def same_polytope(got, want) -> bool:
    """Two hulls agree in every part: the points, as integer rows over
    the same scale, the facets with their integer inequalities, the
    dimension and the incidence."""
    return ((got.ambient_dim, got.facets, got.dim,
             got.incidence.tight_sets, got.incidence.vertex_facets)
            == (want.ambient_dim, want.facets, want.dim,
                want.incidence.tight_sets, want.incidence.vertex_facets)
            and (got.rows, got.scale) == (want.rows, want.scale)
            and all(type(x) is int for f in got.facets
                    for x in f.normal + (f.offset,)))


def maps_rows_onto_rows(images, rows):
    """Whether the vertex map v -> images[v] sends the set of tight
    masks `rows` onto itself: the symmetry test, written out for each
    map."""
    return {mask(images[v] for v in members(row)) for row in rows} == rows


def with_duplicates_and_interior_points(rng, pts):
    """pts plus, at seeded places, a copy of one point (a vertex iff that
    point is one), the midpoint of two distinct points and the centroid
    (never vertices)."""
    extra = [rng.choice(pts)]
    a, b = rng.sample(pts, 2)
    extra.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    extra.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    out = list(pts)
    for q in extra:
        out.insert(rng.randint(0, len(out)), q)
    return out


# --- the Fraction double description, kept as a reference ----------------
#
# The package's hull before it moved to integers: the same pipeline on
# Fractions (chart through the inverse of a pivot block, centroid at the
# origin, double description on the polar, lift, checked incidence), with
# set-valued tight sets and no adjacency pre-filter.  Its matrices are
# lists of rows; everything else is as it was in the package.

def _dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot of vectors with different lengths")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _primitive_vector(values):
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


def _fraction_independent_rows(vectors):
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


def _inverse(rows):
    n = len(rows)
    augmented = [list(rows[i]) + [Fraction(int(j == i)) for j in range(n)]
                 for i in range(n)]
    kept = []
    for _, _, row, pivot in _fraction_independent_rows(augmented):
        if pivot >= n:
            raise ValueError("matrix is singular")
        kept.append((row, pivot))
    out = [None] * n
    done = []  # rows already zero at every other pivot
    for row, pivot in reversed(kept):
        for later, c in done:
            f = row[c]
            if f:
                row = [a - f * b for a, b in zip(row, later)]
        done.append((row, pivot))
        out[pivot] = row[n:]
    return out


def _col(rows, j):
    return tuple(row[j] for row in rows)


def _affine_chart(points):
    base = points[0]
    basis_diffs, pivot_rows = [], []
    for _, diff, _, pivot in _fraction_independent_rows(
            _vec_sub(p, base) for p in points[1:]):
        basis_diffs.append(diff)
        pivot_rows.append(pivot)
    d = len(basis_diffs)
    pivot_rows.sort()
    m = [[u[r] for u in basis_diffs] for r in pivot_rows]
    return d, base, basis_diffs, pivot_rows, _inverse(m) if d else []


def _dd_extreme_rays(ineqs):
    dim = len(ineqs[0])
    chosen = [i for i, *_ in itertools.islice(
        _fraction_independent_rows(ineqs), dim)]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed: inequalities do not span")
    n_inv = _inverse([ineqs[i] for i in chosen])
    rays = [_primitive_vector(_col(n_inv, j)) for j in range(dim)]
    tight = []
    for ray in rays:
        tight.append({i for i in chosen if _dot(ineqs[i], ray) == 0})
    remaining = [i for i in range(len(ineqs)) if i not in chosen]

    for ci in remaining:
        c = ineqs[ci]
        vals = [_dot(c, ray) for ray in rays]
        neg = [k for k, v in enumerate(vals) if v < 0]
        if not neg:
            for k, v in enumerate(vals):
                if v == 0:
                    tight[k].add(ci)
            continue
        pos = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        new_rays = []
        new_tight = []
        for p in pos:
            for m in neg:
                common = tight[p] & tight[m]
                adjacent = True
                for r in range(len(rays)):
                    if r != p and r != m and common <= tight[r]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(vals[p] * rays[m][t] - vals[m] * rays[p][t]
                              for t in range(dim))
                new_rays.append(_primitive_vector(combo))
                new_tight.append(common | {ci})
        keep = pos + zero
        rays = [rays[k] for k in keep] + new_rays
        tight = [tight[k] | ({ci} if k in zero else set())
                 for k in keep] + new_tight
    return rays


def fraction_facet_enumeration(points):
    """The Fraction reference hull, unbounded: a Polytope that the
    package's integer facet enumeration must reproduce exactly."""
    if len(points) == 0:
        raise ValueError("no points")
    pts = [tuple(Fraction(v) for v in p) for p in points]
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    d, base, _, pivot_rows, m_inv = _affine_chart(pts)
    rows, scale = integer_points(pts)
    if d == 0:
        return Polytope(ambient, tuple(rows), scale, (),
                        IncidenceStructure(len(pts), ()), 0)

    coords = [tuple(_dot(row, [p[r] - base[r] for r in pivot_rows])
                    for row in m_inv) for p in pts]
    n = len(pts)
    centroid = tuple(sum((c[k] for c in coords), Fraction(0)) / n
                     for k in range(d))
    shifted = [_vec_sub(c, centroid) for c in coords]

    # polar cone in R^{d+1}: rays (t, y) with t >= 0 and <w_i, y> <= t
    guard = (Fraction(1),) + (Fraction(0),) * d
    seen = {guard}
    ineqs = [guard]
    for w in shifted:
        c = (Fraction(1),) + tuple(-x for x in w)
        if c not in seen:
            seen.add(c)
            ineqs.append(c)
    rays = _dd_extreme_rays(ineqs)

    facets = []
    for ray in rays:
        t = ray[0]
        if t <= 0:
            raise ValueError("unbounded polar: input not full-dimensional in chart")
        v = tuple(x / t for x in ray[1:])
        # chart inequality <v, c> <= beta, c the chart coordinates
        beta = Fraction(1) + _dot(v, centroid)
        n_r = tuple(_dot(_col(m_inv, k), v) for k in range(d))
        normal = [Fraction(0)] * ambient
        for k, r in enumerate(pivot_rows):
            normal[r] = n_r[k]
        offset = beta + sum((n_r[k] * base[r] for k, r in enumerate(pivot_rows)),
                            Fraction(0))
        packed = tuple(map(int, _primitive_vector(tuple(normal) + (offset,))))
        facets.append(Facet(packed[:-1], packed[-1]))

    facets = sorted(set(facets), key=lambda f: (f.normal, f.offset))
    if len(facets) != len(rays):
        raise ValueError("duplicate facets from distinct polar rays")

    tight_sets = []
    for f in facets:
        tight = set()
        for v, p in enumerate(pts):
            value = _dot(f.normal, p)
            if value > f.offset:
                raise ValueError("facet inequality violated by an input point")
            if value == f.offset:
                tight.add(v)
        if not tight:
            raise ValueError("facet tight at no vertex")
        if tight in tight_sets:
            raise ValueError("two facets share a tight vertex set")
        tight_sets.append(tight)
    return Polytope(ambient, tuple(rows), scale, tuple(facets),
                    IncidenceStructure(len(pts), map(mask, tight_sets)), d)


# --- the row-pivot chart and the inverse start, kept as references -------
#
# The package's integer chart and double description before the chart
# took greedy columns and the start took Gauss-Jordan on lines: the
# chart read the pivots of a row reduction of the differences, and the
# start chose its inequalities with _independent_rows and read N^-1 off
# two more passes over [N | I].  Kept verbatim.


def affine_chart_by_rows(points: Sequence[Sequence[int]],
                         max_dim: Optional[int] = None) -> list[int]:
    """Pivot rows of the affine hull of integer points.

    One pass of _independent_rows over the differences p - points[0]
    keeps a greedy basis of the direction space, in echelon form; its
    pivots, sorted, are the chart's coordinates.  The d x d block of the
    echelon basis at the pivot rows is triangular with a nonzero
    diagonal, so the projection x -> (x - points[0])[pivot_rows] maps the
    affine hull one-to-one onto Q^d: that projection is the chart, and
    it needs no inverse.  Raises PreconditionError as soon as
    the basis exceeds max_dim, if given.
    """
    base = points[0]
    pivot_rows = []
    for _, pivot, _ in _independent_rows(
            [a - b for a, b in zip(p, base)] for p in points[1:]):
        pivot_rows.append(pivot)
        if max_dim is not None and len(pivot_rows) > max_dim:
            raise PreconditionError(
                f"affine dimension exceeds hull bound {max_dim}")
    pivot_rows.sort()
    return pivot_rows


def dd_extreme_rays_by_inverse(ineqs: list[tuple[int, ...]]
                               ) -> list[tuple[int, ...]]:
    """Extreme rays of {y : <c, y> >= 0 for all c in ineqs}, all integer.

    Requires the cone to be pointed (the inequality normals span the
    space); raises otherwise.  Rays are returned primitive.  Tight sets
    are bitmasks over inequality positions.  Two rays of a pointed cone
    in dimension dim are adjacent only if their common tight set has
    rank dim - 2, so fewer than dim - 2 common inequalities rule a pair
    out before the scan over the other rays.
    """
    dim = len(ineqs[0])
    # deterministic greedy choice of dim independent inequalities
    chosen = [i for i, *_ in islice(_independent_rows(ineqs), dim)]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed: inequalities do not span")
    # start: the columns of N^-1 for the chosen rows N; ray j is tight
    # exactly on the chosen inequalities other than chosen[j].  [N | I] in
    # echelon form, reduced again from the last pivot up, has rows
    # D_p e_p | R_p, each a combination of the rows of [N | I], so
    # R_p / D_p is row p of N^-1, and the lcm of the D_p clears the
    # denominators of every column
    eye = [0] * dim
    echelon = sorted((pivot, row) for _, pivot, row in _independent_rows(
        [*ineqs[i], *eye[:k], 1, *eye[k + 1:]] for k, i in enumerate(chosen)))
    diagonal = sorted((pivot, row) for _, pivot, row in _independent_rows(
        row for _, row in reversed(echelon)))
    scale = lcm(*(row[p] for p, row in diagonal))
    rays = [primitive_vector([row[dim + j] * (scale // row[p])
                              for p, row in diagonal])
            for j in range(dim)]
    chosen_mask = sum(1 << i for i in chosen)
    tight = [chosen_mask ^ (1 << i) for i in chosen]
    remaining = [i for i in range(len(ineqs)) if not chosen_mask >> i & 1]
    need = dim - 2

    for ci in remaining:
        c = ineqs[ci]
        bit = 1 << ci
        vals = [sum(map(mul, c, ray)) for ray in rays]
        neg = [k for k, v in enumerate(vals) if v < 0]
        if not neg:
            for k, v in enumerate(vals):
                if v == 0:
                    tight[k] |= bit
            continue
        pos = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        new_rays = []
        new_tight = []
        for p in pos:
            tp, rp, vp = tight[p], rays[p], vals[p]
            for m in neg:
                common = tp & tight[m]
                if common.bit_count() < need:
                    continue
                # adjacent iff only p and m are tight on all of common
                holders = 0
                for t in tight:
                    if t & common == common:
                        holders += 1
                        if holders > 2:
                            break
                if holders > 2:
                    continue
                vm, rm = vals[m], rays[m]
                new_rays.append(primitive_vector(
                    [vp * b - vm * a for a, b in zip(rp, rm)]))
                new_tight.append(common | bit)
        rays = [rays[k] for k in pos] + [rays[k] for k in zero] + new_rays
        tight = ([tight[k] for k in pos] + [tight[k] | bit for k in zero]
                 + new_tight)
    return rays
