"""Brute-force facet oracle used to cross-check facet_enumeration.

Independent of the package under test: all linear algebra is sympy, and
the algorithm is the naive one: try every hyperplane spanned by input
subsets, keep those with all points on one side.  Only sensible at toy
scale (n <= 8 points, affine dimension <= 3).
"""

import itertools
from fractions import Fraction

import sympy


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
    """The facet tight sets of conv(points), as frozensets of indices.

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
            found.add(frozenset(i for i, v in enumerate(vals) if v == 0))
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
    pts = polytope.vertices
    if polytope.dim == 0:
        return [True] * len(pts)
    p0 = _row(pts[0])
    diffs = sympy.Matrix([[a - b for a, b in zip(_row(p), p0)]
                          for p in pts[1:]])
    out = []
    for v in range(len(pts)):
        normals = [_row(f.normal) for f, row
                   in zip(polytope.facets, polytope.incidence) if row[v]]
        out.append(bool(normals)
                   and (sympy.Matrix(normals) * diffs.T).rank() == polytope.dim)
    return out


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
