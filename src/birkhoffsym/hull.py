"""Exact facet enumeration for small rational polytopes, on integers.

Pipeline: given points in Q^a, scale them all by the lcm L of their
denominators, take the affine chart (the projection onto the pivot
coordinates of one fraction-free row reduction, an invertible linear map
of the affine hull), move the centroid to the origin with every
coordinate multiplied by the number of points, and run the double
description method on the polar cone.  Polar rays then lift back to
ambient facet inequalities normal.x <= offset.  Each of these steps is
an invertible linear map or a positive scaling, so the double
description meets the same rays in the same order as it would over the
unscaled rational chart.  `Fraction` appears only at the boundary: the
input points are read as Fractions, and the output Facets are built from
primitive integer inequalities.

The double description step maintains, for a growing system of homogeneous
inequalities <c, y> >= 0 in R^{d+1}, the extreme rays of the intersection
cone together with each ray's exact set of tight inequalities, held as a
bitmask.  When a new inequality c splits the rays, adjacent (positive,
negative) pairs combine into new rays on the hyperplane of c.  Adjacency
is the standard combinatorial test (Fukuda & Prodon 1996): no third
ray's tight set contains the intersection of the pair's tight sets, and
that intersection must have at least d - 1 members.  A new ray's tight
set is exactly (tight(p) n tight(m)) u {c}: any processed c' with
<c', new> = 0 forces <c', p> = <c', m> = 0 because both values are
nonnegative and combine with positive coefficients.

Everything is exact; a facet's incidence row is recomputed from its lifted
inequality against all scaled input points, so bookkeeping errors cannot
survive the final validity checks.  Those raise InvariantError, since a
violated inequality, a facet tight at no point, an unbounded polar and
two facets with one inequality or one tight set are faults of this
module, never of the input.  That checked incidence is also the whole
certificate `certify_vertices` reads, so the chart is built once per
hull and no rank is taken after the double description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Optional, Sequence

from .errors import InvariantError, PreconditionError
from .exact import (_gauss_jordan, _independent_rows, as_fraction_vector,
                    clear_denominators, format_rational, parse_rational,
                    primitive_vector)

MAX_VERTICES = 30
MAX_DIM = 10


@dataclass(frozen=True)
class Facet:
    normal: tuple[Fraction, ...]
    offset: Fraction


class Polytope:
    __slots__ = ("ambient_dim", "vertices", "facets", "incidence", "dim")

    def __init__(self, ambient_dim: int, vertices, facets, incidence, dim: int):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.incidence = tuple(tuple(row) for row in incidence)
        self.dim = dim

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def tight_sets(self) -> list[frozenset[int]]:
        return [frozenset(v for v, hit in enumerate(row) if hit)
                for row in self.incidence]


class IncidenceStructure:
    """Vertex-facet incidence with the geometry stripped; rows are facet
    rows of booleans.  The constructor stores rows as given; incidence_of
    is the canonical producer and emits deduplicated, sorted rows."""

    __slots__ = ("n_vertices", "n_facets", "rows")

    def __init__(self, n_vertices: int, rows: Sequence[Sequence[bool]]):
        self.n_vertices = n_vertices
        self.rows = tuple(tuple(bool(x) for x in row) for row in rows)
        if any(len(row) != n_vertices for row in self.rows):
            raise ValueError("incidence row of wrong length")
        self.n_facets = len(self.rows)

    def tight_sets(self) -> list[frozenset[int]]:
        return [frozenset(v for v, hit in enumerate(row) if hit)
                for row in self.rows]


def _affine_chart(points: Sequence[Sequence[int]],
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
    for _, pivot in _independent_rows(
            [a - b for a, b in zip(p, base)] for p in points[1:]):
        pivot_rows.append(pivot)
        if max_dim is not None and len(pivot_rows) > max_dim:
            raise PreconditionError(
                f"affine dimension exceeds hull bound {max_dim}")
    pivot_rows.sort()
    return pivot_rows


def _dd_extreme_rays(ineqs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
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
    chosen = [i for i, _ in islice(_independent_rows(ineqs), dim)]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed: inequalities do not span")
    # start: the columns of N^-1 = adj / det for the chosen rows N; ray j
    # is tight exactly on the chosen inequalities other than chosen[j]
    det, adj = _gauss_jordan([ineqs[i] for i in chosen])
    sign = 1 if det > 0 else -1
    rays = [primitive_vector([sign * row[j] for row in adj])
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


def facet_enumeration(points: Sequence[Sequence]) -> Polytope:
    """Facets, incidence, and dimension of the convex hull of the points.

    Points are any rationals; duplicates and non-extreme points are
    tolerated (they simply end up positive on no facet certificate).  A
    0-dimensional input yields zero facets.  Inputs above MAX_VERTICES
    points or affine dimension MAX_DIM are refused before the double
    description starts.
    """
    return _facet_enumeration(points, MAX_VERTICES, MAX_DIM)


def _facet_enumeration(points: Sequence[Sequence],
                       max_vertices: Optional[int] = None,
                       max_dim: Optional[int] = None) -> Polytope:
    """facet_enumeration with the size bounds given per call (None: no
    bound), for callers that know their input, such as B_n's vertices."""
    if len(points) == 0:
        raise ValueError("no points")
    pts = [as_fraction_vector(p) for p in points]
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    if max_vertices is not None and len(pts) > max_vertices:
        raise PreconditionError(
            f"{len(pts)} points exceed hull bound {max_vertices}")
    # one scale L for all points: from here to the Facets, only ints
    scale, flat = clear_denominators(x for p in pts for x in p)
    scaled = [flat[i * ambient:(i + 1) * ambient] for i in range(len(pts))]
    pivot_rows = _affine_chart(scaled, max_dim)
    d = len(pivot_rows)
    if d == 0:
        return Polytope(ambient, pts, (), (), 0)

    base = scaled[0]
    coords = [[p[r] - base[r] for r in pivot_rows] for p in scaled]
    n = len(scaled)
    total = [sum(c[k] for c in coords) for k in range(d)]
    # polar cone in R^{d+1} of the points shifted by the centroid and
    # scaled by n: rays (t, y) with t >= 0 and <n c - total, y> <= t
    guard = (1,) + (0,) * d
    seen = {guard}
    ineqs = [guard]
    for c in coords:
        ineq = (1,) + tuple(s - n * x for x, s in zip(c, total))
        if ineq not in seen:
            seen.add(ineq)
            ineqs.append(ineq)
    rays = _dd_extreme_rays(ineqs)

    # ray (t, y): n <y, X[pivots]> <= t + n <y, base[pivots]> + <y, total>
    # for the scaled points X = L x, an inequality on x over the pivots
    packed = set()
    for t, *y in rays:
        if t <= 0:
            raise InvariantError(
                "unbounded polar: input not full-dimensional in chart")
        normal = [0] * ambient
        for k, r in enumerate(pivot_rows):
            normal[r] = n * scale * y[k]
        offset = (t + n * sum(y[k] * base[r] for k, r in enumerate(pivot_rows))
                  + sum(map(mul, y, total)))
        packed.add(primitive_vector(normal + [offset]))
    if len(packed) != len(rays):
        raise InvariantError("duplicate facets from distinct polar rays")
    packed = sorted(packed)

    incidence = []
    tight_seen = set()
    at_pivots = [[p[r] for r in pivot_rows] for p in scaled]
    for f in packed:
        normal = [f[r] for r in pivot_rows]
        bound = f[-1] * scale
        row = []
        for p in at_pivots:
            value = sum(map(mul, normal, p))
            if value > bound:
                raise InvariantError(
                    "facet inequality violated by an input point")
            row.append(value == bound)
        if not any(row):
            raise InvariantError("facet tight at no vertex")
        key = tuple(row)
        if key in tight_seen:
            raise InvariantError("two facets share a tight vertex set")
        tight_seen.add(key)
        incidence.append(row)
    facets = [Facet(tuple(map(Fraction, f[:-1])), Fraction(f[-1]))
              for f in packed]
    return Polytope(ambient, pts, facets, incidence, d)


def incidence_of(polytope: Polytope) -> IncidenceStructure:
    canon = sorted({tuple(bool(x) for x in row) for row in polytope.incidence})
    return IncidenceStructure(polytope.n_vertices, canon)


def certify_vertices(polytope: Polytope) -> list[bool]:
    """For each input point: is it a 0-dimensional face of the hull?

    Read off the incidence alone: point v is a vertex iff every input
    point tight on all facets through v equals v.  facet_enumeration has
    checked that each facet inequality holds at every point and is tight
    exactly on its row.  So the facets through v cut out a face F of the
    hull, and F = conv(the points in F); when those points all equal v,
    F = {v} and v is a vertex.  Conversely every face of a polytope is
    the intersection of the facets containing it, so a vertex passes
    when the facet list is complete; a missing facet could only turn a
    vertex into a failure, never certify a point that is not one.
    Duplicates of a vertex sit on the same facets and certify with it.
    """
    pts = polytope.vertices
    tight = polytope.tight_sets()
    out = []
    for v, p in enumerate(pts):
        face = set(range(len(pts)))
        for s in tight:
            if v in s:
                face &= s
        out.append(all(pts[u] == p for u in face))
    return out


def polytope_from_document(doc: dict) -> list[tuple[Fraction, ...]]:
    """Read the vertex list from a polytope document {"vertices": [["p/q",...]]}.
    A document of another shape raises ValueError."""
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError('polytope document must be an object with "vertices"')
    rows = doc["vertices"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('"vertices" must be a list of coordinate lists')
    return [tuple(parse_rational(str(entry)) for entry in row) for row in rows]


def polytope_to_document(polytope: Polytope) -> dict:
    return {
        "inequality_convention": "normal.x <= offset",
        "ambient_dim": polytope.ambient_dim,
        "dim": polytope.dim,
        "n_vertices": polytope.n_vertices,
        "n_facets": polytope.n_facets,
        "vertices": [[format_rational(x) for x in p] for p in polytope.vertices],
        "facets": [{"normal": [format_rational(x) for x in f.normal],
                    "offset": format_rational(f.offset)} for f in polytope.facets],
        "incidence": [[1 if hit else 0 for hit in row] for row in polytope.incidence],
    }
