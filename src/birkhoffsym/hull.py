"""Exact facet enumeration for small rational polytopes.

Pipeline: given points in Q^a, compute the affine hull, pass to a full-
dimensional chart in Q^d via an invertible pivot submatrix, translate the
centroid to the origin, and run the double description method on the
polar cone.  Polar rays then lift back to ambient facet inequalities
normal.x <= offset.

The double description step maintains, for a growing system of homogeneous
inequalities <c, y> >= 0 in R^{d+1}, the extreme rays of the intersection
cone together with each ray's exact set of tight inequalities.  When a new
inequality c splits the rays, adjacent (positive, negative) pairs combine
into new rays on the hyperplane of c.  Adjacency is the standard
combinatorial test: no third ray's tight set contains the intersection of
the pair's tight sets.  A new ray's tight set is exactly
(tight(p) n tight(m)) u {c}: any processed c' with <c', new> = 0 forces
<c', p> = <c', m> = 0 because both values are nonnegative and combine with
positive coefficients.

Everything is exact; a facet's incidence row is recomputed from its lifted
inequality against all input points, so bookkeeping errors cannot survive
the final validity assertions.  That checked incidence is also the whole
certificate `certify_vertices` reads, so the chart is built once per hull
and no rank is taken after the double description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .errors import PreconditionError
from .exact import (RationalMatrix, _independent_rows, affine_dimension,
                    as_fraction_vector, dot, format_rational, inverse,
                    parse_rational, primitive_vector, vec_sub)

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


def _affine_chart(points, max_dim=None):
    """Greedy affinely independent basis and pivot data for the chart.

    The basis is the greedy independent subsequence of the differences
    p - points[0], picked in one pass by _independent_rows; the pivot
    rows are the sorted pivots of the same pass.  Raises
    PreconditionError as soon as the basis exceeds max_dim, if given.

    Returns (d, base, basis_diffs, pivot_rows, m_inv) where the chart map
    is x -> m_inv * (x - base)[pivot_rows], a bijection between the affine
    hull and Q^d.
    """
    base = points[0]
    basis_diffs, pivot_rows = [], []
    for _, diff, _, pivot in _independent_rows(
            vec_sub(p, base) for p in points[1:]):
        basis_diffs.append(diff)
        pivot_rows.append(pivot)
        if max_dim is not None and len(basis_diffs) > max_dim:
            raise PreconditionError(
                f"affine dimension exceeds hull bound {max_dim}")
    d = len(basis_diffs)
    # pivot rows: coordinates where the d basis columns are invertible
    pivot_rows.sort()
    m = RationalMatrix.from_rows(
        [[u[r] for u in basis_diffs] for r in pivot_rows])
    return d, base, basis_diffs, pivot_rows, inverse(m)


def _dd_extreme_rays(ineqs: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    """Extreme rays of {y : <c, y> >= 0 for all c in ineqs}.

    Requires the cone to be pointed (the inequality normals span the
    space); raises otherwise.  Rays are returned primitive.
    """
    dim = len(ineqs[0])
    # deterministic greedy choice of dim independent inequalities
    chosen = [i for i, *_ in islice(_independent_rows(ineqs), dim)]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed: inequalities do not span")
    n_mat = RationalMatrix.from_rows([ineqs[i] for i in chosen])
    n_inv = inverse(n_mat)
    rays = [primitive_vector(n_inv.col(j)) for j in range(dim)]
    tight = []
    for ray in rays:
        tight.append({i for i in chosen if dot(ineqs[i], ray) == 0})
    remaining = [i for i in range(len(ineqs)) if i not in chosen]

    for ci in remaining:
        c = ineqs[ci]
        vals = [dot(c, ray) for ray in rays]
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
                new_rays.append(primitive_vector(combo))
                new_tight.append(common | {ci})
        keep = pos + zero
        rays = [rays[k] for k in keep] + new_rays
        tight = [tight[k] | ({ci} if k in zero else set())
                 for k in keep] + new_tight
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
    d, base, _, pivot_rows, m_inv = _affine_chart(pts, max_dim)
    if d == 0:
        return Polytope(ambient, pts, (), (), 0)

    coords = [m_inv.apply([p[r] - base[r] for r in pivot_rows]) for p in pts]
    n = len(pts)
    centroid = tuple(sum((c[k] for c in coords), Fraction(0)) / n
                     for k in range(d))
    shifted = [vec_sub(c, centroid) for c in coords]

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
        beta = Fraction(1) + dot(v, centroid)
        n_r = tuple(dot(m_inv.col(k), v) for k in range(d))
        normal = [Fraction(0)] * ambient
        for k, r in enumerate(pivot_rows):
            normal[r] = n_r[k]
        offset = beta + sum((n_r[k] * base[r] for k, r in enumerate(pivot_rows)),
                            Fraction(0))
        packed = primitive_vector(tuple(normal) + (offset,))
        facets.append(Facet(packed[:-1], packed[-1]))

    facets = sorted(set(facets), key=lambda f: (f.normal, f.offset))
    if len(facets) != len(rays):
        raise ValueError("duplicate facets from distinct polar rays")

    incidence = []
    tight_seen = set()
    for f in facets:
        row = []
        for p in pts:
            value = dot(f.normal, p)
            if value > f.offset:
                raise ValueError("facet inequality violated by an input point")
            row.append(value == f.offset)
        if not any(row):
            raise ValueError("facet tight at no vertex")
        key = tuple(row)
        if key in tight_seen:
            raise ValueError("two facets share a tight vertex set")
        tight_seen.add(key)
        incidence.append(row)
    return Polytope(ambient, pts, facets, incidence, d)


def incidence_of(polytope: Polytope) -> IncidenceStructure:
    canon = sorted({tuple(bool(x) for x in row) for row in polytope.incidence})
    return IncidenceStructure(polytope.n_vertices, canon)


def validate_polytope(polytope: Polytope) -> None:
    """Assert the structural invariants; raises AssertionError on defect.

    Checks: every vertex satisfies every inequality; each facet's tight
    set has affine dimension dim-1; tight sets pairwise distinct.
    """
    pts = polytope.vertices
    for f, row in zip(polytope.facets, polytope.incidence):
        for p, hit in zip(pts, row):
            value = dot(f.normal, p)
            assert value <= f.offset
            assert (value == f.offset) == hit
        tight_pts = [p for p, hit in zip(pts, row) if hit]
        assert tight_pts, "facet with empty tight set"
        assert affine_dimension(tight_pts) == polytope.dim - 1
    seen = {tuple(row) for row in polytope.incidence}
    assert len(seen) == len(polytope.facets)
    if polytope.dim >= 1:
        for v in range(polytope.n_vertices):
            assert not all(row[v] for row in polytope.incidence)


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
