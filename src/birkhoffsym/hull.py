"""Exact facet enumeration for small rational polytopes, on integers.

Pipeline: given integer points over one denominator L (the rational
points times L), take the affine chart (the projection onto the greedy
independent coordinates of the differences to the first point, an
invertible linear map of the affine hull), move the centroid to the
origin with every coordinate multiplied by the number of points, and
run the double description method on the polar cone.  Polar rays then
lift back to ambient facet inequalities normal.x <= offset.  Each of
these steps is an invertible linear map or a positive scaling, so the
double description meets the same rays in the same order as it would
over the unscaled rational chart.  A vertex document is read from its
"p/q" text into integer rows over the lcm of its denominators, each
Facet holds its primitive integer inequality, and `polytope_to_document`
writes the text from the integers.

The double description step maintains, for a growing system of homogeneous
inequalities <c, y> >= 0 in R^{d+1}, the extreme rays of the intersection
cone together with each ray's exact set of tight inequalities, held as a
bitmask.  It starts from the simplicial cone of the greedy independent
inequalities, found with its rays in one Gauss-Jordan pass on lines
that needs no matrix inverse, and adds the others in index order.  When
a new inequality c splits the rays, adjacent (positive, negative) pairs
combine into new rays on the hyperplane of c.  Adjacency
is the standard combinatorial test (Fukuda & Prodon 1996): no third
ray's tight set contains the intersection of the pair's tight sets, and
that intersection must have at least d - 1 members.  A new ray's tight
set is exactly (tight(p) n tight(m)) u {c}: any processed c' with
<c', new> = 0 forces <c', p> = <c', m> = 0 because both values are
nonnegative and combine with positive coefficients.

Everything is exact; a facet's tight set is recomputed from its lifted
inequality against all scaled input points, so bookkeeping errors cannot
survive the final validity checks.  Those raise InvariantError, since a
violated inequality, a facet tight at no point, an unbounded polar and
two facets with one inequality or one tight set are faults of this
module, never of the input.  The checked tight sets, in facet order,
are the polytope's one incidence, an `IncidenceStructure` that also
lists the facets through each vertex.  It is the whole certificate
`certify_vertices` reads, so the chart is built once per hull and no
rank is taken after the double description.
"""

from __future__ import annotations

import sys
from itertools import islice
from math import gcd
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import InvariantError, PreconditionError
from .exact import (_format_over, _independent_rows, _over_lcm,
                    _rational_pair, primitive_vector)

MAX_VERTICES = 30
MAX_DIM = 10


class Facet(NamedTuple):
    """The inequality normal.x <= offset, primitive: integers with gcd 1."""
    normal: tuple[int, ...]
    offset: int


class IncidenceStructure:
    """Vertex-facet incidence with the geometry stripped: `tight_sets`,
    the vertices on each facet as frozensets in facet order, and
    `vertex_facets`, the facets through each vertex in increasing order.
    A vertex outside 0..n_vertices-1 raises ValueError, and two equal
    tight sets InvariantError: distinct facets have distinct ones, so the
    hull that built them is at fault.  `preserved_by` tests a symmetry."""

    __slots__ = ("n_vertices", "tight_sets", "vertex_facets", "_rows",
                 "_imagers")

    def __init__(self, n_vertices: int, tight_sets: Iterable[Iterable[int]]):
        self.n_vertices = n_vertices
        self.tight_sets = tuple(map(frozenset, tight_sets))
        self._rows = frozenset(self.tight_sets)
        if len(self._rows) != len(self.tight_sets):
            raise InvariantError("two facets share a tight vertex set")
        self._imagers = None
        vertex_facets = [[] for _ in range(n_vertices)]
        for fi, tight in enumerate(self.tight_sets):
            for v in tight:
                if not 0 <= v < n_vertices:
                    raise ValueError(f"incidence names vertex {v} of "
                                     f"{n_vertices}")
                vertex_facets[v].append(fi)
        self.vertex_facets = tuple(map(tuple, vertex_facets))

    @property
    def n_facets(self) -> int:
        return len(self.tight_sets)

    def preserved_by(self, images: Sequence[int]) -> bool:
        """Whether v -> images[v] permutes the vertices and the tight
        sets: whether it is a combinatorial symmetry.  Each tight set is
        imaged in C by its own itemgetter, built on the first call."""
        if self._imagers is None:
            self._imagers = list(map(_imager, self.tight_sets))
        return sorted(images) == list(range(self.n_vertices)) and (
            self._rows == {frozenset(f(images)) for f in self._imagers})


def _imager(row: frozenset[int]) -> Callable[[Sequence[int]], Iterable[int]]:
    """images -> the images of the vertices in row.  itemgetter returns
    the item itself, not a 1-tuple, when given one index, so a row of
    fewer than two vertices is imaged by `map`."""
    if len(row) > 1:
        return itemgetter(*row)
    return lambda images: map(images.__getitem__, row)


class Polytope:
    """The hull of the input points, held as `rows`, the points times
    `scale` as integer tuples in input order."""

    __slots__ = ("ambient_dim", "rows", "scale", "facets", "incidence", "dim")

    def __init__(self, ambient_dim: int, rows, scale: int, facets,
                 incidence: IncidenceStructure, dim: int):
        self.ambient_dim = ambient_dim
        self.rows = tuple(rows)
        self.scale = scale
        self.facets = tuple(facets)
        self.incidence = incidence
        self.dim = dim

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    @property
    def n_facets(self) -> int:
        return len(self.facets)


def _affine_chart(points: Sequence[Sequence[int]],
                  max_dim: Optional[int] = None) -> list[int]:
    """Chart coordinates of the affine hull of integer points: the
    greedy independent columns of the difference matrix.

    One pass of _independent_rows over the columns of the rows
    p - points[0] keeps coordinate j when column j is independent of the
    columns kept before it.  These are the pivots of every echelon form
    of the rows: a row reduction finds its pivot at column j exactly
    when column j is independent of the columns to its left.  So the
    d x d block of the differences at the kept coordinates is
    invertible, and the projection x -> (x - points[0])[kept] maps the
    affine hull one-to-one onto Q^d: that projection is the chart, and it
    needs no inverse.  The rank is at most the number of differences, so
    the pass stops once it has kept that many.  Raises PreconditionError
    as soon as the basis exceeds max_dim, if given.
    """
    base, rest = points[0], points[1:]
    pivot_rows = []
    for j, *_ in _independent_rows(
            [x - b for x in column] for column, b in zip(zip(*rest), base)):
        pivot_rows.append(j)
        if max_dim is not None and len(pivot_rows) > max_dim:
            raise PreconditionError(
                f"affine dimension exceeds hull bound {max_dim}")
        if len(pivot_rows) == len(rest):
            break
    return pivot_rows


def _onto(w: list[int], b: int, ray: list[int], v: int) -> list[int]:
    """v w - b ray over its gcd, for v = <c, ray> > 0 and b = <c, w>:
    w moved along ray onto the hyperplane of c, by a positive factor."""
    if not b:
        return w
    w = [v * x - b * y for x, y in zip(w, ray)]
    g = gcd(*w)
    return w if g == 1 else [x // g for x in w]


def _dd_start(ineqs: list[tuple[int, ...]]
              ) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
    """(chosen, rays, deferred): the double description's start, by
    Gauss-Jordan on lines.

    The lines start as the unit vectors.  They always span the common
    kernel of the inequalities chosen so far, and the ray of chosen[j]
    is positive on chosen[j] and zero on the other chosen ones.  An
    inequality c vanishes on that kernel exactly when it lies in the
    span of the chosen ones.  So each c in turn is either zero on every
    line and deferred, or independent of the chosen ones and chosen
    itself, which is the greedy choice of independent rows.  Its first
    line with a nonzero value becomes its ray, oriented positive, and
    every other line and ray moves along that ray onto the hyperplane
    of c (`_onto`): the lines then span the smaller kernel, and each
    earlier ray keeps its signs on the earlier choices.  At the end ray
    j is column j of N^-1, for the chosen rows N, times a positive
    factor, and no inverse was taken.  Deferred are the inequalities
    not chosen, in index order.  Raises when the lines outlast the
    inequalities: then the cone is not pointed.
    """
    dim = len(ineqs[0])
    lines = [[int(i == k) for i in range(dim)] for k in range(dim)]
    chosen, rays, deferred = [], [], []
    for ci, c in enumerate(ineqs):
        if not lines:
            deferred += range(ci, len(ineqs))
            break
        vals = [sum(map(mul, c, w)) for w in lines]
        k = next((k for k, v in enumerate(vals) if v), None)
        if k is None:
            deferred.append(ci)
            continue
        ray, v = lines.pop(k), vals.pop(k)
        if v < 0:
            ray, v = [-x for x in ray], -v
        lines = [_onto(w, b, ray, v) for w, b in zip(lines, vals)]
        rays = [_onto(w, sum(map(mul, c, w)), ray, v) for w in rays]
        rays.append(ray)
        chosen.append(ci)
    if lines:
        raise ValueError("cone is not pointed: inequalities do not span")
    return chosen, [primitive_vector(w) for w in rays], deferred


def _dd_extreme_rays(ineqs: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {y : <c, y> >= 0 for all c in ineqs}, all integer.

    Requires the cone to be pointed (the inequality normals span the
    space); raises otherwise.  Starts from the simplicial cone of the
    greedy independent inequalities (`_dd_start`), whose ray j is tight
    exactly on the chosen inequalities other than chosen[j], and adds
    the deferred ones in index order.  Rays are returned primitive.
    Tight sets are bitmasks over inequality positions.  Two rays of a
    pointed cone in dimension dim are adjacent only if their common tight
    set has rank dim - 2, so fewer than dim - 2 common inequalities rule
    a pair out before the scan over the other rays.
    """
    chosen, rays, deferred = _dd_start(ineqs)
    chosen_mask = sum([1 << i for i in chosen])
    tight = [chosen_mask ^ (1 << i) for i in chosen]
    need = len(chosen) - 2

    for ci in deferred:
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


def facet_enumeration(points: Sequence[Sequence[int]],
                      denominator: int = 1) -> Polytope:
    """Facets, incidence, and dimension of the convex hull of the points,
    each divided by `denominator`, a positive integer.

    Every coordinate must be an `int`: anything else, a float, a Fraction
    or a bool, raises TypeError.  Duplicates and non-extreme points are
    tolerated (they simply end up positive on no facet certificate).  A
    0-dimensional input yields zero facets.  Inputs above MAX_VERTICES
    points or affine dimension MAX_DIM are refused before the double
    description starts.
    """
    return _facet_enumeration(points, denominator, MAX_VERTICES, MAX_DIM)


def _facet_enumeration(points: Sequence[Sequence[int]], denominator: int = 1,
                       max_vertices: Optional[int] = None,
                       max_dim: Optional[int] = None) -> Polytope:
    """facet_enumeration with the size bounds given per call (None: no
    bound), for callers that know their input, such as B_n's vertices."""
    if len(points) == 0:
        raise ValueError("no points")
    if type(denominator) is not int or denominator < 1:
        raise ValueError(f"denominator must be a positive integer, "
                         f"got {denominator!r}")
    scale, flat = denominator, tuple([x for p in points for x in p])
    if not set(map(type, flat)) <= {int}:
        x = next(x for x in flat if type(x) is not int)
        raise TypeError(f"hull coordinate {x!r} of type {type(x).__name__} "
                        f"is not an int")
    ambient = len(points[0])
    if any(len(p) != ambient for p in points):
        raise ValueError("points of mixed dimension")
    if max_vertices is not None and len(points) > max_vertices:
        raise PreconditionError(
            f"{len(points)} points exceed hull bound {max_vertices}")
    n = len(points)
    scaled = [flat[i * ambient:(i + 1) * ambient] for i in range(n)]
    pivot_rows = _affine_chart(scaled, max_dim)
    d = len(pivot_rows)
    if d == 0:
        return Polytope(ambient, scaled, scale, (), IncidenceStructure(n, ()),
                        0)

    at_pivots = [[p[r] for r in pivot_rows] for p in scaled]
    base = at_pivots[0]
    coords = [[a - b for a, b in zip(p, base)] for p in at_pivots]
    total = [sum(column) for column in zip(*coords)]
    # polar cone in R^{d+1} of the points shifted by the centroid and
    # scaled by n: rays (t, y) with t >= 0 and <n c - total, y> <= t
    guard = (1,) + (0,) * d
    seen = {guard}
    ineqs = [guard]
    for c in coords:
        ineq = (1, *[s - n * x for x, s in zip(c, total)])
        if ineq not in seen:
            seen.add(ineq)
            ineqs.append(ineq)
    rays = _dd_extreme_rays(ineqs)

    # ray (t, y): n <y, X[pivots]> <= t + n <y, base[pivots]> + <y, total>
    # for the scaled points X = L x, an inequality on x over the pivots
    shift = [n * b + s for b, s in zip(base, total)]
    packed = set()
    for t, *y in rays:
        if t <= 0:
            raise InvariantError(
                "unbounded polar: input not full-dimensional in chart")
        normal = [0] * ambient
        for r, x in zip(pivot_rows, y):
            normal[r] = n * scale * x
        packed.add(primitive_vector(normal + [t + sum(map(mul, y, shift))]))
    if len(packed) != len(rays):
        raise InvariantError("duplicate facets from distinct polar rays")
    packed = sorted(packed)

    tight_sets = []
    for f in packed:
        normal = [f[r] for r in pivot_rows]
        bound = f[-1] * scale
        tight = []
        for v, p in enumerate(at_pivots):
            value = sum(map(mul, normal, p))
            if value > bound:
                raise InvariantError(
                    "facet inequality violated by an input point")
            if value == bound:
                tight.append(v)
        if not tight:
            raise InvariantError("facet tight at no vertex")
        tight_sets.append(frozenset(tight))
    return Polytope(ambient, scaled, scale,
                    [Facet(f[:-1], f[-1]) for f in packed],
                    IncidenceStructure(n, tight_sets), d)


def certify_vertices(polytope: Polytope) -> list[bool]:
    """For each input point: is it a 0-dimensional face of the hull?

    Read off the incidence alone: point v is a vertex iff every input
    point tight on all facets through v equals v.  facet_enumeration has
    checked that each facet inequality holds at every point and is tight
    exactly on its tight set.  So the facets through v cut out a face F of the
    hull, and F = conv(the points in F); when those points all equal v,
    F = {v} and v is a vertex.  Conversely every face of a polytope is
    the intersection of the facets containing it, so a vertex passes
    when the facet list is complete; a missing facet could only turn a
    vertex into a failure, never certify a point that is not one.
    Duplicates of a vertex sit on the same facets and certify with it.
    """
    pts = polytope.rows
    tight = polytope.incidence.tight_sets
    everything = frozenset(range(len(pts)))
    out = []
    for p, facets in zip(pts, polytope.incidence.vertex_facets):
        face = everything.intersection(*(tight[fi] for fi in facets))
        out.append(all(pts[u] == p for u in face))
    return out


def polytope_from_document(doc: dict) -> tuple[list[tuple[int, ...]], int]:
    """(rows, L): the points of a polytope document
    {"vertices": [["p/q", ...], ...]} as integer rows over the lcm L of
    their denominators.  More than MAX_VERTICES points raise
    PreconditionError before a cell is read; a document of another shape
    raises ValueError."""
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError('polytope document must be an object with "vertices"')
    rows = doc["vertices"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('"vertices" must be a list of coordinate lists')
    if len(rows) > MAX_VERTICES:
        raise PreconditionError(
            f"{len(rows)} points exceed hull bound {MAX_VERTICES}")
    nums, scale = _over_lcm([_rational_pair(str(cell))
                             for row in rows for cell in row])
    cells = iter(nums)
    return [tuple(islice(cells, len(row))) for row in rows], scale


def polytope_to_document(polytope: Polytope) -> dict:
    """The hull as a JSON-ready document, every number written from the
    integers: a point coordinate as x / scale, a facet as its primitive
    inequality; PreconditionError if one is too long for `str`."""
    scale = polytope.scale
    try:
        facets = [{"normal": list(map(str, f.normal)), "offset": str(f.offset)}
                  for f in polytope.facets]
    except ValueError:
        raise PreconditionError(
            f"a facet integer exceeds the {sys.get_int_max_str_digits()}"
            f"-digit limit of integer output") from None
    return {
        "inequality_convention": "normal.x <= offset",
        "ambient_dim": polytope.ambient_dim,
        "dim": polytope.dim,
        "n_vertices": polytope.n_vertices,
        "n_facets": polytope.n_facets,
        "vertices": [[_format_over(x, scale) for x in row]
                     for row in polytope.rows],
        "facets": facets,
        "incidence": [[int(v in tight) for v in range(polytope.n_vertices)]
                      for tight in polytope.incidence.tight_sets],
    }
