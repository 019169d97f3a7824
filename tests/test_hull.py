"""Tests for exact facet enumeration: hand-checked polytopes, degenerate
inputs, vertex certification, and agreement with the brute-force
hyperplane-spanning oracle and the Fraction reference hull in
hull_oracle.py."""

import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import hull
from birkhoffsym.birkhoff import analytic_facet_sets, birkhoff_vertices
from birkhoffsym.cli import main
from birkhoffsym.errors import InvariantError, PreconditionError
from birkhoffsym.exact import _independent_rows, _product
from birkhoffsym.hull import (IncidenceStructure, _affine_chart,
                              certify_vertices, facet_enumeration,
                              polytope_from_document, polytope_to_document)
from birkhoffsym.reppoly import default_catalog, representation_polytope

from hull_oracle import (affine_chart_by_rows, affine_dim, birkhoff_hull,
                         birkhoff_rows, dd_extreme_rays_by_inverse, entries,
                         fraction_facet_enumeration, hull_of, integer_points,
                         oracle_facets, points_of, random_point_set,
                         rank_certified_vertices, rational_matrix,
                         same_polytope, validate_polytope,
                         with_duplicates_and_interior_points)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def tight_families(polytope):
    return frozenset(polytope.incidence.tight_sets)


def test_square():
    p = facet_enumeration(SQUARE)
    assert p.dim == 2
    assert p.n_vertices == 4
    assert p.n_facets == 4
    assert tight_families(p) == frozenset(
        {frozenset(s) for s in ({0, 1}, {1, 2}, {2, 3}, {3, 0})})
    validate_polytope(p)
    assert certify_vertices(p) == [True] * 4


def test_triangle_in_3d():
    p = facet_enumeration([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert p.dim == 2
    assert p.n_facets == 3
    assert all(len(s) == 2 for s in p.incidence.tight_sets)
    validate_polytope(p)


def test_cube():
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = facet_enumeration(verts)
    assert p.dim == 3
    assert p.n_facets == 6
    assert all(len(s) == 4 for s in p.incidence.tight_sets)
    validate_polytope(p)


def test_octahedron():
    verts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    p = facet_enumeration(verts)
    assert p.n_facets == 8
    assert all(len(s) == 3 for s in p.incidence.tight_sets)
    validate_polytope(p)


def test_segment():
    p = facet_enumeration([(0,), (1,)])
    assert p.dim == 1
    assert p.n_facets == 2
    assert tight_families(p) == frozenset({frozenset({0}), frozenset({1})})
    validate_polytope(p)


def test_single_point():
    p = facet_enumeration([(2, 3)])
    assert p.dim == 0
    assert p.n_facets == 0
    assert p.n_vertices == 1
    assert certify_vertices(p) == [True]


def test_repeated_single_point():
    p = facet_enumeration([(2, 3), (2, 3)])
    assert p.dim == 0
    assert p.n_facets == 0
    assert p.n_vertices == 2


def test_triangle_with_duplicate_vertex():
    p = facet_enumeration([(0, 0), (1, 0), (0, 1), (0, 0)])
    assert p.dim == 2
    assert p.n_facets == 3
    cert = certify_vertices(p)
    assert cert[:3] == [True, True, True]
    # the duplicate sits on the same facets as vertex 0, so it still
    # certifies; duplicates are the caller's concern
    assert cert[3] is True


def test_collinear_middle_point():
    p = facet_enumeration([(0, 0), (1, 1), (2, 2)])
    assert p.dim == 1
    assert p.n_facets == 2
    assert certify_vertices(p) == [True, False, True]


def test_square_with_center():
    p = hull_of(SQUARE + [(Fraction(1, 2), Fraction(1, 2))])
    assert p.n_facets == 4
    assert certify_vertices(p) == [True, True, True, True, False]


def test_square_with_edge_midpoint():
    p = hull_of(SQUARE + [(Fraction(1, 2), 0)])
    assert p.n_facets == 4
    assert certify_vertices(p) == [True, True, True, True, False]


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        facet_enumeration([(0, 0), (1,)])


def test_empty_rejected():
    with pytest.raises(ValueError):
        facet_enumeration([])


def test_float_points_rejected(monkeypatch):
    # 0.1 is not 1/10 in binary; it would come back as the vertex
    # 3602879701896397/36028797018963968.  Only ints are coordinates: a
    # rational is an integer over the denominator, so a Fraction, and a
    # bool, are refused too, before any arithmetic
    def forbidden(*args):
        raise AssertionError("the hull started on a refused point")

    monkeypatch.setattr(hull, "_affine_chart", forbidden)
    for bad in (0.1, Fraction(1, 10), True):
        with pytest.raises(TypeError, match="is not an int"):
            facet_enumeration([(0, 0), (bad, 0), (0, 1)])
        with pytest.raises(TypeError, match="is not an int"):
            facet_enumeration([(0, 0), (0, 1), (bad, 0)], 10)
    monkeypatch.undo()
    assert points_of(facet_enumeration([(0, 0), (1, 0), (0, 10)], 10)
                     )[1] == (Fraction(1, 10), 0)


def test_integer_points_over_a_denominator():
    # rows over a denominator are the points rows / denominator, whatever
    # common factor the rows and the denominator share; the denominator
    # must be a positive integer
    thirds = facet_enumeration([(0, 0), (2, 0), (1, 3)], 6)
    want = hull_of([(0, 0), (Fraction(1, 3), 0), (Fraction(1, 6),
                                                 Fraction(1, 2))])
    unreduced = facet_enumeration([(0, 0), (8, 0), (4, 12)], 24)
    for got in (thirds, unreduced):
        assert (points_of(got), got.facets, got.incidence.tight_sets) == (
            points_of(want), want.facets, want.incidence.tight_sets)
        assert polytope_to_document(got) == polytope_to_document(want)
    for bad in (0, -6, Fraction(6), 6.0):
        with pytest.raises(ValueError, match="denominator"):
            facet_enumeration([(0, 0), (2, 0), (1, 3)], bad)


def combine(a, b, k):
    # a + k b on polar rays (t, y), a valid inequality tight where both are
    return tuple(x + k * y for x, y in zip(a, b))


# Each damage breaks one certificate checked after the double
# description.  A polar ray (t, y) is the facet <y, x> <= t of the
# centred points; the triangle's three facets meet pairwise in a vertex.
RAY_DAMAGE = {
    "duplicate facets": lambda rays: rays + rays[:1],
    "violated": lambda rays: [combine((rays[0][0],) + rays[0][1:],
                                      (0,) + rays[0][1:], 1)] + rays[1:],
    "tight at no vertex": lambda rays: [combine(rays[0], rays[0][:1] + (0, 0),
                                                1)] + rays[1:],
    "share a tight vertex set": lambda rays: rays + [
        combine(rays[0], rays[1], 1), combine(rays[0], rays[1], 2)],
    "unbounded polar": lambda rays: [combine(rays[0], rays[0][:1] + (0, 0),
                                             -2)] + rays[1:],
}


@pytest.mark.parametrize("message", sorted(RAY_DAMAGE))
def test_broken_facet_certificates_raise_invariant_error(monkeypatch, message):
    dd = hull._dd_extreme_rays
    monkeypatch.setattr(hull, "_dd_extreme_rays",
                        lambda ineqs: RAY_DAMAGE[message](dd(ineqs)))
    with pytest.raises(InvariantError, match=message) as caught:
        facet_enumeration([(0, 0), (1, 0), (0, 1)])
    # a fault of the hull, so no handler of bad input may catch it
    assert not isinstance(caught.value, ValueError)


def test_hull_bounds():
    # 30 points on a parabola are a 30-gon, and 31 are refused
    parabola = [(i, i * i) for i in range(31)]
    p = facet_enumeration(parabola[:30])
    assert (p.dim, p.n_facets) == (2, 30)
    assert certify_vertices(p) == [True] * 30
    with pytest.raises(PreconditionError, match="31 points exceed hull bound 30"):
        facet_enumeration(parabola)
    with pytest.raises(PreconditionError):
        facet_enumeration([(i,) for i in range(200)])
    # the 10-simplex is hulled; in dimension 11 the chart stops once its
    # basis passes the bound
    p = facet_enumeration([tuple(int(i == j) for j in range(10))
                           for i in range(11)])
    assert (p.dim, p.n_facets) == (10, 11)
    simplex = [tuple(int(i == j) for j in range(11)) for i in range(12)]
    with pytest.raises(PreconditionError, match="hull bound 10"):
        facet_enumeration(simplex)
    # B_5's 120 vertices are refused: the package certifies B_n's facets
    # with no hull, and only the tests' reference hull lifts the bounds
    with pytest.raises(PreconditionError):
        facet_enumeration(birkhoff_rows(5))


def test_point_bound_is_checked_before_a_coordinate_is_read():
    # refused on the count alone: the float is never reached
    with pytest.raises(PreconditionError, match="31 points exceed hull bound 30"):
        facet_enumeration([(0.5, 0)] * 31)
    with mock.patch.object(hull, "MAX_VERTICES", 4), pytest.raises(
            PreconditionError, match="5 points exceed hull bound 4"):
        facet_enumeration(SQUARE + [(0.5, 0)])


def rank_greedy_basis(points):
    """The chart basis the way it was first written: keep p - points[0]
    when it raises the rank of the differences kept so far."""
    base = points[0]
    kept = []
    for p in points[1:]:
        diff = tuple(a - b for a, b in zip(p, base))
        if sympy.Matrix(kept + [diff]).rank() > len(kept):
            kept.append(diff)
    return kept


def scaled_points(pts):
    """The points times the lcm of all their denominators, as the hull
    scales them."""
    return integer_points(pts)[0]


def test_one_pass_chart_keeps_the_rank_greedy_basis():
    rng = random.Random(7)
    cases = [[entries(m) for m in birkhoff_vertices(4)]]
    for _ in range(10):
        cases.append(random_point_set(rng))
    for pts in cases:
        scaled = scaled_points(pts)
        pivot_rows = _affine_chart(scaled)
        diffs = [tuple(a - b for a, b in zip(p, scaled[0])) for p in scaled[1:]]
        basis = [diffs[i] for i, *_ in _independent_rows(diffs)]
        want = rank_greedy_basis(scaled)
        assert basis == want
        assert len(pivot_rows) == len(want) == affine_dim(pts)
        rref_pivots = sympy.Matrix(want).rref()[1]
        assert pivot_rows == list(rref_pivots)


def rank_greedy_start(ineqs):
    """The DD start the way it was first written: keep an inequality
    when it raises the rank of the ones kept so far, until there are as
    many as coordinates."""
    chosen = []
    for i, c in enumerate(ineqs):
        if len(chosen) == len(c):
            break
        if sympy.Matrix([ineqs[j] for j in chosen] + [c]).rank() > len(chosen):
            chosen.append(i)
    return chosen


def test_dd_start_keeps_the_rank_greedy_choice(monkeypatch):
    systems = []
    dd = hull._dd_extreme_rays

    def spy(ineqs):
        systems.append(ineqs)
        return dd(ineqs)

    monkeypatch.setattr(hull, "_dd_extreme_rays", spy)
    for n in (3, 4):
        hull.facet_enumeration(birkhoff_rows(n))
        for entry in default_catalog(n):
            representation_polytope(entry.matrix_group)
    assert len(systems) == 2 + len(default_catalog(3)) + len(default_catalog(4))
    for ineqs in systems:
        assert all(type(x) is int for c in ineqs for x in c)
        dim = len(ineqs[0])
        chosen = hull._dd_start(ineqs)[0]
        assert chosen == rank_greedy_start(ineqs)
        assert len(chosen) == dim


def test_facet_enumeration_rank_calls_are_pinned(monkeypatch):
    # machine-independent gate: the chart and the DD start pick their
    # independent rows in one pass each and vertex certification reads
    # the incidence, so a hull takes no rank (the package has none left)
    # and builds one chart
    charts = []
    chart = hull._affine_chart

    def counting_chart(*args):
        charts.append(args)
        return chart(*args)

    monkeypatch.setattr(hull, "_affine_chart", counting_chart)
    p = facet_enumeration(birkhoff_rows(4))
    assert p.n_facets == 16
    hulls = 1
    for n in (3, 4):
        for entry in default_catalog(n):
            representation_polytope(entry.matrix_group)
            hulls += 1
    assert len(charts) == hulls


def test_certify_vertices_reads_only_the_incidence(monkeypatch):
    p = facet_enumeration(birkhoff_rows(4))

    def forbidden(*args):
        raise AssertionError("certify_vertices did linear algebra")

    for module, name in ((hull, "_independent_rows"), (hull, "_affine_chart")):
        monkeypatch.setattr(module, name, forbidden)
    assert certify_vertices(p) == [True] * 24


@pytest.mark.parametrize("n, start, new", [(3, 5, 8), (4, 10, 61),
                                           (5, 17, 881)])
def test_dd_ray_counts_are_pinned(monkeypatch, n, start, new):
    # every DD ray, start or new, is made primitive once; the insertion
    # order carries the cost, so a change of it shows here first
    made = []
    primitive = hull.primitive_vector
    dd = hull._dd_extreme_rays
    counts = []

    def spy_primitive(values):
        made.append(values)
        return primitive(values)

    def spy_dd(ineqs):
        before = len(made)
        rays = dd(ineqs)
        assert all(type(x) is int for v in made[before:] for x in v)
        start_rays = len(ineqs[0])
        counts.append((start_rays, len(made) - before - start_rays, len(rays)))
        return rays

    monkeypatch.setattr(hull, "primitive_vector", spy_primitive)
    monkeypatch.setattr(hull, "_dd_extreme_rays", spy_dd)
    p = birkhoff_hull(n)
    assert counts == [(start, new, p.n_facets)]
    assert p.n_facets == n * n


def dd_systems(monkeypatch, polytopes):
    """The inequality systems the double description receives while
    `polytopes` (a zero-argument callable) builds its hulls."""
    systems = []
    dd = hull._dd_extreme_rays

    def spy(ineqs):
        systems.append(ineqs)
        return dd(ineqs)

    monkeypatch.setattr(hull, "_dd_extreme_rays", spy)
    polytopes()
    monkeypatch.undo()
    return systems


def birkhoff_and_catalog_hulls():
    for n in (3, 4, 5):
        birkhoff_hull(n)
    for n in (3, 4):
        for entry in default_catalog(n):
            representation_polytope(entry.matrix_group)


def test_dd_start_takes_no_row_reduction(monkeypatch):
    # the start finds its inequalities and rays by Gauss-Jordan on lines,
    # so the double description never calls the chart's row reduction,
    # and it meets the rays of the start by inverse, in the same order
    systems = dd_systems(monkeypatch, birkhoff_and_catalog_hulls)
    assert len(systems) == 3 + len(default_catalog(3)) + len(default_catalog(4))
    want = [dd_extreme_rays_by_inverse(ineqs) for ineqs in systems]

    def forbidden(*args):
        raise AssertionError("the double description reduced rows")

    monkeypatch.setattr(hull, "_independent_rows", forbidden)
    assert [hull._dd_extreme_rays(ineqs) for ineqs in systems] == want


@st.composite
def inequality_systems(draw):
    """Integer systems of dimension 1..8 with up to 20 rows of entries
    -4..4, with zero rows, duplicate rows and dependent rows (the sum or
    difference of two earlier rows, placed right after the later one, so
    often before the last independent row) drawn in."""
    dim = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                         min_size=max(1, dim - 1), max_size=16))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(i, len(rows) - 1))
        sign = draw(st.sampled_from((1, -1)))
        row = draw(st.sampled_from([
            (0,) * dim, rows[i],
            tuple(a + sign * b for a, b in zip(rows[i], rows[j]))]))
        rows.insert(j + 1, row)
    return rows


def dd_outcome(dd, ineqs):
    try:
        return dd(ineqs)
    except ValueError as exc:
        assert "cone is not pointed" in str(exc)
        return "not pointed"


@given(inequality_systems())
@settings(max_examples=300, deadline=None)
def test_dd_matches_the_inverse_start(ineqs):
    assert (dd_outcome(hull._dd_extreme_rays, ineqs)
            == dd_outcome(dd_extreme_rays_by_inverse, ineqs))


def test_dd_start_on_dependent_rows_before_the_last_independent_one():
    # rows 1 to 3 (a copy of row 0, twice row 0 and a zero row) come
    # before the independent rows 4 and 5: they are deferred in index
    # order, ahead of row 6, which follows the last choice
    ineqs = [(1, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 0), (0, 1, 1),
             (0, 1, -1), (1, 1, 1)]
    chosen, rays, deferred = hull._dd_start(ineqs)
    assert (chosen, deferred) == ([0, 4, 5], [1, 2, 3, 6])
    assert rays == [(1, 0, 0), (0, 1, 1), (0, 1, -1)]
    assert hull._dd_extreme_rays(ineqs) == dd_extreme_rays_by_inverse(ineqs)
    with pytest.raises(ValueError, match="not pointed"):
        hull._dd_extreme_rays(ineqs[:5])


@given(st.integers(0, 6).flatmap(lambda ambient: st.lists(
    st.tuples(*[st.integers(-3, 3)] * ambient), min_size=1, max_size=12)),
    st.integers(0, 12), st.sampled_from((1, 2, 3, hull.MAX_DIM)))
@settings(max_examples=300, deadline=None)
def test_column_chart_matches_the_row_pivots(points, copies, max_dim):
    # the drawn points with copies of some, and then, all times 2m for m
    # points, with the midpoints of neighbours and the centroid; the
    # drawn bound is patched in the body, as hypothesis runs every
    # example in one call of the test
    points = points + points[:copies]
    m = len(points)
    inside = ([tuple(2 * m * x for x in p) for p in points]
              + [tuple(m * (x + y) for x, y in zip(a, b))
                 for a, b in zip(points, points[1:])]
              + [tuple(2 * sum(c) for c in zip(*points))])

    def chart_or_refusal(chart, *args):
        try:
            return chart(*args)
        except PreconditionError as exc:
            return str(exc)

    for pts in (points, inside):
        with mock.patch.object(hull, "MAX_DIM", max_dim):
            ours = chart_or_refusal(_affine_chart, pts)
        assert ours == chart_or_refusal(affine_chart_by_rows, pts, max_dim)


def spy_on_the_chart_reduction(monkeypatch):
    """Record how many columns the chart draws into `_independent_rows`
    and how many it keeps."""
    seen = {"drawn": 0, "kept": 0}
    reduce = hull._independent_rows

    def counted(vectors):
        for v in vectors:
            seen["drawn"] += 1
            yield v

    def spy(vectors):
        for item in reduce(counted(vectors)):
            seen["kept"] += 1
            yield item

    monkeypatch.setattr(hull, "_independent_rows", spy)
    return seen


def test_chart_of_points_with_no_coordinates(tmp_path, capsys):
    p = facet_enumeration([(), ()])
    assert (p.dim, p.n_facets, p.n_vertices, p.ambient_dim) == (0, 0, 2, 0)
    assert certify_vertices(p) == [True, True]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [[]]}))
    assert main(["hull", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)["details"]
    assert (doc["dim"], doc["n_facets"], doc["vertices"]) == (0, 0, [[]])


def test_chart_of_one_point_draws_no_column(monkeypatch):
    seen = spy_on_the_chart_reduction(monkeypatch)
    assert _affine_chart([(2, 3, 5)]) == []
    assert facet_enumeration([(2, 3, 5)]).dim == 0
    assert seen == {"drawn": 0, "kept": 0}


def test_chart_of_a_simplex_stops_at_its_last_difference(monkeypatch):
    # the 6 permutation matrices of C_6 acting on itself span a 5-simplex
    # in R^36: the pass keeps 5 columns and draws no column after the 5th
    shift = [tuple(int(j == (i + k) % 6) for i in range(6) for j in range(6))
             for k in range(6)]
    want = affine_chart_by_rows(shift)
    seen = spy_on_the_chart_reduction(monkeypatch)
    assert _affine_chart(shift) == want
    assert seen["kept"] == 5
    assert seen["drawn"] == want[-1] + 1 < 36
    p = facet_enumeration(shift)
    assert (p.dim, p.n_facets) == (5, 6)


def test_chart_refuses_the_11_simplex_as_the_basis_passes_10(monkeypatch):
    simplex = [tuple(int(i == j) for j in range(11)) for i in range(12)]
    seen = spy_on_the_chart_reduction(monkeypatch)
    with pytest.raises(PreconditionError, match="hull bound 10"):
        facet_enumeration(simplex)
    assert seen == {"drawn": 11, "kept": 11}
    seen.update(drawn=0, kept=0)
    with mock.patch.object(hull, "MAX_DIM", 11):
        assert len(_affine_chart(simplex)) == 11
    assert seen == {"drawn": 11, "kept": 11}


def test_incidence_symmetry_test_on_short_tight_sets():
    # a tight set of one vertex, or none, has no itemgetter of its own
    inc = IncidenceStructure(4, [{0}, {1, 2, 3}, set()])
    assert inc.preserved_by((0, 2, 3, 1))
    assert inc.preserved_by([0, 3, 1, 2])
    assert not inc.preserved_by((1, 0, 2, 3))
    assert not inc.preserved_by((0, 1, 1, 3))
    assert not inc.preserved_by((0, 1, 2))


def test_certify_vertices_matches_the_rank_certificate():
    cases = [birkhoff_rows(n) for n in (3, 4)]
    for n in (3, 4):
        cases += [[entries(m) for m in entry.matrix_group.elements]
                  for entry in default_catalog(n)]
    rng = random.Random(20261018)
    for _ in range(25):
        cases.append(with_duplicates_and_interior_points(
            rng, random_point_set(rng)))
    for pts in cases:
        p = hull_of(pts)
        assert certify_vertices(p) == rank_certified_vertices(p), pts


def test_incidence_refuses_a_vertex_out_of_range():
    inc = IncidenceStructure(3, [{0, 1}, [1, 2]])
    assert inc.tight_sets == (frozenset({0, 1}), frozenset({1, 2}))
    assert inc.vertex_facets == ((0,), (0, 1), (1,))
    for bad in (3, -1):
        with pytest.raises(ValueError, match="vertex"):
            IncidenceStructure(3, [{0, 1}, {1, bad}])


def test_document_roundtrip():
    p = facet_enumeration([(0, 0), (1, 0), (0, 1)])
    doc = polytope_to_document(p)
    assert doc["n_facets"] == 3
    assert doc["dim"] == 2
    assert polytope_from_document(doc) == ([(0, 0), (1, 0), (0, 1)], 1)


def test_document_requires_vertices():
    with pytest.raises(ValueError):
        polytope_from_document({"points": []})


def test_birkhoff3_facets_are_analytic_complements():
    p = facet_enumeration(birkhoff_rows(3))
    assert p.dim == 4
    assert p.n_vertices == 6
    assert p.n_facets == 9
    assert all(len(s) == 4 for s in p.incidence.tight_sets)
    analytic = analytic_facet_sets(3)
    complements = {frozenset(range(6)) - s for s in analytic}
    assert tight_families(p) == complements
    validate_polytope(p)
    assert certify_vertices(p) == [True] * 6


def test_oracle_agreement_fixed_cases():
    cases = [
        SQUARE,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (2, 0), (0, 2), (Fraction(1, 2), Fraction(1, 2))],
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    ]
    for pts in cases:
        p = hull_of(pts)
        assert p.dim == affine_dim([tuple(map(Fraction, q)) for q in pts])
        assert tight_families(p) == oracle_facets(
            [tuple(map(Fraction, q)) for q in pts])


def test_oracle_agreement_random():
    rng = random.Random(20260819)
    for _ in range(20):
        pts = random_point_set(rng)
        p = hull_of(pts)
        assert tight_families(p) == oracle_facets(pts), pts
        validate_polytope(p)


def conjugated(points_of_group, dim, rng):
    """The element vectors of P^-1 G P for a seeded rational P with p/q
    entries, G given by its row-major element vectors."""
    while True:
        p = rational_matrix([
            Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for _ in range(dim * dim)])
        s = sympy.Matrix(dim, dim, entries(p))
        if s.rank() == dim:
            break
    p_inv = rational_matrix([Fraction(str(x)) for x in s.inv()])
    return [entries(_product(_product(p_inv, rational_matrix(g)), p))
            for g in points_of_group]


def reference_cases():
    """B_3, B_4, both catalogs, each catalog group conjugated by a p/q
    matrix, 120 seeded random sets with a duplicate, a midpoint and the
    centroid added, and one set with denominators near 10^9."""
    cases = [birkhoff_rows(n) for n in (3, 4)]
    rng = random.Random(20261019)
    for n in (3, 4):
        for entry in default_catalog(n):
            mgroup = entry.matrix_group
            elements = [entries(m) for m in mgroup.elements]
            cases.append(elements)
            cases.append(conjugated(elements, mgroup.dim, rng))
    for _ in range(120):
        cases.append(with_duplicates_and_interior_points(
            rng, random_point_set(rng, 10, 5)))
    cases.append([tuple(Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                 rng.randint(10 ** 9 - 99, 10 ** 9))
                        for _ in range(4)) for _ in range(9)])
    return cases


def test_integer_hull_matches_the_fraction_reference():
    for pts in reference_cases():
        want = fraction_facet_enumeration(pts)
        assert same_polytope(hull_of(pts), want), pts


def test_integer_hull_matches_the_fraction_reference_on_b5():
    pts = birkhoff_rows(5)
    assert same_polytope(birkhoff_hull(5), fraction_facet_enumeration(pts))


def test_dd_extreme_rays_sees_only_ints(monkeypatch):
    # the int-only gate: the double description receives and returns
    # integer tuples, whatever rationals the points had
    calls = []
    dd = hull._dd_extreme_rays

    def spy(ineqs):
        rays = dd(ineqs)
        calls.append((ineqs, rays))
        return rays

    monkeypatch.setattr(hull, "_dd_extreme_rays", spy)
    cases = reference_cases()
    for pts in cases:
        hull_of(pts)
    assert len(calls) == sum(1 for pts in cases if affine_dim(pts) > 0)
    for ineqs, rays in calls:
        for vectors in (ineqs, rays):
            assert all(type(v) is tuple for v in vectors)
            assert all(type(x) is int for v in vectors for x in v)


FRACTION_OPERATIONS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__bool__", "__hash__")


def test_hull_makes_no_fraction_arithmetic(monkeypatch):
    # the points come in as integer rows over one denominator; from there
    # to the Facets, which hold integers, nothing
    rng = random.Random(3)
    elements = [entries(m) for m in default_catalog(3)[0].matrix_group.elements]
    octahedron = [tuple(Fraction(s * (i == j), 3) for j in range(3))
                  for i in range(3) for s in (2, -5)]
    cases = [integer_points(pts) for pts in (
        birkhoff_rows(4), conjugated(elements, 3, rng),
        with_duplicates_and_interior_points(rng, octahedron))]
    used = []
    for name in FRACTION_OPERATIONS:
        original = getattr(Fraction, name)

        def counted(*args, _name=name, _original=original):
            used.append(_name)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    polytopes = [facet_enumeration(*case) for case in cases]
    monkeypatch.undo()
    assert used == []
    assert [p.n_facets for p in polytopes] == [16, 9, 8]


# sha256 of the canonical JSON of polytope_to_document, taken from the
# Fraction hull: the integer hull must write the same bytes
DOCUMENT_DIGESTS = {
    ("B", 3): "78b1dcecff13dc2dde90335cec37536f5b87aca1b3f94284f18fc26a28a61874",
    ("B", 4): "0f344b83396f31433a854fa219e7b98b4935b5e388adfed234199a6ea93e69f2",
    (3, "s3_standard"): "75308af90f2bb6f149a7c7bc1a11b1ccd5c697bd7f413c92c0d707dbf694d598",
    (3, "c6_exceptional"): "749f8a12e5a37ee0948630178e46d4d0833aa9fef4cc52e65d32558a4682307e",
    (3, "c6_regular"): "69f1ff57607ee74f1087eaa42a87aeb2b5c9a1800cab6149c9d01ac433a7a932",
    (3, "s3_regular"): "542113375b9c84550f549e1d5fcd3808e1fb128765d75be650db38849748e0ab",
    (3, "c4_regular"): "7d6fda2774c9a8014f1e7ea1f7870d5ce976472914477dd2134d977ebbe43388",
    (3, "v4_regular"): "878d73aaf73937a304187ec90d10231fabcb53fbb5fe666b82f0e9de8d0664fe",
    (4, "s4_standard"): "15bf6c47e0b4b3bc9bba446a8fb9e34b84d34cd6772f91da71a94ef61de28154",
    (4, "d4_standard"): "ca1c70e477b3b130923e412dc7aaa70b8b60a23220a0dd5755148639533168f8",
    (4, "c4_regular"): "7d6fda2774c9a8014f1e7ea1f7870d5ce976472914477dd2134d977ebbe43388",
}


def document_digest(polytope):
    text = json.dumps(polytope_to_document(polytope), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_polytope_documents_are_pinned():
    got = {("B", n): document_digest(
        facet_enumeration(birkhoff_rows(n)))
        for n in (3, 4)}
    for n in (3, 4):
        for entry in default_catalog(n):
            got[n, entry.name] = document_digest(
                representation_polytope(entry.matrix_group))
    assert got == DOCUMENT_DIGESTS
