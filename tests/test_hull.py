"""Tests for exact facet enumeration: hand-checked polytopes, degenerate
inputs, vertex certification, and agreement with the brute-force
hyperplane-spanning oracle in hull_oracle.py."""

import random
from fractions import Fraction
from itertools import islice

import pytest
import sympy

from birkhoffsym import exact, hull
from birkhoffsym.birkhoff import analytic_facet_sets, birkhoff_vertices
from birkhoffsym.errors import PreconditionError
from birkhoffsym.exact import _independent_rows, rank
from birkhoffsym.hull import (IncidenceStructure, _affine_chart,
                              certify_vertices, facet_enumeration, incidence_of,
                              polytope_from_document, polytope_to_document,
                              validate_polytope)
from birkhoffsym.reppoly import default_catalog, representation_polytope

from hull_oracle import (affine_dim, oracle_facets, random_point_set,
                         rank_certified_vertices,
                         with_duplicates_and_interior_points)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def tight_families(polytope):
    return frozenset(polytope.tight_sets())


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
    assert all(len(s) == 2 for s in p.tight_sets())
    validate_polytope(p)


def test_cube():
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = facet_enumeration(verts)
    assert p.dim == 3
    assert p.n_facets == 6
    assert all(len(s) == 4 for s in p.tight_sets())
    validate_polytope(p)


def test_octahedron():
    verts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    p = facet_enumeration(verts)
    assert p.n_facets == 8
    assert all(len(s) == 3 for s in p.tight_sets())
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
    p = facet_enumeration(SQUARE + [(Fraction(1, 2), Fraction(1, 2))])
    assert p.n_facets == 4
    assert certify_vertices(p) == [True, True, True, True, False]


def test_square_with_edge_midpoint():
    p = facet_enumeration(SQUARE + [(Fraction(1, 2), 0)])
    assert p.n_facets == 4
    assert certify_vertices(p) == [True, True, True, True, False]


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        facet_enumeration([(0, 0), (1,)])


def test_empty_rejected():
    with pytest.raises(ValueError):
        facet_enumeration([])


def test_hull_bounds():
    with pytest.raises(PreconditionError):
        facet_enumeration([(i,) for i in range(200)])
    # dimension 11: the chart stops once its basis passes the bound
    simplex = [tuple(int(i == j) for j in range(11)) for i in range(12)]
    with pytest.raises(PreconditionError, match="hull bound 10"):
        facet_enumeration(simplex)
    # B_5's 120 vertices are refused here; verify_symmetry_group lifts the
    # bounds for its own input only
    with pytest.raises(PreconditionError):
        facet_enumeration([m.entries for m in birkhoff_vertices(5)])


def rank_greedy_basis(points):
    """The chart basis the way it was first written: keep p - points[0]
    when it raises the rank of the differences kept so far."""
    base = points[0]
    kept = []
    for p in points[1:]:
        diff = tuple(a - b for a, b in zip(p, base))
        if rank(kept + [diff]) > len(kept):
            kept.append(diff)
    return kept


def test_one_pass_chart_keeps_the_rank_greedy_basis():
    rng = random.Random(7)
    cases = [[tuple(map(Fraction, m.entries)) for m in birkhoff_vertices(4)]]
    for _ in range(10):
        cases.append(random_point_set(rng))
    for pts in cases:
        d, base, basis, pivot_rows, _ = _affine_chart(pts)
        want = rank_greedy_basis(pts)
        assert basis == want
        assert d == len(want) == affine_dim(pts)
        rref_pivots = sympy.Matrix(
            [[sympy.Rational(x) for x in u] for u in want]).rref()[1]
        assert pivot_rows == list(rref_pivots)


def rank_greedy_start(ineqs):
    """The DD start the way it was first written: keep an inequality
    when it raises the rank of the ones kept so far, until there are as
    many as coordinates."""
    chosen = []
    for i, c in enumerate(ineqs):
        if len(chosen) == len(c):
            break
        if rank([ineqs[j] for j in chosen] + [c]) > len(chosen):
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
        hull.facet_enumeration([m.entries for m in birkhoff_vertices(n)])
        for entry in default_catalog(n):
            representation_polytope(entry.matrix_group)
    assert len(systems) == 2 + len(default_catalog(3)) + len(default_catalog(4))
    for ineqs in systems:
        dim = len(ineqs[0])
        chosen = [i for i, *_ in islice(_independent_rows(ineqs), dim)]
        assert chosen == rank_greedy_start(ineqs)
        assert len(chosen) == dim


def test_facet_enumeration_rank_calls_are_pinned(monkeypatch):
    # machine-independent gate: the chart and the DD start pick their
    # independent rows in one pass each, vertex certification reads the
    # incidence, so a hull takes no rank() and builds one chart
    ranks, charts = [], []
    chart = hull._affine_chart

    def counting_rank(matrix):
        ranks.append(matrix)
        return rank(matrix)

    def counting_chart(*args):
        charts.append(args)
        return chart(*args)

    monkeypatch.setattr(exact, "rank", counting_rank)
    monkeypatch.setattr(hull, "_affine_chart", counting_chart)
    p = facet_enumeration([m.entries for m in birkhoff_vertices(4)])
    assert p.n_facets == 16
    hulls = 1
    for n in (3, 4):
        for entry in default_catalog(n):
            representation_polytope(entry.matrix_group)
            hulls += 1
    assert len(ranks) == 0
    assert len(charts) == hulls


def test_certify_vertices_reads_only_the_incidence(monkeypatch):
    p = facet_enumeration([m.entries for m in birkhoff_vertices(4)])

    def forbidden(*args):
        raise AssertionError("certify_vertices did linear algebra")

    for module, name in ((exact, "rank"), (exact, "dot"), (hull, "dot"),
                         (hull, "_affine_chart")):
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
        start_rays = len(ineqs[0])
        counts.append((start_rays, len(made) - before - start_rays, len(rays)))
        return rays

    monkeypatch.setattr(hull, "primitive_vector", spy_primitive)
    monkeypatch.setattr(hull, "_dd_extreme_rays", spy_dd)
    p = hull._facet_enumeration([m.entries for m in birkhoff_vertices(n)])
    assert counts == [(start, new, p.n_facets)]
    assert p.n_facets == n * n


def test_certify_vertices_matches_the_rank_certificate():
    cases = [[m.entries for m in birkhoff_vertices(n)] for n in (3, 4)]
    for n in (3, 4):
        cases += [[m.entries for m in entry.matrix_group.elements]
                  for entry in default_catalog(n)]
    rng = random.Random(20261018)
    for _ in range(25):
        cases.append(with_duplicates_and_interior_points(
            rng, random_point_set(rng)))
    for pts in cases:
        p = facet_enumeration(pts)
        assert certify_vertices(p) == rank_certified_vertices(p), pts


def test_incidence_of_dedups_rows():
    p = facet_enumeration(SQUARE)
    inc = incidence_of(p)
    assert inc.n_facets == 4
    doubled = IncidenceStructure(4, list(p.incidence) + list(p.incidence))
    assert doubled.n_facets == 8  # constructor stores rows as given


def test_document_roundtrip():
    p = facet_enumeration([(0, 0), (1, 0), (0, 1)])
    doc = polytope_to_document(p)
    assert doc["n_facets"] == 3
    assert doc["dim"] == 2
    back = polytope_from_document(doc)
    assert back == [tuple(map(Fraction, v)) for v in [(0, 0), (1, 0), (0, 1)]]


def test_document_requires_vertices():
    with pytest.raises(ValueError):
        polytope_from_document({"points": []})


def test_birkhoff3_facets_are_analytic_complements():
    verts = [m.entries for m in birkhoff_vertices(3)]
    p = facet_enumeration(verts)
    assert p.dim == 4
    assert p.n_vertices == 6
    assert p.n_facets == 9
    assert all(len(s) == 4 for s in p.tight_sets())
    analytic = analytic_facet_sets(3)
    complements = {frozenset(range(6)) - s for s in analytic.values()}
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
        p = facet_enumeration(pts)
        assert p.dim == affine_dim([tuple(map(Fraction, q)) for q in pts])
        assert tight_families(p) == oracle_facets(
            [tuple(map(Fraction, q)) for q in pts])


def test_oracle_agreement_random():
    rng = random.Random(20260819)
    for _ in range(20):
        pts = random_point_set(rng)
        p = facet_enumeration(pts)
        assert tight_families(p) == oracle_facets(pts), pts
        validate_polytope(p)
