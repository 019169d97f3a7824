"""Tests for combinatorial automorphisms and equivalence of vertex-facet
incidences."""

import pytest

from birkhoffsym.birkhoff import birkhoff_vertices
from birkhoffsym.combiso import comb_automorphisms, comb_equivalent
from birkhoffsym.hull import (IncidenceStructure, facet_enumeration,
                              incidence_of)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def square_incidence():
    return incidence_of(facet_enumeration(SQUARE))


def simplex_incidence(k):
    # k+1 vertices, facets omit one vertex each
    rows = [[v != f for v in range(k + 1)] for f in range(k + 1)]
    return IncidenceStructure(k + 1, rows)


def test_square_automorphisms():
    aut = comb_automorphisms(square_incidence())
    assert aut.order == 8  # dihedral group of the square


def test_triangle_automorphisms():
    aut = comb_automorphisms(simplex_incidence(2))
    assert aut.order == 6


def test_tetrahedron_automorphisms():
    aut = comb_automorphisms(simplex_incidence(3))
    assert aut.order == 24


def test_five_simplex_automorphisms():
    # the regular-representation polytope shape for a 6-element group
    aut = comb_automorphisms(simplex_incidence(5))
    assert aut.order == 720


def test_automorphisms_map_facets_onto_facets():
    inc = square_incidence()
    rows = set(inc.tight_sets())
    for p in comb_automorphisms(inc).elements:
        assert {frozenset(p(v) for v in row) for row in rows} == rows


def test_duplicate_rows_rejected():
    inc = IncidenceStructure(3, [[True, True, False], [True, True, False]])
    with pytest.raises(ValueError, match="not a polytope incidence"):
        comb_automorphisms(inc)


def test_equivalent_relabelled_square():
    inc = square_incidence()
    relabel = (2, 0, 3, 1)
    rows = [[row[relabel[v]] for v in range(4)] for row in inc.rows]
    other = IncidenceStructure(4, rows)
    witness = comb_equivalent(inc, other)
    assert witness is not None
    # the witness maps every tight set of inc onto a tight set of other
    target = set(other.tight_sets())
    for row in inc.tight_sets():
        assert frozenset(witness[v] for v in row) in target


def test_square_vs_triangle_not_equivalent():
    assert comb_equivalent(square_incidence(), simplex_incidence(2)) is None


def test_square_vs_simplex4_not_equivalent():
    # same vertex count, different facet structure
    assert comb_equivalent(square_incidence(), simplex_incidence(3)) is None


def test_birkhoff3_automorphisms():
    verts = [m.entries for m in birkhoff_vertices(3)]
    inc = incidence_of(facet_enumeration(verts))
    aut = comb_automorphisms(inc)
    assert aut.order == 72  # 2 * (3!)^2
