"""Tests for combinatorial automorphisms and equivalence of vertex-facet
incidences.  The stabilizer-chain search is checked against a brute-force
oracle over all vertex permutations, and its strong generators are closed
to the full group."""

import itertools
from functools import lru_cache

import pytest

from birkhoffsym import combiso
from birkhoffsym.combiso import comb_automorphisms, comb_equivalent
from birkhoffsym.errors import InvariantError
from birkhoffsym.hull import IncidenceStructure, facet_enumeration
from birkhoffsym.perm import Permutation, closure
from birkhoffsym.reppoly import default_catalog, representation_polytope

from group_oracle import regular_action
from hull_oracle import birkhoff_rows, maps_rows_onto_rows

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def square_incidence():
    return facet_enumeration(SQUARE).incidence


def simplex_incidence(k):
    # k+1 vertices, facets omit one vertex each
    rows = [set(range(k + 1)) - {f} for f in range(k + 1)]
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


@lru_cache(maxsize=None)
def birkhoff_incidence(n):
    return facet_enumeration(birkhoff_rows(n)).incidence


@lru_cache(maxsize=None)
def catalog_incidences():
    return {f"{n}-{entry.name}":
                representation_polytope(entry.matrix_group).incidence
            for n in (3, 4) for entry in default_catalog(n)}


def brute_force_order(inc):
    """Number of vertex permutations mapping the tight sets onto
    themselves, by trying every permutation."""
    rows = set(inc.tight_sets)
    return sum(1 for images in itertools.permutations(range(inc.n_vertices))
               if maps_rows_onto_rows(images, rows))


def generated(aut, inc):
    return closure(list(aut.generators)
                   or [Permutation.identity(inc.n_vertices)])


def cycles_incidence():
    # the edges of a triangle and a disjoint 4-cycle as tight sets: colour
    # refinement cannot split the 7 vertices, so the search for a map
    # taking a triangle vertex to a 4-cycle vertex has to fail
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    return IncidenceStructure(7, edges)


@lru_cache(maxsize=None)
def small_incidences():
    cases = {"square": square_incidence(), "triangle": simplex_incidence(2),
             "tetrahedron": simplex_incidence(3),
             "5-simplex": simplex_incidence(5), "b3": birkhoff_incidence(3),
             "c3+c4": cycles_incidence()}
    cases.update((name, inc) for name, inc in catalog_incidences().items()
                 if inc.n_vertices <= 8)
    return cases


@pytest.mark.parametrize("name", sorted(small_incidences()))
def test_order_matches_brute_force_oracle(name):
    inc = small_incidences()[name]
    assert comb_automorphisms(inc).order == brute_force_order(inc)


@lru_cache(maxsize=None)
def chain_incidences():
    return {"b3": birkhoff_incidence(3), "b4": birkhoff_incidence(4),
            "c3+c4": cycles_incidence(), **catalog_incidences()}


@pytest.mark.parametrize("name", sorted(chain_incidences()))
def test_strong_generators_generate_the_group(name):
    inc = chain_incidences()[name]
    aut = comb_automorphisms(inc)
    group = generated(aut, inc)
    assert group.order == aut.order
    rows = set(inc.tight_sets)
    assert all(maps_rows_onto_rows(p.images, rows) for p in group.elements)


def test_automorphisms_map_facets_onto_facets():
    inc = square_incidence()
    rows = set(inc.tight_sets)
    for p in generated(comb_automorphisms(inc), inc).elements:
        assert {frozenset(p(v) for v in row) for row in rows} == rows


def test_membership_tests_the_incidence():
    entry = default_catalog(4)[0]  # S_4 standard: its polytope is B_4
    inc = representation_polytope(entry.matrix_group).incidence
    lams, rhos, _ = regular_action(entry.matrix_group.element_group())
    assert all(inc.preserved_by(p.images) for p in lams + rhos)
    swap = list(range(24))
    swap[0], swap[1] = swap[1], swap[0]
    assert not inc.preserved_by(swap)
    assert not inc.preserved_by(tuple(range(23)))


def test_chain_size_is_pinned():
    # Exact, machine-independent sizes of the stabilizer chain: a change
    # that makes the search find more generators or a longer base fails
    # here on any machine.
    aut3 = comb_automorphisms(birkhoff_incidence(3))
    assert aut3.orbit_lengths == (6, 3, 2, 2)
    assert len(aut3.generators) == 7
    aut4 = comb_automorphisms(birkhoff_incidence(4))
    assert aut4.orbit_lengths == (24, 6, 4, 2)
    assert len(aut4.generators) == 10


def test_duplicate_rows_rejected():
    with pytest.raises(InvariantError, match="share a tight vertex set"):
        IncidenceStructure(3, [{0, 1}, {0, 1}])


def test_a_generator_breaking_the_incidence_raises_invariant_error(
        monkeypatch):
    # every witness composed with the vertex swap (0 1), which is not a
    # symmetry of B_3, so no witness is one either
    search = combiso._search

    def broken(plan, prefix=()):
        witness = search(plan, prefix)
        return witness and (witness[1], witness[0]) + witness[2:]

    monkeypatch.setattr(combiso, "_search", broken)
    with pytest.raises(InvariantError, match="does not preserve"):
        comb_automorphisms(birkhoff_incidence(3))


def test_equivalent_relabelled_square():
    inc = square_incidence()
    relabel = (2, 0, 3, 1)
    rows = [{v for v in range(4) if relabel[v] in row}
            for row in inc.tight_sets]
    other = IncidenceStructure(4, rows)
    witness = comb_equivalent(inc, other)
    assert witness is not None
    # the witness maps every tight set of inc onto a tight set of other
    target = set(other.tight_sets)
    for row in inc.tight_sets:
        assert frozenset(witness[v] for v in row) in target


def test_square_vs_triangle_not_equivalent():
    assert comb_equivalent(square_incidence(), simplex_incidence(2)) is None


def test_square_vs_simplex4_not_equivalent():
    # same vertex count, different facet structure
    assert comb_equivalent(square_incidence(), simplex_incidence(3)) is None


def test_birkhoff3_automorphisms():
    inc = facet_enumeration(birkhoff_rows(3)).incidence
    aut = comb_automorphisms(inc)
    assert aut.order == 72  # 2 * (3!)^2
