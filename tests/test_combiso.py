"""Tests for combinatorial automorphisms and equivalence of vertex-facet
incidences.  The stabilizer-chain search is checked against a brute-force
oracle over all vertex permutations, and its strong generators are closed
to the full group.  The packed-mask engine is checked against the
list-of-masks engine it replaced (`combiso_oracle`): same plans, same
orbit lengths, same generator images, same first witnesses."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birkhoffsym import combiso
from birkhoffsym.combiso import comb_automorphisms, comb_equivalent
from birkhoffsym.errors import InvariantError
from birkhoffsym.hull import IncidenceStructure, facet_enumeration
from birkhoffsym.perm import closure
from birkhoffsym.reppoly import (default_catalog, load_exceptional_c6,
                                 representation_polytope)

import combiso_oracle as oracle
from group_oracle import regular_action
from hull_oracle import birkhoff_hull, birkhoff_rows, maps_rows_onto_rows

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
    return birkhoff_hull(n).incidence


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
    return closure(list(aut.generators) or [tuple(range(inc.n_vertices))])


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
    assert all(maps_rows_onto_rows(p, rows) for p in group.elements)


def test_automorphisms_map_facets_onto_facets():
    inc = square_incidence()
    rows = set(inc.tight_sets)
    for p in generated(comb_automorphisms(inc), inc).elements:
        assert {frozenset(p[v] for v in row) for row in rows} == rows


def test_membership_tests_the_incidence():
    entry = default_catalog(4)[0]  # S_4 standard: its polytope is B_4
    inc = representation_polytope(entry.matrix_group).incidence
    lams, rhos, _ = regular_action(entry.matrix_group.element_group())
    assert all(inc.preserved_by(p) for p in lams + rhos)
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


@lru_cache(maxsize=None)
def oracle_cases():
    c6 = representation_polytope(load_exceptional_c6()).incidence
    return {**small_incidences(), **chain_incidences(),
            "b5": birkhoff_incidence(5), "c6-fixture": c6}


def relabelled(inc):
    """inc with its vertices renamed v -> 3v + 1 mod n (a bijection unless
    3 divides n, then v -> n - 1 - v) and its facets listed backwards."""
    n = inc.n_vertices
    name = ((lambda v: (3 * v + 1) % n) if n % 3
            else (lambda v: n - 1 - v))
    return IncidenceStructure(n, [map(name, row)
                                  for row in reversed(inc.tight_sets)])


def refined_plan(inc_p, inc_q):
    (colors_p, colors_q), _ = combiso._refined_colors([inc_p, inc_q])
    return combiso._plan(inc_p, inc_q, colors_p, colors_q)


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_automorphisms_match_the_oracle(name):
    inc = oracle_cases()[name]
    aut = comb_automorphisms(inc)
    orbit_lengths, witnesses = oracle.automorphisms(inc)
    assert aut.orbit_lengths == orbit_lengths
    assert list(aut.generators) == witnesses
    plan, reference = refined_plan(inc, inc), oracle._plan(inc, inc)
    assert plan.order == reference.order
    assert plan.candidates == reference.candidates


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_witnesses_match_the_oracle(name):
    inc = oracle_cases()[name]
    others = [inc, relabelled(inc), birkhoff_incidence(3),
              birkhoff_incidence(4)]
    witnesses = [comb_equivalent(inc, other) for other in others]
    assert witnesses == [oracle.equivalent(inc, other) for other in others]
    assert witnesses[1] is not None


def unpacked_masks(rows_p, rows_q, n, prefix):
    """The oracle's candidate masks, one per P facet, after each
    assignment of the prefix, dead or alive."""
    plan = oracle._plan(IncidenceStructure(n, rows_p),
                        IncidenceStructure(n, rows_q))
    cand, states = list(plan.init_cand), []
    for v, w in zip(plan.order, prefix):
        cand = [c & (plan.qrows_with[w] if hit else plan.qrows_without[w])
                for c, hit in zip(cand, plan.inside[v])]
        states.append(cand)
    return states


# the assignment that ends each prefix is the first to empty a field
EMPTIES_FIELD_0 = (3, [[2], [1], [0, 2]], [[2], [1], [0, 2]], (2, 0))
EMPTIES_LAST_FIELD = (3, [[2], [1], [0, 2]], [[2], [1], [0, 2]], (0, 1))
FULL_BELOW_EMPTY = (5, [[3, 4], [1, 3]], [[3, 4], [1, 3]], (3, 0))


def test_the_named_edge_cases_empty_the_named_fields():
    # (case, its empty fields, its full fields, 2^nf - 1, after the last
    # assignment): in the third a carry out of the full field 0 would set
    # the guard bit of the empty field 1 right above it
    for case, empty, full in [(EMPTIES_FIELD_0, [0], []),
                              (EMPTIES_LAST_FIELD, [2], []),
                              (FULL_BELOW_EMPTY, [1], [0])]:
        n, rows_p, rows_q, prefix = case
        *alive, last = unpacked_masks(rows_p, rows_q, n, prefix)
        assert all(map(all, alive))
        assert [fi for fi, c in enumerate(last) if not c] == empty
        all_q = (1 << len(rows_q)) - 1
        assert [fi for fi, c in enumerate(last) if c == all_q] == full


@st.composite
def incidence_pairs(draw):
    """n vertices, P's distinct tight sets, Q's (P relabelled, or drawn
    anew) and a prefix of images."""
    n = draw(st.integers(1, 7))
    rows = st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1,
                    max_size=12, unique=True)
    rows_p = draw(rows)
    if draw(st.booleans()):
        name = draw(st.permutations(range(n)))
        rows_q = [frozenset(map(name.__getitem__, row))
                  for row in draw(st.permutations(rows_p))]
    else:
        rows_q = draw(rows)
    prefix = tuple(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return n, rows_p, rows_q, prefix


@given(incidence_pairs())
@example(EMPTIES_FIELD_0)
@example(EMPTIES_LAST_FIELD)
@example(FULL_BELOW_EMPTY)
@settings(max_examples=300, deadline=None)
def test_packed_search_matches_the_oracle(case):
    n, rows_p, rows_q, prefix = case
    inc_p, inc_q = IncidenceStructure(n, rows_p), IncidenceStructure(n, rows_q)
    reference = oracle._plan(inc_p, inc_q)
    assert comb_equivalent(inc_p, inc_q) == oracle.equivalent(inc_p, inc_q)
    if reference is not None:
        plan = refined_plan(inc_p, inc_q)
        assert plan.order == reference.order
        assert plan.candidates == reference.candidates
        for k in range(len(prefix) + 1):
            assert (combiso._search(plan, prefix[:k])
                    == oracle._search(reference, prefix[:k]))
    aut = comb_automorphisms(inc_p)
    assert ((aut.orbit_lengths, list(aut.generators))
            == oracle.automorphisms(inc_p))


def test_search_and_refinement_counts_are_pinned(monkeypatch):
    # Exact, machine-independent work of the stabilizer chain: witness
    # searches (each one finds a witness) and colour refinements, one for
    # the plan and level 0, then one per level walked.
    search, refine = combiso._search, combiso._refined_colors
    calls: list = []

    def counted_search(plan, prefix=()):
        witness = search(plan, prefix)
        calls.append(witness is not None)
        return witness

    def counted_refine(*args):
        calls.append("refine")
        return refine(*args)

    monkeypatch.setattr(combiso, "_search", counted_search)
    monkeypatch.setattr(combiso, "_refined_colors", counted_refine)
    counts = {}
    for n in (3, 4, 5):
        calls.clear()
        comb_automorphisms(birkhoff_incidence(n))
        counts[n] = (calls.count(True), calls.count(False),
                     calls.count("refine"))
    assert counts == {3: (7, 0, 5), 4: (10, 0, 5), 5: (14, 0, 8)}
