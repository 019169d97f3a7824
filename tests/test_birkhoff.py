"""Tests for the doubly stochastic polytope module: facet sets, the
intersection table, the translation law, symmetry decomposition, and the
full symmetry-group verification."""

import itertools
import random
from math import factorial, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import birkhoff, perm
from birkhoffsym.birkhoff import (SymmetryDecomposition, analytic_facet_sets,
                                  birkhoff_vertices, decompose_symmetry,
                                  permutation_matrix,
                                  verify_intersection_table,
                                  verify_symmetry_group,
                                  verify_transformation_law)
from birkhoffsym.combiso import comb_automorphisms
from birkhoffsym.errors import InvariantError, PreconditionError
from birkhoffsym.exact import _product
from birkhoffsym.hull import IncidenceStructure
from birkhoffsym.perm import _inverse, _right_mul, symmetric_group
from combiso_oracle import automorphisms
from hull_oracle import birkhoff_hull
from law_oracle import (facet_sets, full_decompose_symmetry,
                        full_transformation_law, symmetry_images,
                        tuple_vertex_images)


perm_strategy = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(n))))


@given(perm_strategy, perm_strategy)
def test_matrix_map_is_homomorphism(pa, pb):
    n = max(len(pa), len(pb))
    a = tuple(pa) + tuple(range(len(pa), n))
    b = tuple(pb) + tuple(range(len(pb), n))
    assert (permutation_matrix(_right_mul(b)(a))
            == _product(permutation_matrix(a), permutation_matrix(b)))
    inv_nums, inv_den = permutation_matrix(_inverse(a))
    nums, den = permutation_matrix(a)
    assert inv_den == den == 1
    assert all(inv_nums[i * n + j] == nums[j * n + i]
               for i in range(n) for j in range(n))


def test_permutation_matrix_entries():
    p = (1, 2, 0)  # 0->1, 1->2, 2->0
    nums, den = permutation_matrix(p)
    # column j carries a single 1 in row p(j)
    assert den == 1
    for i in range(3):
        for j in range(3):
            assert nums[i * 3 + j] == (1 if p[j] == i else 0)
    # the identity of every size is the matrix of range(n)
    for n in range(1, 5):
        assert permutation_matrix(range(n)) == (
            tuple(int(i == j) for i in range(n) for j in range(n)), 1)


def test_vertices_doubly_stochastic():
    for n in (3, 4):
        for nums, den in birkhoff_vertices(n):
            for i in range(n):
                assert sum(nums[i * n:(i + 1) * n]) == den
                assert sum(nums[i::n]) == den
    assert len(birkhoff_vertices(4)) == 24
    # B_1 and B_2 are refused by _check_n, the one owner of B_n's range
    for n in (1, 2):
        with pytest.raises(PreconditionError, match=(
                rf"^vertex enumeration supports 3 <= n <= {birkhoff.MAX_N}$")):
            birkhoff_vertices(n)


def test_vertices_bounds():
    with pytest.raises(PreconditionError):
        birkhoff_vertices(birkhoff.MAX_N + 1)
    with pytest.raises(PreconditionError):
        birkhoff_vertices(0)


def test_analytic_sets_small_n_rejected():
    with pytest.raises(PreconditionError):
        analytic_facet_sets(2)


def test_analytic_sets_refuse_n_past_max_n_before_listing_s_n(monkeypatch):
    # _check_n owns 3 <= n <= MAX_N, so S_7 is never listed for B_7
    listed = []
    monkeypatch.setattr(birkhoff, "symmetric_group", listed.append)
    with pytest.raises(PreconditionError,
                       match=rf"^facet description supports 3 <= n <= "
                             rf"{birkhoff.MAX_N}$"):
        analytic_facet_sets(birkhoff.MAX_N + 1)
    assert listed == []


def test_analytic_sets_sizes():
    for n in (3, 4):
        sets = analytic_facet_sets(n)
        assert len(sets) == n * n
        assert all(len(s) == factorial(n - 1) for s in sets)
        # one shared, read-only tuple per n
        assert analytic_facet_sets(n) is sets
        with pytest.raises(TypeError):
            sets[0] = frozenset()


def _oracle_pair_counts(n):
    """Independent count of |{pi : pi(i) = j, pi(k) = l}| by direct
    enumeration of tuples, no shared code with the module."""
    perms = list(itertools.permutations(range(n)))
    out = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out[(i, j, k, l)] = sum(1 for p in perms if p[i] == j and p[k] == l)
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_intersection_table_against_oracle(n):
    oracle = _oracle_pair_counts(n)
    sets = analytic_facet_sets(n)
    for (i, j, k, l), count in oracle.items():
        assert len(sets[i * n + j] & sets[k * n + l]) == count
        if i == k and j == l:
            assert count == factorial(n - 1)
        elif i == k or j == l:
            assert count == 0
        else:
            assert count == factorial(n - 2)


def test_verify_intersection_table():
    for n in (3, 4, 5):
        r = verify_intersection_table(n)
        assert r["passed"]
        assert r["cases_checked"] == n ** 4
        assert r["failures"] == []
    with pytest.raises(PreconditionError):
        verify_intersection_table(2)


def test_verify_transformation_law_n3():
    r = verify_transformation_law(3)
    assert r["passed"]
    assert r["translation_cases"] == 36 * 9
    assert r["inversion_cases"] == 9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetric_group_lists_the_vertex_order(n):
    # B_n's vertices, and the law check's table indices, follow
    # symmetric_group(n)'s elements: image tuples in lexicographic order
    assert list(symmetric_group(n).elements) == list(
        itertools.permutations(range(n)))
    assert symmetric_group(n) is symmetric_group(n)


def test_transformation_law_detects_swapped_sets(monkeypatch):
    sets = list(analytic_facet_sets(3))
    a01, a10 = 0 * 3 + 1, 1 * 3 + 0
    sets[a01], sets[a10] = sets[a10], sets[a01]
    monkeypatch.setattr(birkhoff, "analytic_facet_sets", lambda n: sets)
    r = verify_transformation_law(3)
    assert not r["passed"]
    # A_01 and A_10 are swapped by inversion too, so only the
    # translation half of the law can see it
    assert r["failures"] and all(f.startswith("sigma=") for f in r["failures"])


def _law_test_families(n: int, mutants: int):
    """The true sets, two families that also obey the law (the facets
    F_ij, and every A_ij equal to the whole vertex set), the whole family
    transposed, rows 0 and 1 swapped (the left generators still hold),
    columns 0 and 1 swapped (the right ones still hold), and seeded
    mutants of three kinds in turn: one vertex moved between two A_ij,
    two labels swapped, and A_ij <-> A_ji."""
    base = list(analytic_facet_sets(n))
    everything = frozenset(range(factorial(n)))
    swap = {0: 1, 1: 0}
    pairs = [(i, j) for i in range(n) for j in range(n)]
    yield base
    yield [everything - members for members in base]
    yield [everything for _ in base]
    yield [base[j * n + i] for i, j in pairs]
    yield [base[swap.get(i, i) * n + j] for i, j in pairs]
    yield [base[i * n + swap.get(j, j)] for i, j in pairs]
    rng = random.Random(1000 + n)
    for k in range(mutants):
        sets = list(base)
        a, b = rng.sample(range(n * n), 2)
        if k % 3 == 0:
            v = rng.choice(sorted(sets[a]))
            sets[a], sets[b] = sets[a] - {v}, sets[b] | {v}
        elif k % 3 == 1:
            sets[a], sets[b] = sets[b], sets[a]
        else:
            i, j = rng.sample(range(n), 2)
            a, b = i * n + j, j * n + i
            sets[a], sets[b] = sets[b], sets[a]
        yield sets


@pytest.mark.parametrize("n,mutants", [(3, 36), (4, 18)])
def test_generator_certificate_agrees_with_the_full_loop(n, mutants,
                                                         monkeypatch):
    verdicts = []
    for sets in _law_test_families(n, mutants):
        monkeypatch.setattr(birkhoff, "analytic_facet_sets",
                            lambda m, sets=sets: sets)
        got = verify_transformation_law(n)
        want = full_transformation_law(n, sets)
        assert got["passed"] == want["passed"]
        assert bool(got["failures"]) == bool(want["failures"])
        # the generators are among the pairs, with the same failure text
        assert set(got["failures"]) <= set(want["failures"])
        assert (got["translation_cases"], got["inversion_cases"]) == (
            want["translation_cases"], want["inversion_cases"])
        assert got["generator_cases"] == 4 * n * n
        verdicts.append(got["passed"])
    assert verdicts[:3] == [True, True, True]
    assert not any(verdicts[3:])


def test_verify_transformation_law_out_of_range():
    for n in (2, birkhoff.MAX_N + 1):
        with pytest.raises(PreconditionError):
            verify_transformation_law(n)


def test_decompose_identity():
    for n in (3, 4):
        alpha = tuple(range(factorial(n)))
        dec = decompose_symmetry(n, alpha)
        assert dec.sigma == dec.tau == tuple(range(n))
        assert dec.epsilon == 1


def test_decompose_degree_mismatch():
    with pytest.raises(PreconditionError):
        decompose_symmetry(3, tuple(range(7)))
    n = birkhoff.MAX_N + 1
    with pytest.raises(PreconditionError):
        decompose_symmetry(n, tuple(range(factorial(n))))


def test_decompose_rejects_vertex_swap():
    # swapping two vertices of B_3 maps A_00 to a non-facet set
    alpha = (1, 0, 2, 3, 4, 5)
    assert decompose_symmetry(3, alpha) is None


def test_decompose_of_a_map_onto_one_facet_set_is_none():
    # each facet set of B_3 holds one vertex that alpha sends to 0 and one
    # it sends to 1, so each goes onto A_00 = {0, 1}; the map is no
    # bijection, so no facet symmetry, not a broken certificate
    alpha = (0, 1, 1, 0, 0, 1)
    assert {frozenset(alpha[v] for v in members)
            for members in analytic_facet_sets(3)} == {frozenset({0, 1})}
    assert _verdicts(3, alpha) == [None, None]


def test_inversion_map_is_involution_and_decomposes():
    for n in (3, 4):
        perms = symmetric_group(n).elements
        index = {p: v for v, p in enumerate(perms)}
        iota = tuple(index[_inverse(p)] for p in perms)
        assert _right_mul(iota)(iota) == tuple(range(len(perms)))
        dec = decompose_symmetry(n, iota)
        assert dec.sigma == dec.tau == tuple(range(n))
        assert dec.epsilon == -1


def test_all_triples_distinct_n3():
    # 2 * (3!)^2 = 72 distinct vertex maps, one per (sigma, tau, eps)
    maps = set()
    perms = symmetric_group(3).elements
    for sigma in perms:
        for tau in perms:
            for eps in (1, -1):
                dec = SymmetryDecomposition(sigma, tau, eps)
                maps.add(tuple(symmetry_images(3, dec)))
    assert len(maps) == 72


@given(st.permutations(list(range(3))), st.permutations(list(range(3))),
       st.sampled_from([1, -1]))
@settings(max_examples=40, deadline=None)
def test_decompose_roundtrip_n3(sig, tau, eps):
    dec = SymmetryDecomposition(tuple(sig), tuple(tau), eps)
    alpha = tuple(symmetry_images(3, dec))
    back = decompose_symmetry(3, alpha)
    assert back == dec
    assert symmetry_images(3, back) == list(alpha)


def test_s5_table_is_built_once_across_calls(monkeypatch):
    # decompose and the law check gather on S_5's table, which is built on
    # the first read and kept with the cached group
    fresh = perm.symmetric_group.__wrapped__(5)
    monkeypatch.setattr(birkhoff, "symmetric_group",
                        lambda n: fresh if n == 5 else symmetric_group(n))
    real, builds = perm.PermutationGroup.table, []

    def counted(group):
        if group.degree == 5 and group._table is None:
            builds.append(group)
        return real.fget(group)

    monkeypatch.setattr(perm.PermutationGroup, "table", property(counted))
    rng = random.Random(55)
    perms = fresh.elements
    for eps in (1, -1, 1, -1):
        dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms), eps)
        assert decompose_symmetry(5, tuple(symmetry_images(5, dec))) == dec
        assert verify_transformation_law(5)["passed"]
    assert builds == [fresh]


def _count_reads_and_passes(monkeypatch, n):
    """Lists that record each facet set decompose_symmetry reads, by
    position, and each vertex pass it makes."""
    getters, position = birkhoff._facet_lookup(n)
    read, passes = [], []

    def counted(k, get):
        def images_of_set(images):
            read.append(k)
            return get(images)
        return images_of_set

    monkeypatch.setattr(birkhoff, "_facet_lookup", lambda m: (
        tuple(counted(k, get) for k, get in enumerate(getters)), position))
    real = birkhoff._vertex_images
    monkeypatch.setattr(birkhoff, "_vertex_images",
                        lambda *args: passes.append(args) or real(*args))
    return read, passes


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [1, -1])
def test_decompose_reads_row_and_column_zero_and_makes_one_pass(
        n, eps, monkeypatch):
    rng = random.Random(10 * n + eps)
    perms = symmetric_group(n).elements
    dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms), eps)
    alpha = tuple(symmetry_images(n, dec))
    read, passes = _count_reads_and_passes(monkeypatch, n)
    assert decompose_symmetry(n, alpha) == dec
    # A_0j and A_i0: 2n - 1 sets, each read once
    assert sorted(read) == sorted({*range(n), *range(0, n * n, n)})
    assert len(read) == 2 * n - 1
    assert len(passes) == 1 and passes[0][3] == eps


FAILING_DEC = SymmetryDecomposition((1, 2, 0, 4, 3), (0, 2, 1, 3, 4), -1)


def test_failed_decompose_stops_at_row_and_column_zero(monkeypatch):
    # vertices 3 and 100 of B_5 differ at 0, so some A_i0 holds one of
    # them and not the other, and its image is no facet set: nothing past
    # row and column 0 is read, and no vertex pass is made
    n = 5
    images = symmetry_images(n, FAILING_DEC)
    images[3], images[100] = images[100], images[3]
    read, passes = _count_reads_and_passes(monkeypatch, n)
    assert decompose_symmetry(n, tuple(images)) is None
    assert sorted(read) == sorted({*range(n), *range(0, n * n, n)})
    assert len(read) == 2 * n - 1
    assert passes == []


def test_failed_decompose_past_row_and_column_zero_reads_every_facet_set(
        monkeypatch):
    # u = () and v = (3 4) agree at 0 and on the preimage of 0, so every
    # A_0j and A_i0 holds both or neither and goes onto a facet set; the
    # one vertex pass fails, and then every other facet set is read, each
    # once: A_33 holds u and not v, so its image is none
    n = 5
    index = symmetric_group(n).index
    u, v = index[(0, 1, 2, 3, 4)], index[(0, 1, 2, 4, 3)]
    images = symmetry_images(n, FAILING_DEC)
    images[u], images[v] = images[v], images[u]
    read, passes = _count_reads_and_passes(monkeypatch, n)
    assert decompose_symmetry(n, tuple(images)) is None
    assert sorted(read) == list(range(n * n))
    assert len(passes) == 1


def test_decompose_roundtrip_n4_sample():
    rng = random.Random(7)
    perms = symmetric_group(4).elements
    for _ in range(20):
        dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms),
                                    rng.choice((1, -1)))
        alpha = tuple(symmetry_images(4, dec))
        assert decompose_symmetry(4, alpha) == dec


def test_decompose_reads_a_list_as_its_tuple():
    # the vertex pass compares alpha's images with a tuple, which no list
    # equals: a list of a symmetry's images must decompose all the same
    rng = random.Random(8)
    perms = symmetric_group(4).elements
    for eps in (1, -1):
        dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms), eps)
        images = symmetry_images(4, dec)
        assert type(images) is list
        assert (decompose_symmetry(4, images)
                == decompose_symmetry(4, tuple(images)) == dec)
    # vertices 0 and 1 of B_4 both lie in A_00, whose image then has
    # fewer members than a facet set
    repeated = list(range(24))
    repeated[1] = repeated[0]
    assert decompose_symmetry(4, repeated) is None


def test_decompose_rejects_non_symmetry_shuffles():
    # random non-identity shuffles of 6 vertices are almost never facet
    # symmetries; every other one must come back as its own triple
    rng = random.Random(11)
    rejected = 0
    for _ in range(30):
        images = list(range(6))
        rng.shuffle(images)
        alpha = tuple(images)
        dec = decompose_symmetry(3, alpha)
        if dec is None:
            rejected += 1
            continue
        assert symmetry_images(3, dec) == list(alpha)
    assert rejected > 0


def _all_triples(n):
    perms = symmetric_group(n).elements
    return [SymmetryDecomposition(sigma, tau, eps)
            for sigma in perms for tau in perms for eps in (1, -1)]


def test_decompose_every_bijection_of_b3():
    # the pointwise check is the one certificate: over all 720 vertex
    # bijections of B_3, the 72 symmetries come back as the triples they
    # were built from, and every other bijection already fails as a map
    # of facet sets (one that maps facets to facets with no triple would
    # raise InvariantError)
    built = {tuple(symmetry_images(3, dec)): dec for dec in _all_triples(3)}
    assert len(built) == 72
    found, not_facet = {}, 0
    for images in itertools.permutations(range(6)):
        dec = decompose_symmetry(3, images)
        if dec is None:
            not_facet += 1
        else:
            found[images] = dec
    assert found == built
    assert len(set(found.values())) == 72
    assert not_facet == 648


def test_decompose_every_triple_of_b4():
    triples = _all_triples(4)
    assert len(triples) == 1152
    for dec in triples:
        assert decompose_symmetry(4, tuple(symmetry_images(4, dec))) == dec


@pytest.mark.parametrize("n", [3, 4, 5])
def test_facet_sets_match_the_oracle(n):
    assert list(analytic_facet_sets(n)) == facet_sets(n)


def test_vertex_images_match_the_oracle_on_every_triple_of_s3():
    perms = symmetric_group(3).elements
    for sigma, tau, eps in itertools.product(perms, perms, (1, -1)):
        assert list(birkhoff._vertex_images(3, sigma, tau, eps)) == (
            tuple_vertex_images(3, sigma, tau, eps))


@pytest.mark.parametrize("n", [4, 5])
def test_vertex_images_match_the_oracle_on_seeded_triples(n):
    rng = random.Random(400 + n)
    perms = symmetric_group(n).elements
    for _ in range(200):
        sigma, tau, eps = rng.choice(perms), rng.choice(perms), rng.choice((1, -1))
        assert list(birkhoff._vertex_images(n, sigma, tau, eps)) == (
            tuple_vertex_images(n, sigma, tau, eps))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vertex_images_of_a_non_bijection_are_none(n):
    rng = random.Random(500 + n)
    perms = symmetric_group(n).elements
    for k in range(20):
        bad = [rng.randrange(n) for _ in range(n)]
        bad[0] = bad[1]  # a repeated image: in range, but no bijection
        good = rng.choice(perms)
        sigma, tau = (bad, good) if k % 2 else (good, bad)
        for eps in (1, -1):
            want = [None] * factorial(n)
            assert list(birkhoff._vertex_images(n, sigma, tau, eps)) == want
            assert tuple_vertex_images(n, sigma, tau, eps) == want


def _verdicts(n, alpha):
    """decompose_symmetry's and the oracle's verdict on alpha: the triple,
    or None."""
    return [decompose(n, alpha)
            for decompose in (decompose_symmetry, full_decompose_symmetry)]


def test_decompose_agrees_with_the_oracle_on_every_symmetry_of_b3():
    for dec in _all_triples(3):
        assert _verdicts(3, tuple(symmetry_images(3, dec))) == [dec, dec]


@pytest.mark.parametrize("n", [4, 5])
def test_decompose_agrees_with_the_oracle_on_seeded_symmetries(n):
    rng = random.Random(600 + n)
    perms = symmetric_group(n).elements
    for eps in (1, -1) * 15:
        dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms), eps)
        assert _verdicts(n, tuple(symmetry_images(n, dec))) == [dec, dec]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_decompose_agrees_with_the_oracle_on_non_symmetries(n):
    # a symmetry with two vertex images swapped, as the bench draws them,
    # and random shuffles of the vertices
    rng = random.Random(700 + n)
    perms = symmetric_group(n).elements
    rejected = 0
    for k in range(40):
        if k % 2:
            dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms),
                                        rng.choice((1, -1)))
            images = symmetry_images(n, dec)
            u, v = rng.sample(range(len(images)), 2)
            images[u], images[v] = images[v], images[u]
        else:
            images = list(range(factorial(n)))
            rng.shuffle(images)
        got, want = _verdicts(n, tuple(images))
        assert got == want
        rejected += got is None
    # 72 of the 720 bijections of B_3's vertices are symmetries
    assert rejected == 40 if n > 3 else rejected > 20


def test_verify_symmetry_group_n3():
    r = verify_symmetry_group(3)
    assert r["passed"]
    assert r["n_vertices"] == 6
    assert r["n_facets"] == 9
    assert r["dim"] == 4
    assert r["facets_match_analytic"]
    assert r["aut_order"] == 72 == r["expected_order"]
    assert r["roundtrip_failures"] == 0


def test_verify_symmetry_group_n4():
    r = verify_symmetry_group(4)
    assert r["passed"]
    assert r["n_vertices"] == 24
    assert r["n_facets"] == 16
    assert r["dim"] == 9
    assert r["facets_match_analytic"]
    assert r["aut_order"] == 1152 == r["expected_order"]
    assert r["roundtrip_failures"] == 0


def test_verify_symmetry_group_counts_failing_generators(monkeypatch):
    # the search runs on B_3's 9 facets; swapping the facets x_00 >= 0
    # and x_01 >= 0 lifts to no vertex map, since the identity, off
    # x_00 >= 0, x_11 >= 0 and x_22 >= 0, would go to a matrix with two
    # 1s in column 1
    real, searched = birkhoff.comb_automorphisms, []

    def one_bad_generator(lines):
        aut = real(lines)
        searched.append(lines.n_vertices)
        swap = (1, 0, *range(2, lines.n_vertices))
        return SimpleNamespace(order=aut.order,
                               generators=(swap,) + aut.generators[1:])

    monkeypatch.setattr(birkhoff, "comb_automorphisms", one_bad_generator)
    r = verify_symmetry_group(3)
    assert searched == [9]
    assert r["aut_order"] == r["expected_order"]
    assert r["roundtrip_failures"] == 1
    assert not r["passed"]


def _vertex_lift(inc, psi):
    """The vertex map a facet permutation psi induces: v goes to the
    vertex off the images of the facets v is off, or to None when no
    vertex is off them all.  The round trip lifted every strong generator
    this way before it moved to the facets."""
    all_facets = frozenset(range(inc.n_facets))
    off = [all_facets.difference(facets) for facets in inc.vertex_facets]
    vertex_off = {cells: v for v, cells in enumerate(off)}
    return [vertex_off.get(frozenset(map(psi.__getitem__, cells)))
            for cells in off]


def _facet_action(n, dec):
    """x_rc >= 0 -> x_(sigma(r), tau^-1(c)), or x_(sigma(c), tau^-1(r))
    for eps = -1, at positions r n + c."""
    sigma, tau, eps = dec
    back = _inverse(tau)
    return tuple(sigma[r] * n + back[c] if eps == 1 else
                 sigma[c] * n + back[r]
                 for r in range(n) for c in range(n))


@pytest.mark.parametrize("n, count", [(3, 6), (4, 11), (5, 18), (6, 27)])
def test_facet_triples_are_the_triples_of_the_vertex_lifts(n, count):
    # the lift is the oracle: each strong generator's facet-side triple is
    # the one decompose_symmetry certifies on the vertex map it induces
    inc, _ = birkhoff.birkhoff_facets(n)
    generators = comb_automorphisms(birkhoff._facet_lines(inc)).generators
    assert len(generators) == count
    for psi in generators:
        dec = birkhoff._facet_triple(n, psi)
        assert dec is not None
        assert dec == decompose_symmetry(n, _vertex_lift(inc, psi))
        assert _facet_action(n, dec) == tuple(psi)
    # and so on seeded triples, and on facet shuffles, which are no
    # symmetry: neither side finds a triple
    rng = random.Random(800 + n)
    perms = symmetric_group(n).elements
    for eps in (1, -1) * 5:
        dec = SymmetryDecomposition(rng.choice(perms), rng.choice(perms), eps)
        psi = _facet_action(n, dec)
        assert birkhoff._facet_triple(n, psi) == dec
        assert decompose_symmetry(n, _vertex_lift(inc, psi)) == dec
        shuffled = list(psi)
        rng.shuffle(shuffled)
        assert birkhoff._facet_triple(n, shuffled) is None
        assert decompose_symmetry(n, _vertex_lift(inc, shuffled)) is None


def test_a_facet_swap_past_row_and_column_zero_fails_its_round_trip(
        monkeypatch):
    # the first strong generator with the images of x_11 >= 0 and
    # x_22 >= 0 swapped agrees with its triple on row 0 and column 0, and
    # differs from the triple's action on those two facets only; its
    # vertex lift is no symmetry either
    n = 3
    inc, _ = birkhoff.birkhoff_facets(n)
    real = birkhoff.comb_automorphisms
    good = real(birkhoff._facet_lines(inc)).generators[0]
    bad = list(good)
    bad[n + 1], bad[2 * n + 2] = bad[2 * n + 2], bad[n + 1]
    assert _facet_action(n, birkhoff._facet_triple(n, good)) == good
    assert birkhoff._facet_triple(n, bad) is None
    assert decompose_symmetry(n, _vertex_lift(inc, bad)) is None

    def one_bad_generator(lines):
        aut = real(lines)
        return SimpleNamespace(order=aut.order,
                               generators=(tuple(bad),) + aut.generators[1:])

    monkeypatch.setattr(birkhoff, "comb_automorphisms", one_bad_generator)
    r = verify_symmetry_group(n)
    assert r["aut_order"] == r["expected_order"]
    assert r["roundtrip_failures"] == 1
    assert not r["passed"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_symmetry_group_makes_five_vertex_maps(monkeypatch, n):
    # the law's four generators and the inversion; the round trip stays
    # on the facets, with no vertex map and no decomposition
    calls = {"_vertex_images": 0, "decompose_symmetry": 0}

    def counted(name):
        real = getattr(birkhoff, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(birkhoff, name, counted(name))
    assert verify_symmetry_group(n)["passed"]
    assert calls == {"_vertex_images": 5, "decompose_symmetry": 0}


def test_verify_symmetry_group_out_of_range():
    for n in (2, birkhoff.MAX_N + 1):
        with pytest.raises(PreconditionError):
            verify_symmetry_group(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certified_facets_are_the_hull_facets(n):
    inc, dim = birkhoff.birkhoff_facets(n)
    hull = birkhoff_hull(n)
    assert set(inc.tight_sets) == set(hull.incidence.tight_sets)
    assert (inc.n_vertices, inc.n_facets, dim) == (
        hull.n_vertices, hull.n_facets, hull.dim)


def test_certified_facets_are_read_off_the_matrices():
    # entry k = i n + j of the matrices is x_ij, which is 1 at pi exactly
    # when pi(j) = i: its tight set is the complement of A_ji
    n = 4
    inc, dim = birkhoff.birkhoff_facets(n)
    everything = frozenset(range(factorial(n)))
    sets = analytic_facet_sets(n)
    assert list(inc.tight_sets) == [everything - sets[j * n + i]
                                    for i in range(n) for j in range(n)]
    assert dim == (n - 1) ** 2
    for n in (2, birkhoff.MAX_N + 1):
        with pytest.raises(PreconditionError):
            birkhoff.birkhoff_facets(n)


@pytest.mark.parametrize("n, read", [(3, 3), (4, 9), (5, 20), (6, 38)])
def test_facet_rank_pass_reads_pinned_tight_points(monkeypatch, n, read):
    # (iii) reads the tight points of x_00 >= 0 after the first, nearest
    # it first, until d - 1 differences are independent; a change of the
    # order shows here first.  The rank of the equality matrix reads its
    # 2n rows before it.
    real, pulled = birkhoff._independent_rows, []

    def counted(rows):
        pulled.append(0)

        def each():
            for row in rows:
                pulled[-1] += 1
                yield row
        return real(each())

    monkeypatch.setattr(birkhoff, "_independent_rows", counted)
    _, dim = birkhoff.birkhoff_facets(n)
    assert pulled == [2 * n, read]
    assert read >= dim - 1


def test_facet_certificate_refuses_a_changed_equality_column(monkeypatch):
    # (i): column 4 of B_3's equality matrix, entry (1, 1), also meets row 0
    real = birkhoff._equality_matrix

    def changed(n):
        rows = real(n)
        rows[0][4] = 1
        return rows

    monkeypatch.setattr(birkhoff, "_equality_matrix", changed)
    with pytest.raises(InvariantError, match="incidence matrix of K"):
        birkhoff.birkhoff_facets(3)


def test_facet_certificate_refuses_a_vertex_outside_h(monkeypatch):
    # (i): a vertex whose first row sums to 2 lies outside H
    real = birkhoff.birkhoff_vertices

    def moved(n):
        vertices = real(n)
        nums, den = vertices[-1]
        vertices[-1] = ((1,) + nums[1:], den)
        return vertices

    monkeypatch.setattr(birkhoff, "birkhoff_vertices", moved)
    with pytest.raises(InvariantError, match="permutation matrices"):
        birkhoff.birkhoff_facets(4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_facet_certificate_refuses_a_lower_face(monkeypatch, n):
    # (iii): x_00 >= 0 swapped for x_00 + x_11 >= 0, valid on B_n but
    # tight only on the ridge where both vanish, of dimension d - 2
    real = birkhoff._tight_sets

    def lowered(vertices):
        tight = real(vertices)
        tight[0] = tight[0] & tight[n + 1]
        return tight

    monkeypatch.setattr(birkhoff, "_tight_sets", lowered)
    with pytest.raises(InvariantError, match="x_00 >= 0 is not a facet"):
        birkhoff.birkhoff_facets(n)


def test_facet_certificate_refuses_a_repeated_tight_set(monkeypatch):
    # (iv): two inequalities with one tight set are one facet
    real = birkhoff._tight_sets

    def repeated(vertices):
        tight = real(vertices)
        tight[-1] = tight[-2]
        return tight

    monkeypatch.setattr(birkhoff, "_tight_sets", repeated)
    with pytest.raises(InvariantError, match="share a tight vertex set"):
        birkhoff.birkhoff_facets(3)


def _edge_graph(inc):
    """The facet graph itself, its edges as the tight sets."""
    everything = frozenset(range(inc.n_vertices))
    off = [everything - tight for tight in inc.tight_sets]
    return IncidenceStructure(len(off), [
        (f, g) for f, g in itertools.combinations(range(len(off)), 2)
        if not off[f] & off[g]])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_line_order_is_the_vertex_chain_order(n):
    inc, _ = birkhoff.birkhoff_facets(n)
    lines = birkhoff._facet_lines(inc)
    assert lines.n_vertices == n * n
    assert sorted(map(len, lines.tight_sets)) == [n] * (2 * n)
    order = comb_automorphisms(lines).order
    assert order == 2 * factorial(n) ** 2
    assert order == comb_automorphisms(_edge_graph(inc)).order
    assert order == comb_automorphisms(birkhoff_hull(n).incidence).order


def test_line_order_is_the_facet_side_oracle_order_at_6():
    inc, _ = birkhoff.birkhoff_facets(6)
    facet_side = IncidenceStructure(inc.n_facets, inc.vertex_facets)
    lengths, _ = automorphisms(facet_side)
    assert (comb_automorphisms(birkhoff._facet_lines(inc)).order
            == prod(lengths) == 1036800)


def test_a_dropped_facet_changes_the_line_order(monkeypatch):
    # without A_11's facet, B_3's facet graph keeps only the symmetries
    # that fix position (1, 1): order 8, not 72
    inc, dim = birkhoff.birkhoff_facets(3)
    dropped = IncidenceStructure(inc.n_vertices, inc.tight_sets[:4]
                                 + inc.tight_sets[5:])
    assert comb_automorphisms(birkhoff._facet_lines(dropped)).order == 8
    monkeypatch.setattr(birkhoff, "birkhoff_facets", lambda n: (dropped, dim))
    r = verify_symmetry_group(3)
    assert (r["aut_order"], r["n_facets"]) == (8, 8)
    assert not r["facets_match_analytic"] and not r["passed"]


def test_a_repeated_facet_makes_a_line_no_clique():
    # a repeated facet is joined to its copy's neighbours but not to its
    # copy, so the line through it and a neighbour is no clique
    inc, _ = birkhoff.birkhoff_facets(3)
    repeated = SimpleNamespace(n_vertices=inc.n_vertices,
                               tight_sets=inc.tight_sets + inc.tight_sets[:1])
    with pytest.raises(InvariantError, match="not a clique"):
        birkhoff._facet_lines(repeated)


def test_verify_symmetry_group_takes_the_law_verdict(monkeypatch):
    # rows 0 and 1 of the A_ij swapped: the same family of sets, so the
    # facets match and the facet-side order is 2(n!)^2, but the
    # translation law fails at the n-cycle on the right alone
    n = 4
    sets = analytic_facet_sets(n)
    swapped = [sets[{0: 1, 1: 0}.get(i, i) * n + j]
               for i in range(n) for j in range(n)]
    monkeypatch.setattr(birkhoff, "analytic_facet_sets", lambda m: swapped)
    law = verify_transformation_law(n)
    assert {f.split(" A")[0] for f in law["failures"]
            if f.startswith("sigma=")} == {"sigma=() tau=(0 1 2 3)"}
    r = verify_symmetry_group(n)
    assert r["facets_match_analytic"]
    assert r["aut_order"] == r["expected_order"]
    assert not r["passed"]
