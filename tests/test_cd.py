"""Tests for the Chermak-Delgado measure, lattice, and the |U||C(U)| <= n!
estimate in symmetric groups."""

import itertools
from collections import Counter

import pytest

from birkhoffsym import cd as cd_module
from birkhoffsym import perm
from birkhoffsym.cd import (_class_measures, _pair_closed,
                            _subnormal_by_normalizer_chain, cd_lattice,
                            verify_centralizer_estimate)
from birkhoffsym.errors import PreconditionError
from birkhoffsym.perm import (PermutationGroup, _right_mul,
                              builtin_group_names, named_group,
                              subgroup_classes, symmetric_group)

from group_oracle import all_subgroups


def test_class_measures_hand_values_s3():
    # measures in S_3 computed by hand: |H| * |C(H)|, one per class of
    # subgroups, each class named by its order
    g = named_group("s3")
    classes = subgroup_classes(g)
    measures = {len(cls[0][0]): measure
                for cls, measure in zip(classes, _class_measures(g, classes))}
    assert len(classes) == 4
    assert measures[1] == 1 * 6  # C(1) = S_3
    assert measures[3] == 3 * 3  # C(A_3) = A_3
    assert measures[2] == 2 * 2  # C(C_2) = C_2
    assert measures[6] == 6 * 1  # Z(S_3) = 1


def _oracle_centralizer(group, sub):
    """C_G(H) from image tuple products against every element of H; no
    multiplication table and no generator shortcut."""
    return {g for g in group.elements
            if all(_right_mul(h)(g) == _right_mul(g)(h) for h in sub.elements)}


@pytest.mark.parametrize("name", ["s4", "d4", "q8"])
def test_centralizer_matches_brute_force_oracle(name):
    g = named_group(name)
    measures = {}
    for sub in all_subgroups(g):
        want = _oracle_centralizer(g, sub)
        got = g.centralizer_indices(g.index[h] for h in sub.generators)
        assert {g.elements[i] for i in got} == want
        measures[frozenset(map(g.index.__getitem__, sub.elements))] = (
            sub.order * len(want))
    # the measure of a class, from its first member, is every member's
    classes = subgroup_classes(g)
    for cls, measure in zip(classes, _class_measures(g, classes)):
        assert {measures[members] for members, _ in cls} == {measure}
    assert cd_lattice(g)["max_measure"] == max(measures.values())


def test_cd_lattice_s3():
    r = cd_lattice(named_group("s3"))
    assert r["group_order"] == 6
    assert r["subgroup_count"] == 6
    assert r["max_measure"] == 9
    assert [len(hs) for hs, _ in r["lattice"]] == [3]  # only A_3
    assert r["closure_pass"] and r["subnormal_pass"]


def test_cd_lattice_s4():
    r = cd_lattice(named_group("s4"))
    assert r["subgroup_count"] == 30
    assert r["max_measure"] == 24
    assert sorted(len(hs) for hs, _ in r["lattice"]) == [1, 24]
    assert r["closure_pass"] and r["subnormal_pass"]


def test_cd_lattice_abelian_c6():
    # for abelian G the unique maximizer is G itself with measure |G|^2
    r = cd_lattice(named_group("c6"))
    assert r["subgroup_count"] == 4
    assert r["max_measure"] == 36
    assert [len(hs) for hs, _ in r["lattice"]] == [6]
    assert r["closure_pass"] and r["subnormal_pass"]


def test_cd_lattice_d4_q8():
    # both order-8 groups have max measure 16; D_4 realizes it on five
    # subgroups (center, the three order-4 subgroups, D_4 itself), Q_8 too
    for name in ("d4", "q8"):
        r = cd_lattice(named_group(name))
        assert r["subgroup_count"] == (10 if name == "d4" else 6)
        assert r["max_measure"] == 16
        orders = sorted(len(hs) for hs, _ in r["lattice"])
        assert orders == [2, 4, 4, 4, 8], name
        assert r["closure_pass"] and r["subnormal_pass"], name


def test_cd_lattice_bound(monkeypatch):
    # the one bound is the table's ceiling, lowered here below |S_5|
    monkeypatch.setattr(perm, "MAX_TABLE_ORDER", 100)
    with pytest.raises(PreconditionError,
                       match="group of order 120 exceeds table bound 100"):
        cd_lattice(named_group("s5"))


def test_centralizer_estimate_s4():
    r = verify_centralizer_estimate(4)
    assert r["group_order"] == 24
    assert r["subgroup_count"] == 30
    assert r["max_measure"] == 24
    assert r["equality_orders"] == [1, 24]
    assert r["violations"] == []
    assert r["passed"]


def test_centralizer_estimate_s5():
    r = verify_centralizer_estimate(5)
    assert r["group_order"] == 120
    assert r["subgroup_count"] == 156
    assert r["max_measure"] == 120
    assert r["equality_orders"] == [1, 120]
    assert r["violations"] == []
    assert r["passed"]


def test_centralizer_estimate_s6():
    # the known counts: 1455 subgroups of S_6 in 56 conjugacy classes
    assert len(subgroup_classes(symmetric_group(6))) == 56
    r = verify_centralizer_estimate(6)
    assert r["group_order"] == 720
    assert r["subgroup_count"] == 1455
    assert r["max_measure"] == 720
    assert r["equality_orders"] == [1, 720]
    assert r["violations"] == []
    assert r["passed"]


def test_centralizer_estimate_s7(monkeypatch):
    # the known counts: 11 300 subgroups of S_7 in 96 conjugacy classes,
    # read off the one enumeration the check runs
    enumerate_classes, classes = cd_module.subgroup_classes, []

    def keeping(*args, **kwargs):
        classes.extend(enumerate_classes(*args, **kwargs))
        return classes

    monkeypatch.setattr(cd_module, "subgroup_classes", keeping)
    try:
        r = verify_centralizer_estimate(7)
    finally:
        symmetric_group.cache_clear()  # S_7's table is 5 040 rows: free it
    assert len(classes) == 96
    assert r["group_order"] == 5040
    assert r["subgroup_count"] == 11_300
    assert r["max_measure"] == 5040
    assert r["equality_orders"] == [1, 5040]
    assert r["violations"] == []
    assert r["passed"]


def test_centralizer_estimate_rejects_other_n():
    # n = 6 joined the supported range with cyclic extension, n = 7 with
    # extensions closed from their subgroup
    for n in (2, 3, 8):
        with pytest.raises(PreconditionError):
            verify_centralizer_estimate(n)


def test_centralizer_estimate_range_follows_the_table_ceiling(monkeypatch):
    # S_7 is refused on its n, before any table work, once the ceiling
    # is lowered to |S_6|
    monkeypatch.setattr(perm, "MAX_TABLE_ORDER", 720)
    monkeypatch.setattr(cd_module, "symmetric_group", None)
    with pytest.raises(PreconditionError,
                       match=r"supports n in \{4, 5, 6\}, got 7$"):
        verify_centralizer_estimate(7)


def test_product_subgroup_criterion_matches_all_pairs():
    # HK lies in <H, K>, so cd_lattice takes HK for a subgroup exactly when
    # it equals the closure of both generator lists; checked against all
    # |HK|^2 products over every pair of subgroups of S_4, non-subgroup
    # products such as <(0 1)><(0 2)> included
    group = symmetric_group(4)
    table = group.table
    subs = [sub for cls in subgroup_classes(group) for sub in cls]
    verdicts = Counter()
    for hs, h_gens in subs:
        for ks, k_gens in subs:
            product = frozenset(table[a][b] for a in hs for b in ks)
            closed = all(table[a][b] in product
                         for a in product for b in product)
            assert (product == group.closure_indices(h_gens + k_gens)) == closed
            verdicts[closed] += 1
    assert len(subs) == 30 and verdicts[True] and verdicts[False]


@pytest.mark.parametrize("name", ["s4", "d4", "q8"])
def test_size_criterion_matches_the_product_set(name):
    # cd_lattice takes HK for a subgroup exactly when |<H, K>||H n K| =
    # |H||K|, with <H, K> closed from H's members; checked against the
    # |H||K| products of every ordered pair of subgroups
    group = named_group(name)
    table = group.table
    subs = [sub for cls in subgroup_classes(group) for sub in cls]
    verdicts = Counter()
    for hs, h_gens in subs:
        for ks, k_gens in subs:
            product = frozenset(table[a][b] for a in hs for b in ks)
            closed = all(table[a][b] in product
                         for a in product for b in product)
            joined = group.closure_indices(h_gens + k_gens, hs)
            assert len(product) * len(hs & ks) == len(hs) * len(ks)
            assert (len(joined) * len(hs & ks) == len(hs) * len(ks)) == closed
            assert (product == joined) == closed
            verdicts[closed] += 1
    assert verdicts[True] and (verdicts[False] or name == "q8")


@pytest.mark.parametrize("name", ["s4", "d4", "q8"])
def test_pair_check_matches_the_definition(name):
    # for H, K in a family L of subgroups, _pair_closed holds iff H n K is
    # in L and the product set HK is a subgroup in L; L is every subgroup
    # (so only non-subgroup products fail) or every subgroup not of
    # order 2 (so D_4's and Q_8's order-4 subgroups fail on their meet)
    group = named_group(name)
    table = group.table
    subs = [sub for cls in subgroup_classes(group) for sub in cls]
    verdicts = Counter()
    for family in (subs, [sub for sub in subs if len(sub[0]) != 2]):
        lattice = {hs for hs, _ in family}
        for h, k in itertools.combinations(family, 2):
            product = frozenset(table[a][b] for a in h[0] for b in k[0])
            want = (h[0] & k[0] in lattice and product in lattice
                    and all(table[a][b] in product
                            for a in product for b in product))
            assert _pair_closed(group, h, k, lattice) == want, (h, k)
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("name, enumerated, beyond", [
    ("s4", 25, 0), ("s5", 85, 0), ("d4", 14, 3), ("q8", 10, 3)])
def test_cd_lattice_closures_are_pinned(monkeypatch, name, enumerated,
                                        beyond):
    # machine-independent gate: closures of the enumeration, then of the
    # pair checks; C(H) once per member, nested pairs pass unclosed, so
    # S_4's and S_5's lattice {1, G} needs none, D_4's and Q_8's (a centre
    # and three order-4 subgroups in G) one per pair of order-4 subgroups.
    # Closing both generator lists of every ordered pair took 4, 4, 25, 25
    calls = []
    original = PermutationGroup.closure_indices

    def counting(self, seeds, *members):
        calls.append(seeds)
        return original(self, seeds, *members)

    enumerate_classes, marks = cd_module.subgroup_classes, []

    def marking(*args, **kwargs):
        classes = enumerate_classes(*args, **kwargs)
        marks.append(len(calls))
        return classes

    monkeypatch.setattr(PermutationGroup, "closure_indices", counting)
    monkeypatch.setattr(cd_module, "subgroup_classes", marking)
    r = cd_lattice(named_group(name))
    assert r["closure_pass"] and r["subnormal_pass"]
    assert (marks, len(calls) - marks[0]) == ([enumerated], beyond)


def test_cd_lattice_two_element_iff_trivial_center_extremes():
    # frozen consequence used elsewhere: S_4's lattice is exactly {1, S_4},
    # the shape that forces the commuting-regular-pair uniqueness argument
    r = cd_lattice(symmetric_group(4))
    lattice_orders = sorted(len(hs) for hs, _ in r["lattice"])
    assert lattice_orders == [1, 24]
    assert len(r["lattice"]) == 2


def _subnormal_by_members(group, members):
    """The normalizer chain read off every member of each term, H itself
    included: the definition, with no generator shortcut."""
    current = members
    while True:
        nxt = frozenset(group.normalizer_indices(current, current))
        if len(nxt) == group.order:
            return True
        if nxt == current:
            return False
        current = nxt


SUBGROUP_COUNTS = {"c2": 2, "c3": 2, "c4": 3, "c6": 4, "d4": 10, "q8": 6,
                   "s3": 6, "s4": 30, "s5": 156, "v4": 5}


@pytest.mark.parametrize("name", builtin_group_names())
def test_subnormal_chain_from_generators_keeps_every_verdict(name):
    # the chain starts from H's generators and stops at once on H = G;
    # every subgroup of every built-in group keeps its verdict
    group = named_group(name)
    subs = [sub for cls in subgroup_classes(group) for sub in cls]
    assert len(subs) == SUBGROUP_COUNTS[name]
    verdicts = Counter()
    for members, gens in subs:
        got = _subnormal_by_normalizer_chain(group, members, gens)
        assert got == _subnormal_by_members(group, members), (members, gens)
        verdicts[got] += 1
    # every subgroup of a nilpotent group is subnormal, and a group that is
    # not nilpotent, such as S_3, S_4 or S_5, has one that is not
    nilpotent = name not in ("s3", "s4", "s5")
    assert (verdicts[False] == 0) == nilpotent


def test_subnormal_chain_reads_the_generators_only(monkeypatch):
    group = symmetric_group(5)
    read = []
    normalizer = PermutationGroup.normalizer_indices

    def recording(self, members, gens):
        gens = list(gens)
        read.append(len(gens))
        return normalizer(self, members, gens)

    monkeypatch.setattr(PermutationGroup, "normalizer_indices", recording)
    everything = frozenset(range(group.order))
    assert _subnormal_by_normalizer_chain(group, everything, [1, 2])
    assert read == []  # H = G: no normalizer is read
    gens = [group.index[(1, 2, 0, 3, 4)], group.index[(0, 1, 3, 4, 2)]]
    a5 = frozenset(group.closure_indices(gens))
    assert len(a5) == 60
    assert _subnormal_by_normalizer_chain(group, a5, gens)
    assert read == [2]  # N(A_5) = S_5 from A_5's two generators
