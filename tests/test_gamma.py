"""Tests for the two-sided translation group Gamma(G): order formula,
kernel description, regular subgroups, commuting pairs, normalizer."""

import itertools
import json
import random
from functools import lru_cache
from math import prod

import pytest

import normalizer_oracle
import regular_oracle
from group_oracle import all_subgroups, build_gamma, regular_action
from regular_oracle import is_regular, regular_subgroups
from birkhoffsym import cli, perm
from birkhoffsym import gamma as gamma_module
from birkhoffsym.errors import InvariantError, PreconditionError
from birkhoffsym.gamma import (automorphism_orbits, commuting_regular_pairs,
                               gamma_fibers, is_elementary_abelian_2,
                               normalizer_in_full_symmetric,
                               verify_wreath_quotient)
from birkhoffsym.perm import (PermutationGroup, _cycles, _inverse, _order,
                              _right_mul, closure, cycle_string,
                              group_from_generator_lines, named_group,
                              parse_cycles)


def translation_subgroups(group):
    """lambda(G), rho(G) and iota, the pieces Gamma(G) is generated from;
    each translation group is generated by all its elements."""
    lams, rhos, iota = regular_action(group)
    return (PermutationGroup(lams, lams), PermutationGroup(rhos, rhos), iota)


def test_translations_are_actions():
    g = named_group("s3")
    lams, rhos, _ = regular_action(g)
    elems = g.elements
    index = {p: i for i, p in enumerate(elems)}
    for a, pa in enumerate(elems):
        for b, pb in enumerate(elems):
            ab = index[_right_mul(pb)(pa)]
            assert _right_mul(lams[b])(lams[a]) == lams[ab]
            assert _right_mul(rhos[b])(rhos[a]) == rhos[ab]
            # left and right translations always commute
            assert _right_mul(rhos[b])(lams[a]) == _right_mul(lams[a])(rhos[b])


def test_inversion_conjugates_left_to_right():
    g = named_group("s3")
    lams, rhos, iota = regular_action(g)
    assert _right_mul(iota)(iota) == tuple(range(6))
    for lam, rho in zip(lams, rhos):
        assert _right_mul(iota)(_right_mul(lam)(iota)) == rho


def test_wreath_on_a_centralizer():
    # C_{S_5}((0 1)) = <(0 1)> x Sym{2,3,4} has order 12 and centre
    # <(0 1)>: Gamma has order 2 * 144 / 2; with generators that missed
    # (0 1) it came out 72
    c = closure([parse_cycles(t, 5) for t in ("(0 1)", "(2 3)", "(2 3 4)")])
    assert c.order == 12
    r = verify_wreath_quotient(c)
    assert r["center_order"] == 2
    assert r["actual_order"] == r["formula_order"] == 144
    assert r["passed"]


def test_center_and_ea2():
    for name, order in {"s3": 1, "c6": 6, "d4": 2, "q8": 2}.items():
        r = verify_wreath_quotient(named_group(name))
        assert r["center_order"] == order, name
    assert is_elementary_abelian_2(named_group("v4"))
    assert not is_elementary_abelian_2(named_group("c4"))


def test_wreath_orders_frozen():
    # |Gamma(G)| = 2|G|^2/|Z(G)|, frozen from the derivation run
    expected = {"c3": 6, "c6": 12, "s3": 72, "s4": 1152, "q8": 64, "d4": 64}
    for name, order in expected.items():
        r = verify_wreath_quotient(named_group(name))
        assert r["passed"], name
        assert r["actual_order"] == order == r["formula_order"], name
        assert not r["elementary_abelian_2"], name
        assert r["kernel_pass"], name


def test_wreath_elementary_abelian_2_violation():
    r = verify_wreath_quotient(named_group("v4"))
    assert r["elementary_abelian_2"]
    assert r["formula_order"] == 2 * 16 // 4 == 8
    assert r["actual_order"] == 4
    assert r["actual_order"] != r["formula_order"]
    assert r["expected_order"] is None
    assert r["kernel_pass"] and r["passed"]


def test_gamma_s3_structure():
    g = named_group("s3")
    gamma = build_gamma(g)
    lambda_sub, rho_sub, iota = translation_subgroups(g)
    assert gamma.order == 72
    assert lambda_sub.order == 6
    assert rho_sub.order == 6
    assert iota in gamma.index
    assert lambda_sub.index.keys() <= gamma.index.keys()
    assert rho_sub.index.keys() <= gamma.index.keys()


def test_build_gamma_tags():
    # lambda_g, rho_g for each generator g of S_3 in turn, then iota
    s3 = named_group("s3")
    lams, rhos, iota = regular_action(s3)
    swap, turn = (s3.index[parse_cycles(t, 3)] for t in ("(0 1)", "(0 1 2)"))
    assert build_gamma(s3).generators == (
        lams[swap], rhos[swap], lams[turn], rhos[turn], iota)
    assert gamma_module._gamma_generators(s3) == list(
        build_gamma(s3).generators)


def test_build_gamma_size_cap():
    with pytest.raises(PreconditionError):
        build_gamma(perm.symmetric_group(6))  # 720 > cap MAX_GAMMA_BASE 120


def test_gamma_fibers_size_cap(monkeypatch):
    # refused before S_6's table is read
    def refuse(group):
        raise AssertionError(f"table read for a group of order {group.order}")

    s6 = perm.symmetric_group(6)
    monkeypatch.setattr(perm.PermutationGroup, "table", property(refuse))
    for function in (gamma_fibers, verify_wreath_quotient):
        with pytest.raises(PreconditionError, match="exceeds bound 120"):
            function(s6)


# C_2, V_4: iota is a translation; C_3, C_4, C_6: abelian; D_4, Q_8:
# centre of order 2; the trivial group has one point
@pytest.mark.parametrize("name, seed",
                         [(name, None) for name in perm.builtin_group_names()]
                         + [("trivial", None), ("s3", 1), ("c6", 2),
                            ("d4", 3), ("q8", 4), ("s4", 5), ("v4", 6)])
def test_gamma_fibers_are_the_closure_by_image_of_0(tmp_path, capsys, name,
                                                     seed):
    group = (group_from_generator_lines(["()"]) if name == "trivial"
             else named_group(name) if seed is None
             else relabelled_generating_set(name, seed))
    closed = build_gamma(group)
    by_image = [[] for _ in range(group.order)]
    for p in closed.elements:
        by_image[p[0]].append(p)
    assert gamma_fibers(group) == list(map(tuple, by_image))
    # every command reports the closure's order
    path = tmp_path / "group.txt"
    path.write_text("".join(cycle_string(g) + "\n"
                            for g in group.generators))
    assert cli.main(["regular-pairs", "--group", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["group_order"] == group.order
    assert report["details"]["gamma_order"] == closed.order
    assert normalizer_in_full_symmetric(group)["gamma_order"] == closed.order
    assert verify_wreath_quotient(group)["actual_order"] == closed.order


def test_gamma_s3_regular_subgroups_two_paths():
    g = named_group("s3")
    gamma = build_gamma(g)
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    regs = regular_subgroups(gamma)
    assert len(regs) == 8
    assert lambda_sub in regs
    assert rho_sub in regs
    cyclic = [u for u in regs
              if max(map(_order, u.elements)) == 6]
    assert len(cyclic) == 6
    # independent path: full subgroup enumeration filtered by regularity
    exhaustive = [h for h in all_subgroups(gamma, bound=400)
                  if is_regular(gamma, h)]
    assert set(exhaustive) == set(regs)


def test_gamma_s3_commuting_pairs():
    g = named_group("s3")
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    pairs = commuting_regular_pairs(gamma_fibers(g))
    assert len(pairs) == 7
    non_self = [(u, v) for u, v in pairs if u != v]
    assert len(non_self) == 1
    assert set(non_self[0]) == {lambda_sub.elements, rho_sub.elements}
    self_paired = [u for u, v in pairs if u == v]
    assert len(self_paired) == 6
    # the self-paired ones are cyclic of order 6 and realize exactly the
    # two decomposition shapes (|U n lambda|, |U n rho|) = (2,3) and (3,2)
    shapes = []
    for u in self_paired:
        assert len(u) == 6
        assert max(map(_order, u)) == 6
        lam = sum(1 for p in u if p in lambda_sub.index)
        rho = sum(1 for p in u if p in rho_sub.index)
        shapes.append((lam, rho))
    assert sorted(shapes) == [(2, 3)] * 3 + [(3, 2)] * 3


@lru_cache(maxsize=None)
def closed_gamma(name):
    return build_gamma(named_group(name))


@lru_cache(maxsize=None)
def gamma_and_regulars(name):
    """The fibers of Gamma(G), and the regular subgroups of the closed
    Gamma(G) by the unpruned search."""
    return (gamma_fibers(named_group(name)),
            tuple(regular_subgroups(closed_gamma(name))))


def elementwise_pairs(regs):
    """Pairs of regular subgroups all of whose elements commute, by
    composing every pair of image tuples directly, each as its sorted
    member tuple."""
    elems = [u.elements for u in regs]

    def commute(x, y):
        return tuple(x[i] for i in y) == tuple(y[i] for i in x)

    return [(elems[a], elems[b])
            for a in range(len(regs)) for b in range(a, len(regs))
            if all(commute(x, y) for x in elems[a] for y in elems[b])]


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "c4", "c6"])
def test_commuting_pairs_match_elementwise_oracle(name):
    fibers, regs = gamma_and_regulars(name)
    pairs = commuting_regular_pairs(fibers)
    assert pairs == elementwise_pairs(list(regs))


@pytest.mark.parametrize("name, count", [("s3", 8), ("s4", 100), ("d4", 16),
                                         ("q8", 16)])
def test_gamma_regular_subgroup_counts(name, count):
    _, regs = gamma_and_regulars(name)
    assert len(regs) == count
    assert len(set(regs)) == count
    assert all(is_regular(closed_gamma(name), u) for u in regs)


def test_gamma_s4_regular_subgroup_tags_generate_them():
    _, regs = gamma_and_regulars("s4")
    for u in regs:
        assert closure(u.generators) == u


def assert_matches_oracle(fibers, regs):
    """The commuting pairs are the list the pair loop gives on the regular
    subgroups `regs` of the unpruned search, member tuples and order
    included."""
    assert commuting_regular_pairs(fibers) == [
        (u.elements, v.elements)
        for u, v in regular_oracle.commuting_pairs(list(regs))]


@pytest.mark.parametrize("name", ["c2", "c3", "c4", "c6", "v4", "s3", "d4",
                                  "q8", "s4"])
def test_regular_search_matches_oracle(name):
    assert_matches_oracle(*gamma_and_regulars(name))


def relabelled_generating_set(name, seed):
    """G generated by seeded random elements until they give all of G,
    conjugated by a seeded relabelling of its points."""
    rng = random.Random(seed)
    group = named_group(name)
    pi = tuple(rng.sample(range(group.degree), group.degree))
    gens = []
    while not gens or closure(gens).order < group.order:
        gens.append(rng.choice(group.elements))
    # pi * g * pi^-1
    return closure([_right_mul(_inverse(pi))(_right_mul(g)(pi)) for g in gens])


@pytest.mark.parametrize("name, seed", [("s3", 1), ("c6", 2), ("d4", 3),
                                        ("q8", 4), ("s4", 5), ("s4", 6)])
def test_regular_search_on_relabelled_groups_matches_oracle(name, seed):
    group = relabelled_generating_set(name, seed)
    assert_matches_oracle(gamma_fibers(group),
                          regular_subgroups(build_gamma(group)))


# generator lines of groups no built-in covers, with their orders
GENERATOR_LINE_GROUPS = {
    "trivial": (["()"], 1),
    "a4": (["(0 1 2)", "(1 2 3)"], 12),
    "d10": (["(0 1 2 3 4)", "(1 4)(2 3)"], 10),
    "d12": (["(0 1 2 3 4 5)", "(1 5)(2 4)"], 12),
    "c3xs3": (["(0 1 2)", "(3 4 5)", "(3 4)"], 18),
    "d16": (["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"], 16),
    # Q_16 = <a, b | a^8, b^2 = a^4, b a b^-1 = a^-1> on a^i b^j -> i + 8j
    "q16": (["(0 1 2 3 4 5 6 7)(8 9 10 11 12 13 14 15)",
             "(0 8 4 12)(1 15 5 11)(2 14 6 10)(3 13 7 9)"], 16),
    "f20": (["(0 1 2 3 4)", "(1 2 4 3)"], 20),
    "f21": (["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"], 21),
    # SL(2,3) on the nonzero vectors of F_3^2, (x, y) -> 3x + y - 1
    "sl23": (["(0 3 6)(1 7 4)", "(0 5 1 2)(3 6 7 4)"], 24),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_LINE_GROUPS))
def test_regular_search_on_generator_line_groups_matches_oracle(name):
    lines, order = GENERATOR_LINE_GROUPS[name]
    group = group_from_generator_lines(lines)
    assert group.order == order
    assert_matches_oracle(gamma_fibers(group),
                          regular_subgroups(build_gamma(group)))


def stabilizer_classes(gamma, groups):
    """The classes of the given groups under conjugation by Gamma_0, the
    stabilizer of point 0, each a set of member sets of image tuples, by
    products of image tuples, x * p * x^-1."""
    stabilizer = [x for x in gamma.elements if x[0] == 0]
    classes = []
    for u in groups:
        if any(frozenset(u.elements) in c for c in classes):
            continue
        classes.append({frozenset(_right_mul(_inverse(x))(_right_mul(p)(x))
                                  for p in u.elements) for x in stabilizer})
    return classes


# the unpruned search on Gamma(S_5) is out of reach
@pytest.mark.parametrize("name, seed",
                         [(name, None) for name in perm.builtin_group_names()
                          if name != "s5"]
                         + [("s3", 1), ("c6", 2), ("d4", 3), ("q8", 4),
                            ("s4", 5), ("s4", 6)])
def test_pruned_search_meets_every_stabilizer_class(name, seed):
    # the search finds exactly the regular subgroups whose centralizer in
    # Sym(Omega), the columns of their rows, lies in Gamma, each with that
    # centralizer as its partner; having one is a property of the
    # Gamma_0-class, so every class is met in all of its members or none
    group = (named_group(name) if seed is None
             else relabelled_generating_set(name, seed))
    gamma = build_gamma(group)
    found = dict(gamma_module._partnered_regular_subgroups(
        gamma_fibers(group)))
    regs = regular_oracle.regular_subgroups(gamma)
    columns = {u.elements: tuple(sorted(zip(*u.elements))) for u in regs}
    assert found == {members: c for members, c in columns.items()
                     if all(col in gamma.index for col in c)}
    for c in stabilizer_classes(gamma, regs):
        met = {tuple(sorted(members)) in found for members in c}
        assert len(met) == 1


def test_regular_search_closures_are_pinned(monkeypatch):
    # machine-independent gate, (subgroups found, closures, centralizer
    # narrowings); the closures must stay within the 10 and 533 that the
    # search up to Gamma_0-conjugacy took
    closures, narrowings = [], []
    saturate, narrow = gamma_module.saturate, gamma_module._narrow

    def counting_saturate(*args):
        closures.append(1)
        return saturate(*args)

    def counting_narrow(*args):
        narrowings.append(1)
        return narrow(*args)

    monkeypatch.setattr(gamma_module, "saturate", counting_saturate)
    monkeypatch.setattr(gamma_module, "_narrow", counting_narrow)
    counts = {}
    for name in ("s3", "s4"):
        closures.clear()
        narrowings.clear()
        found = gamma_module._partnered_regular_subgroups(
            gamma_fibers(named_group(name)))
        counts[name] = (len(found), len(closures), len(narrowings))
    assert counts == {"s3": (8, 10, 18), "s4": (2, 6, 120)}


def test_regular_search_products_are_pinned(monkeypatch):
    # machine-independent gate: `_right_mul` calls of the search, with
    # Gamma's fibers listed beforehand.  Multiplying out every element of
    # fibers 1..m-1 before the first choice took 102 and 1 188; only the
    # elements that pass the point test at a narrowing are now, and S_3's
    # 18 narrowings redo some of them
    calls = []
    right_mul = gamma_module._right_mul

    def counting(g):
        calls.append(g)
        return right_mul(g)

    counts = {}
    for name in ("s3", "s4"):
        fibers = gamma_fibers(named_group(name))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(gamma_module, "_right_mul", counting)
            gamma_module._partnered_regular_subgroups(fibers)
        counts[name] = len(calls)
    assert counts == {"s3": 189, "s4": 959}


def test_commuting_pairs_build_groups_only_for_the_pair(monkeypatch):
    # the pair is two member tuples of Gamma: no group is built
    fibers = gamma_fibers(named_group("s4"))
    built = []
    original = PermutationGroup.__init__

    def counting(self, elements, generators):
        built.append(len(elements))
        original(self, elements, generators)

    monkeypatch.setattr(PermutationGroup, "__init__", counting)
    ((u, v),) = commuting_regular_pairs(fibers)
    assert built == []
    assert u != v


def count_permutations(monkeypatch) -> list:
    """The list that each image tuple `perm.as_permutation` checks is
    appended to."""
    built = []
    check = perm.as_permutation

    def counting(images):
        built.append(1)
        return check(images)

    monkeypatch.setattr(perm, "as_permutation", counting)
    return built


def test_no_group_is_built_element_by_element(monkeypatch):
    # a group holds its elements as image tuples: the only permutations
    # checked are the generators read from cycle notation, of the named
    # groups and S_5's transposition; Gamma's generators are table rows,
    # S_5's n-cycle is written out, and the fibers of Gamma and the
    # regular subgroups the pair search finds are image tuples only
    built = count_permutations(monkeypatch)
    s4 = named_group("s4")
    gamma = build_gamma(s4)
    assert gamma.order == 1152
    assert len(built) == len(s4.generators) == 2
    built.clear()
    s5 = perm.symmetric_group.__wrapped__(5)
    assert s5.order == 120
    assert len(built) == len(s5.generators) - 1 == 1
    built.clear()
    s3 = named_group("s3")
    pairs = commuting_regular_pairs(gamma_fibers(s3))
    regs = {u for pair in pairs for u in pair}
    assert len(regs) == 8
    assert len(built) == len(s3.generators)


@pytest.mark.parametrize("name", ["c6", "s3", "d4", "q8", "s4"])
def test_regular_subgroup_elements_are_semiregular(name):
    # a non-identity element of a regular group fixes no point, and all
    # its cycles have one length
    _, regs = gamma_and_regulars(name)
    for u in regs:
        for p in u.elements[1:]:
            lengths = [len(c) for c in _cycles(p) if len(c) > 1]
            assert sum(lengths) == len(p)
            assert len(set(lengths)) == 1


def test_commuting_pairs_build_no_table(monkeypatch):
    def refuse(group):
        raise AssertionError(f"table read for a group of order {group.order}")

    g = named_group("s4")
    fibers = gamma_fibers(g)  # reads the table of G, not of Gamma(G)
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    monkeypatch.setattr(perm.PermutationGroup, "table", property(refuse))
    pairs = commuting_regular_pairs(fibers)
    assert len(pairs) == 1
    assert set(pairs[0]) == {lambda_sub.elements, rho_sub.elements}


def test_automorphism_count_s3():
    # Aut(S_3) = Inn(S_3) = S_3
    assert prod(automorphism_orbits(named_group("s3"))) == 6


C2_POWER_LINES = {k: [f"({2 * i} {2 * i + 1})" for i in range(k)]
                  for k in (4, 5)}


@pytest.mark.parametrize("group, orbits, searches", [
    (named_group("s4"), (6, 4), 9), (named_group("s5"), (10, 12), 32),
    (group_from_generator_lines(C2_POWER_LINES[4]), (15, 14, 12, 8), 20),
    (group_from_generator_lines(C2_POWER_LINES[5]), (31, 30, 28, 24, 16),
     41)],
    ids=["s4", "s5", "c2^4", "c2^5"])
def test_automorphism_chain_orbits_are_pinned(monkeypatch, group, orbits,
                                              searches):
    # machine-independent gate: the orbit of each generator under the
    # automorphisms fixing the earlier ones, and the witness searches run.
    # S_4: 6 transpositions, then the 4-cycles; C_2^k: the vectors outside
    # the span of the earlier generators, |GL(k, 2)| in all
    calls = []
    isomorphisms = perm.PermutationGroup.isomorphisms

    def counting(self, *args):
        calls.append(args)
        return isomorphisms(self, *args)

    monkeypatch.setattr(perm.PermutationGroup, "isomorphisms", counting)
    assert (automorphism_orbits(group), len(calls)) == (orbits, searches)


def test_normalizer_gamma_s3():
    r = normalizer_in_full_symmetric(named_group("s3"))
    assert r["gamma_order"] == 72
    assert r["normalizer_order"] == 72
    assert r["aut_order"] == 6
    assert r["aut_gamma_order"] == 72
    assert r["passed"]


def test_normalizer_size_cap(monkeypatch):
    # S_6 has 720 > MAX_GAMMA_BASE = 120 elements: refused before its
    # table, and so Gamma, is built
    def refuse(group):
        raise AssertionError(f"table read for a group of order {group.order}")

    s6 = perm.symmetric_group(6)
    monkeypatch.setattr(perm.PermutationGroup, "table", property(refuse))
    with pytest.raises(PreconditionError, match="exceeds bound 120"):
        normalizer_in_full_symmetric(s6)


# every group of order at most 8 up to isomorphism, 14 of them
SMALL_GROUP_LINES = {
    "c1": ["()"], "c2": ["(0 1)"], "c3": ["(0 1 2)"], "c4": ["(0 1 2 3)"],
    "v4": ["(0 1)(2 3)", "(0 2)(1 3)"], "c5": ["(0 1 2 3 4)"],
    "s3": ["(0 1)", "(0 1 2)"], "c6": ["(0 1 2 3 4 5)"],
    "c7": ["(0 1 2 3 4 5 6)"], "c8": ["(0 1 2 3 4 5 6 7)"],
    "c2xc4": ["(0 1 2 3)", "(4 5)"], "c2^3": ["(0 1)", "(2 3)", "(4 5)"],
    "d4": ["(0 1 2 3)", "(0 2)"],
    "q8": ["(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"],
}


def assert_normalizer_matches_oracles(group):
    report = normalizer_in_full_symmetric(group)
    assert report == normalizer_oracle.normalizer_in_full_symmetric(group)
    auts = normalizer_oracle.automorphisms(group)
    assert prod(automorphism_orbits(group)) == len(auts) == len(set(auts))
    return report


@pytest.mark.parametrize("name", sorted(SMALL_GROUP_LINES))
def test_normalizer_matches_brute_force(name):
    group = group_from_generator_lines(SMALL_GROUP_LINES[name])
    report = assert_normalizer_matches_oracles(group)
    assert report["passed"] == (name != "d4")


@pytest.mark.parametrize("name, seed", [
    ("s3", 1), ("s3", 2), ("s3", 3), ("s3", 7), ("s3", 8), ("s3", 9),
    ("c6", 2), ("c4", 5), ("v4", 6)])
def test_normalizer_on_relabelled_groups_matches_brute_force(name, seed):
    assert_normalizer_matches_oracles(relabelled_generating_set(name, seed))


@pytest.mark.parametrize("lines, orders, passed", [
    (GENERATOR_LINE_GROUPS["a4"][0], (576, 576), True),
    (GENERATOR_LINE_GROUPS["sl23"][0], (1152, 1152), True),
    # C_2 x D_4 after D_4; for S_3 x S_3, inverting one factor normalizes
    # Gamma and lies outside Aut(G) <iota>
    (["(0 1 2 3)", "(0 2)", "(4 5)"], (6144, 2048), False),
    (["(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)"], (10368, 5184), False),
    # Gamma(C_2^k) = lambda(C_2^k), whose normalizer in Sym(C_2^k) is the
    # affine group AGL(k, 2) = C_2^k : GL(k, 2)
    (C2_POWER_LINES[4], (322_560, 322_560), True),
    (C2_POWER_LINES[5], (319_979_520, 319_979_520), True)],
    ids=["a4", "sl23", "c2xd4", "s3xs3", "c2^4", "c2^5"])
def test_normalizer_past_the_brute_force(lines, orders, passed):
    r = normalizer_in_full_symmetric(group_from_generator_lines(lines))
    assert (r["normalizer_order"], r["aut_gamma_order"],
            r["passed"]) == (*orders, passed)


def test_normalizer_candidates_are_pinned(monkeypatch):
    # machine-independent gate, (|N_e| = |N| / |G|, candidate maps
    # tested): one map pi_U per partnered regular U isomorphic to G,
    # where testing all of pi_U Aut(G) took |N_e| tests and the |G|! scan
    # 720 at S_3 and 40 320 at D_4, Q_8
    tested = []
    normalizes = gamma_module._normalizes

    def counting(pi, *gamma):
        tested.append(pi)
        return normalizes(pi, *gamma)

    monkeypatch.setattr(gamma_module, "_normalizes", counting)
    counts = {}
    for name in ("s3", "d4", "q8", "s4"):
        tested.clear()
        r = normalizer_in_full_symmetric(named_group(name))
        counts[name] = (r["normalizer_order"] // r["group_order"], len(tested))
    assert counts == {"s3": (12, 2), "d4": (48, 6), "q8": (48, 2),
                      "s4": (48, 2)}


def test_normalizer_refuses_a_search_that_misses_the_translations(
        monkeypatch):
    # lambda(G) and rho(G) always pass: a count below theirs is a broken
    # certificate, never a verdict
    monkeypatch.setattr(gamma_module, "_normalizes", lambda pi, *gamma: False)
    for name in ("s3", "c6"):
        with pytest.raises(InvariantError, match="lambda"):
            normalizer_in_full_symmetric(named_group(name))


def test_normalizer_refuses_a_search_that_misses_lambda(monkeypatch):
    # D_4 has six passing U, so with lambda(G) failing five still pass,
    # more than the two translations: the members tell, not the count
    group = named_group("d4")
    lam = {tuple(row) for row in group.table}
    normalizes = gamma_module._normalizes

    def misses_lambda(pi, *gamma):
        inverse = _inverse(pi)
        conjugates = {tuple(pi[row[x]] for x in inverse) for row in lam}
        return normalizes(pi, *gamma) and conjugates != lam

    monkeypatch.setattr(gamma_module, "_normalizes", misses_lambda)
    with pytest.raises(InvariantError, match="lambda"):
        normalizer_in_full_symmetric(group)


def test_normalizes_is_the_membership_test():
    # the |G|! scan with the package's test: 72 of the 720 maps of S_3's
    # points normalize Gamma(S_3).  On every group the tests run, each
    # candidate the normalizer tests passes, so refusals are checked here
    s3 = named_group("s3")
    gamma = (gamma_fibers(s3), gamma_module._gamma_generators(s3))
    assert sum(gamma_module._normalizes(pi, *gamma)
               for pi in itertools.permutations(range(6))) == 72


def test_automorphism_search_has_a_bound(monkeypatch):
    # Aut(C_2^5) = GL(5, 2) is counted, not listed: its witness searches
    # try at most 1 + 4 * 31 = 125 generator images each, far below
    # MAX_IMAGE_CHOICES.  A search that passes the bound still stops there
    c2_5 = group_from_generator_lines(C2_POWER_LINES[5])
    monkeypatch.setattr(perm, "MAX_IMAGE_CHOICES", 124)
    with pytest.raises(PreconditionError, match="exceeds bound 124"):
        automorphism_orbits(c2_5)
    monkeypatch.setattr(perm, "MAX_IMAGE_CHOICES", 125)
    assert prod(automorphism_orbits(c2_5)) == 9_999_360


def test_wreath_kernel_property_c6():
    # in an abelian group every lambda_g rho_g is conjugation by g = identity
    lams, rhos, _ = regular_action(named_group("c6"))
    for lam, rho in zip(lams, rhos):
        assert _right_mul(rho)(lam) == tuple(range(6))
