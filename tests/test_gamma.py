"""Tests for the two-sided translation group Gamma(G): order formula,
kernel description, regular subgroups, commuting pairs, normalizer."""

import random
from functools import lru_cache

import pytest

import regular_oracle
from regular_oracle import is_regular, regular_subgroups
from birkhoffsym import gamma as gamma_module
from birkhoffsym import perm
from birkhoffsym.errors import PreconditionError
from birkhoffsym.gamma import (automorphisms, build_gamma,
                               commuting_regular_pairs,
                               is_elementary_abelian_2,
                               normalizer_in_full_symmetric,
                               verify_wreath_quotient)
from birkhoffsym.perm import (Permutation, PermutationGroup, _tagged,
                              named_group, all_subgroups, closure,
                              group_from_generator_lines, parse_cycles,
                              regular_action)


def translation_subgroups(group):
    """lambda(G), rho(G) and iota, the pieces Gamma(G) is generated from;
    each translation group is tagged with all its elements."""
    lams, rhos, iota = regular_action(group)
    return (PermutationGroup(group.order, lams, _tagged(lams)),
            PermutationGroup(group.order, rhos, _tagged(rhos)), iota)


def test_translations_are_actions():
    g = named_group("s3")
    lams, rhos, _ = regular_action(g)
    index = {p: i for i, p in enumerate(g.elements)}
    for a, pa in enumerate(g.elements):
        for b, pb in enumerate(g.elements):
            ab = index[pa * pb]
            assert lams[a] * lams[b] == lams[ab]
            assert rhos[a] * rhos[b] == rhos[ab]
            # left and right translations always commute
            assert lams[a] * rhos[b] == rhos[b] * lams[a]


def test_inversion_conjugates_left_to_right():
    g = named_group("s3")
    lams, rhos, iota = regular_action(g)
    assert (iota * iota).is_identity()
    for lam, rho in zip(lams, rhos):
        assert iota * lam * iota == rho


def test_wreath_on_a_centralizer():
    # C_{S_5}((0 1)) = <(0 1)> x Sym{2,3,4} has order 12 and centre
    # <(0 1)>: Gamma has order 2 * 144 / 2; with generator tags that missed
    # (0 1) it came out 72
    c = closure([parse_cycles(t, 5) for t in ("(0 1)", "(2 3)", "(2 3 4)")])
    assert c.order == 12
    r = verify_wreath_quotient(c)
    assert r.center_order == 2
    assert r.actual_order == r.formula_order == 144
    assert r.passed


def test_center_and_ea2():
    for name, order in {"s3": 1, "c6": 6, "d4": 2, "q8": 2}.items():
        r = verify_wreath_quotient(named_group(name))
        assert r.center_order == order, name
    assert is_elementary_abelian_2(named_group("v4"))
    assert not is_elementary_abelian_2(named_group("c4"))


def test_wreath_orders_frozen():
    # |Gamma(G)| = 2|G|^2/|Z(G)|, frozen from the derivation run
    expected = {"c3": 6, "c6": 12, "s3": 72, "s4": 1152, "q8": 64, "d4": 64}
    for name, order in expected.items():
        r = verify_wreath_quotient(named_group(name))
        assert r.passed, name
        assert r.actual_order == order == r.formula_order, name
        assert not r.elementary_abelian_2, name
        assert r.kernel_pass, name


def test_wreath_elementary_abelian_2_violation():
    r = verify_wreath_quotient(named_group("v4"))
    assert r.elementary_abelian_2
    assert r.formula_order == 2 * 16 // 4 == 8
    assert r.actual_order == 4
    assert r.actual_order != r.formula_order
    assert r.expected_order is None
    assert r.kernel_pass and r.passed


def test_gamma_s3_structure():
    g = named_group("s3")
    gamma = build_gamma(g)
    lambda_sub, rho_sub, iota = translation_subgroups(g)
    assert gamma.order == 72
    assert lambda_sub.order == 6
    assert rho_sub.order == 6
    assert iota in gamma
    assert lambda_sub.is_subgroup_of(gamma)
    assert rho_sub.is_subgroup_of(gamma)


def test_build_gamma_tags():
    gamma = build_gamma(named_group("s3"))
    assert [tag for tag, _ in gamma.generators] == [
        "lambda[(0 1)]", "rho[(0 1)]", "lambda[(0 1 2)]", "rho[(0 1 2)]", "inv"]


def test_build_gamma_size_cap():
    with pytest.raises(PreconditionError):
        build_gamma(perm.symmetric_group(6))  # 720 > cap MAX_GAMMA_BASE 120


def test_gamma_s3_regular_subgroups_two_paths():
    g = named_group("s3")
    gamma = build_gamma(g)
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    regs = regular_subgroups(gamma)
    assert len(regs) == 8
    assert lambda_sub in regs
    assert rho_sub in regs
    cyclic = [u for u in regs if max(p.order() for p in u.elements) == 6]
    assert len(cyclic) == 6
    # independent path: full subgroup enumeration filtered by regularity
    exhaustive = [h for h in all_subgroups(gamma, bound=400)
                  if is_regular(gamma, h)]
    assert set(exhaustive) == set(regs)


def test_gamma_s3_commuting_pairs():
    g = named_group("s3")
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    pairs = commuting_regular_pairs(build_gamma(g))
    assert len(pairs) == 7
    non_self = [(u, v) for u, v in pairs if u != v]
    assert len(non_self) == 1
    assert {non_self[0][0], non_self[0][1]} == {lambda_sub, rho_sub}
    self_paired = [u for u, v in pairs if u == v]
    assert len(self_paired) == 6
    # the self-paired ones are cyclic of order 6 and realize exactly the
    # two decomposition shapes (|U n lambda|, |U n rho|) = (2,3) and (3,2)
    shapes = []
    for u in self_paired:
        assert u.order == 6
        assert max(p.order() for p in u.elements) == 6
        lam = sum(1 for p in u.elements if p in lambda_sub)
        rho = sum(1 for p in u.elements if p in rho_sub)
        shapes.append((lam, rho))
    assert sorted(shapes) == [(2, 3)] * 3 + [(3, 2)] * 3


@lru_cache(maxsize=None)
def gamma_and_regulars(name):
    gamma = build_gamma(named_group(name))
    return gamma, tuple(regular_subgroups(gamma))


def elementwise_pairs(regs):
    """Pairs of regular subgroups all of whose elements commute, by
    composing every pair of image tuples directly."""
    elems = [[p.images for p in u.elements] for u in regs]

    def commute(x, y):
        return tuple(x[i] for i in y) == tuple(y[i] for i in x)

    return [(regs[a], regs[b])
            for a in range(len(regs)) for b in range(a, len(regs))
            if all(commute(x, y) for x in elems[a] for y in elems[b])]


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "c4", "c6"])
def test_commuting_pairs_match_elementwise_oracle(name):
    gamma, regs = gamma_and_regulars(name)
    pairs = commuting_regular_pairs(gamma)
    assert pairs == elementwise_pairs(list(regs))


@pytest.mark.parametrize("name, count", [("s3", 8), ("s4", 100), ("d4", 16),
                                         ("q8", 16)])
def test_gamma_regular_subgroup_counts(name, count):
    gamma, regs = gamma_and_regulars(name)
    assert len(regs) == count
    assert len(set(regs)) == count
    assert all(is_regular(gamma, u) for u in regs)


def test_gamma_s4_regular_subgroup_tags_generate_them():
    _, regs = gamma_and_regulars("s4")
    for u in regs:
        assert closure(u.generator_perms()) == u


def listed(groups):
    """Elements and tags of each group, in order: what `==` on groups
    does not compare."""
    return [(u.elements, u.generators) for u in groups]


def assert_matches_oracle(gamma, regs):
    """The commuting pairs are the list the pair loop gives on the regular
    subgroups `regs` of the unpruned search, tags and order included."""
    assert (listed(sum(commuting_regular_pairs(gamma), ()))
            == listed(sum(regular_oracle.commuting_pairs(list(regs)), ())))


@pytest.mark.parametrize("name", ["c2", "c3", "c4", "c6", "v4", "s3", "d4",
                                  "q8", "s4"])
def test_regular_search_matches_oracle(name):
    assert_matches_oracle(*gamma_and_regulars(name))


def relabelled_generating_set(name, seed):
    """G generated by seeded random elements until they give all of G,
    conjugated by a seeded relabelling of its points."""
    rng = random.Random(seed)
    group = named_group(name)
    pi = Permutation(rng.sample(range(group.degree), group.degree))
    gens = []
    while not gens or closure(gens).order < group.order:
        gens.append(rng.choice(group.elements))
    return closure([pi * g * pi.inverse() for g in gens])


@pytest.mark.parametrize("name, seed", [("s3", 1), ("c6", 2), ("d4", 3),
                                        ("q8", 4), ("s4", 5), ("s4", 6)])
def test_regular_search_on_relabelled_groups_matches_oracle(name, seed):
    gamma = build_gamma(relabelled_generating_set(name, seed))
    assert_matches_oracle(gamma, regular_subgroups(gamma))


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
    gamma = build_gamma(group)
    assert_matches_oracle(gamma, regular_subgroups(gamma))


def stabilizer_classes(gamma, groups):
    """The classes of the given groups under conjugation by Gamma_0, the
    stabilizer of point 0, each a set of member sets of image tuples, by
    Permutation products."""
    stabilizer = [x for x in gamma.elements if x(0) == 0]
    classes = []
    for u in groups:
        if any(frozenset(p.images for p in u.elements) in c for c in classes):
            continue
        classes.append({frozenset((x * p * x.inverse()).images
                                  for p in u.elements) for x in stabilizer})
    return classes


# Gamma(S_5) exceeds build_gamma's bound
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
    found = {members: partner for members, _, partner
             in gamma_module._partnered_regular_subgroups(gamma)}
    regs = regular_oracle.regular_subgroups(gamma)
    columns = {tuple(p.images for p in u.elements):
               tuple(sorted(zip(*(p.images for p in u.elements))))
               for u in regs}
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
            build_gamma(named_group(name)))
        counts[name] = (len(found), len(closures), len(narrowings))
    assert counts == {"s3": (8, 10, 18), "s4": (2, 6, 120)}


def test_commuting_pairs_build_groups_only_for_the_pair(monkeypatch):
    gamma = build_gamma(named_group("s4"))
    built = []
    original = PermutationGroup.__init__

    def counting(self, degree, elements, generators=()):
        built.append(len(elements))
        original(self, degree, elements, generators)

    monkeypatch.setattr(PermutationGroup, "__init__", counting)
    ((u, v),) = commuting_regular_pairs(gamma)
    assert built == [24, 24]
    assert u != v


@pytest.mark.parametrize("name", ["c6", "s3", "d4", "q8", "s4"])
def test_regular_subgroup_elements_are_semiregular(name):
    # a non-identity element of a regular group fixes no point, and all
    # its cycles have one length
    _, regs = gamma_and_regulars(name)
    for u in regs:
        for p in u.elements[1:]:
            lengths = [len(c) for c in p.cycles()]
            assert sum(lengths) == p.degree
            assert len(set(lengths)) == 1


def test_commuting_pairs_build_no_table(monkeypatch):
    def refuse(group):
        raise AssertionError(f"table read for a group of order {group.order}")

    g = named_group("s4")
    gamma = build_gamma(g)  # reads the table of G, not of Gamma(G)
    lambda_sub, rho_sub, _ = translation_subgroups(g)
    monkeypatch.setattr(perm.PermutationGroup, "table", property(refuse))
    pairs = commuting_regular_pairs(gamma)
    assert len(pairs) == 1
    assert {pairs[0][0], pairs[0][1]} == {lambda_sub, rho_sub}


def test_automorphism_count_s3():
    auts = automorphisms(named_group("s3"))
    assert len(auts) == 6  # Aut(S_3) = Inn(S_3) = S_3


def test_normalizer_gamma_s3():
    r = normalizer_in_full_symmetric(named_group("s3"))
    assert r.gamma_order == 72
    assert r.normalizer_order == 72
    assert r.aut_order == 6
    assert r.aut_gamma_order == 72
    assert r.passed


def test_normalizer_size_cap():
    with pytest.raises(PreconditionError):
        normalizer_in_full_symmetric(named_group("d4"))  # |G| = 8 > 6


def test_wreath_kernel_property_c6():
    # in an abelian group every lambda_g rho_g is conjugation by g = identity
    lams, rhos, _ = regular_action(named_group("c6"))
    for lam, rho in zip(lams, rhos):
        assert (lam * rho).is_identity()
