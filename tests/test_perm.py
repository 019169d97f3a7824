"""Tests for permutations, groups, closures, subgroup enumeration, and
the regular-subgroup oracle against it.  The subgroup counts are
cross-checked by an independent pair-closure oracle (valid because
every subgroup of the groups used here is generated by at most two
elements)."""

import functools
import itertools
import os
import random
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from group_oracle import all_subgroups, build_gamma, regular_action
from regular_oracle import is_regular, regular_subgroups
from birkhoffsym import perm as perm_module
from birkhoffsym.cd import cd_lattice
from birkhoffsym.errors import InvariantError, PreconditionError
from birkhoffsym.gamma import commuting_regular_pairs, gamma_fibers
from birkhoffsym.perm import (MAX_DEGREE, PermutationGroup, _inverse, _order,
                              _right_mul, _semiregular_order, as_permutation,
                              builtin_group_names, closure, cycle_string,
                              group_from_generator_lines, named_group,
                              parse_cycles, saturate, subgroup_classes,
                              symmetric_group)
from birkhoffsym.reppoly import default_catalog


def perm_strategy(degree):
    return st.permutations(range(degree)).map(tuple)


def test_composition_convention_q_first():
    # (p*q)(x) = p(q(x)): with p = (0 1), q = (1 2) we get 0 -> q 0 -> p 1;
    # p*q is _right_mul(q)(p)
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    assert _right_mul(q)(p) == (1, 2, 0)
    assert _right_mul(p)(q) == (2, 0, 1)


def test_call_inverse_order():
    c = parse_cycles("(0 1 2 3)", 4)
    assert c[0] == 1
    assert _right_mul(c)(_inverse(c)) == (0, 1, 2, 3)
    assert _order(c) == 4


@given(perm_strategy(6), perm_strategy(6), perm_strategy(6))
def test_associativity(a, b, c):
    assert (_right_mul(c)(_right_mul(b)(a))
            == _right_mul(_right_mul(c)(b))(a))


@given(st.integers(1, 9).flatmap(perm_strategy))
def test_order_is_the_least_power_giving_the_identity(p):
    # the lcm of the cycle lengths, against repeated multiplication
    k, q = 1, p
    while q != tuple(range(len(p))):
        q, k = _right_mul(p)(q), k + 1
    assert _order(p) == k


@given(perm_strategy(7))
def test_cycle_string_roundtrip(p):
    assert parse_cycles(cycle_string(p), 7) == p


@given(perm_strategy(6))
def test_inverse_roundtrip(p):
    assert _right_mul(_inverse(p))(p) == tuple(range(6))
    assert _inverse(_inverse(p)) == p


def test_parse_cycles_validation():
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    assert parse_cycles("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert parse_cycles("(0,1,2)", 3) == parse_cycles("(0 1 2)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)", 3)  # repeated point
    with pytest.raises(ValueError):
        parse_cycles("(0 5)", 3)  # out of range


def test_degree_cap_comes_before_any_image_list():
    # a point far past the cap used to allocate an image list of that size
    # (MemoryError here); now ValueError, checked before any list exists
    huge = 10 ** 15
    with pytest.raises(ValueError, match="cap"):
        parse_cycles("(0 1)", huge)
    with pytest.raises(ValueError, match="cap"):
        group_from_generator_lines([f"(0 {huge})"])
    with pytest.raises(ValueError, match="cap"):
        parse_cycles("(0 1)", MAX_DEGREE + 1)
    with pytest.raises(ValueError, match="cap"):
        group_from_generator_lines([f"(0 {MAX_DEGREE})"])
    assert group_from_generator_lines([f"(0 {MAX_DEGREE - 1})"]).degree == MAX_DEGREE


@given(perm_strategy(6), perm_strategy(6))
def test_products_and_inverses_are_permutations(a, b):
    # both skip validation; the validator must accept them unchanged
    for p in (_right_mul(b)(a), _inverse(a)):
        assert type(p) is tuple
        assert as_permutation(p) == p


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        as_permutation([0, 0, 1])


@pytest.mark.parametrize("images, named", [
    ([True, False], "image 'True' at position 0 is not an int"),
    ([0, False], "image 'False' at position 1 is not an int"),
    ([1.0, 0.0], "image '1.0' at position 0 is not an int"),
    ([0, "1"], "image '1' at position 1 is not an int")],
    ids=["bool", "bool-after-int", "float", "str"])
def test_permutation_refuses_an_image_that_is_not_an_int(images, named):
    # bool and float images sort like 0..n-1; they used to pass, and
    # cycle_string gave "(0 True)" or raised TypeError
    with pytest.raises(ValueError) as e:
        as_permutation(images)
    assert str(e.value) == f"not a permutation of 0..1: {named}"


@given(perm_strategy(7))
def test_parsed_cycles_pass_the_int_check(p):
    q = parse_cycles(cycle_string(p), len(p))
    assert q == p and as_permutation(q) == p
    assert set(map(type, q)) <= {int}


def test_group_constructor_sorts_and_requires_identity():
    g = symmetric_group(3)
    assert g.elements[0] == (0, 1, 2)
    assert all(type(p) is tuple for p in g.elements)
    assert list(g.elements) == sorted(g.elements)
    t = parse_cycles("(0 1)", 3)
    with pytest.raises(ValueError):
        PermutationGroup([t], (t,))


def test_closure_matches_itertools_for_s3_s4():
    for n in (3, 4):
        gens = [parse_cycles("(0 1)", n), tuple(range(1, n)) + (0,)]
        g = closure(gens)
        assert set(g.elements) == set(itertools.permutations(range(n)))


def test_closure_cap():
    gens = [parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)]
    with pytest.raises(PreconditionError):
        closure(gens, max_order=100)


def test_saturate_gives_orbits_and_stops_at_the_cap():
    g = parse_cycles("(0 1 2)(3 4)", 6)
    h = parse_cycles("(2 5)", 6)
    steps = [g.__getitem__, h.__getitem__]
    assert saturate([0], steps) == {0, 1, 2, 5}
    assert saturate([3], steps) == {3, 4}
    assert saturate([0, 3], steps) == {0, 1, 2, 3, 4, 5}
    with pytest.raises(PreconditionError, match="exceeds bound 3"):
        saturate([0], steps, cap=3)


@pytest.mark.parametrize("name", ["s5", "gamma_s3"])
def test_closure_indices_match_closure(name):
    # left products by the seeds close to the subgroup the seeds generate,
    # the one `closure` finds from the seed permutations
    group = (symmetric_group(5) if name == "s5"
             else build_gamma(named_group("s3")))
    rng = random.Random(15)
    orders = set()
    for _ in range(40):
        seeds = rng.sample(range(group.order), rng.randint(0, 3))
        got = group.closure_indices(seeds)
        sub = closure([group.elements[s] for s in seeds] or [group.identity])
        assert got == {group.index[p] for p in sub.elements}
        orders.add(len(got))
    assert len(orders) > 3


def bfs_closure(gens, degree):
    """The group the image tuples generate, breadth-first with one product
    per (element, generator) and no cosets: the oracle for coset mode."""
    known = {tuple(range(degree))}
    frontier = list(known)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                p = tuple(w[i] for i in g)
                if p not in known:
                    known.add(p)
                    nxt.append(p)
        frontier = nxt
    return known


def random_generating_set(seed):
    """Degree 1..7 by seed; odd seeds draw each generator from the
    permutations keeping blocks of at most 3 points, so the group stays
    small enough for a table.  A redundant generator (a product of two
    drawn ones) and the identity are put in at random places."""
    rng = random.Random(seed)
    degree = seed % 7 + 1
    points = rng.sample(range(degree), degree)
    blocks = ([points[i:i + 3] for i in range(0, degree, 3)] if seed % 2
              else [points])

    def draw():
        images = list(range(degree))
        for block in blocks:
            for a, b in zip(block, rng.sample(block, len(block))):
                images[a] = b
        return tuple(images)

    gens = [draw() for _ in range(rng.randint(1, 3))]
    a, b = rng.choice(gens), rng.choice(gens)
    for extra in (tuple(a[i] for i in b), tuple(range(degree))):
        gens.insert(rng.randint(0, len(gens)), extra)
    return degree, gens


@pytest.mark.parametrize("seed", range(42))
def test_coset_closures_match_a_plain_breadth_first_closure(seed):
    degree, gens = random_generating_set(seed)
    group = closure(gens)
    assert set(group.index) == bfs_closure(gens, degree)
    if group.order <= 720:
        rng = random.Random(seed)
        seeds = rng.sample(gens, rng.randint(1, len(gens)))
        got = group.closure_indices(group.index[g] for g in seeds)
        assert ({group.elements[i] for i in got}
                == bfs_closure(seeds, degree))


def test_coset_mode_stops_at_the_cap():
    # S_4 grown from H = <(0 1)> by right cosets H p: 12 cosets of 2
    h = {(0, 1, 2, 3), (1, 0, 2, 3)}
    steps = [itemgetter(1, 0, 2, 3), itemgetter(1, 2, 3, 0)]

    def coset(p):
        return map(itemgetter(*p), h)

    assert len(saturate(h, steps, 24, coset)) == 24
    with pytest.raises(PreconditionError, match="exceeds bound 23"):
        saturate(h, steps, 23, coset)
    gens = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
    with pytest.raises(PreconditionError, match="exceeds bound 23"):
        closure(gens, max_order=23)


def test_builtin_structure():
    # (order, max element order, involution count), frozen from a
    # derivation run double-checked against textbook structure
    facts = {
        "c2": (2, 2, 1), "c3": (3, 3, 0), "c4": (4, 4, 1), "c6": (6, 6, 1),
        "v4": (4, 2, 3), "s3": (6, 3, 3), "s4": (24, 4, 9),
        "d4": (8, 4, 5), "q8": (8, 4, 1),
    }
    for name, (order, max_order, involutions) in facts.items():
        g = named_group(name)
        orders = g.orders
        assert g.order == order, name
        assert max(orders) == max_order, name
        assert sum(1 for o in orders if o == 2) == involutions, name
    assert named_group("s5").order == 120
    assert set(facts) | {"s5"} == set(builtin_group_names())


def test_named_group_unknown():
    with pytest.raises(ValueError):
        named_group("e8")


@functools.lru_cache(maxsize=None)
def pair_closure_subgroups(group):
    """Oracle: distinct closures of all 1- and 2-element subsets.
    Complete exactly when every subgroup is 2-generated.  Cached, since
    two tests ask for S_5's (7260 closures)."""
    seen = set()
    elems = group.elements
    for i, a in enumerate(elems):
        for b in elems[i:]:
            seen.add(closure([a, b]).elements)
    return seen


@pytest.mark.parametrize("name,count", [
    ("c6", 4), ("v4", 5), ("s3", 6), ("d4", 10), ("q8", 6), ("s4", 30),
])
def test_subgroup_counts(name, count):
    g = named_group(name)
    subs = all_subgroups(g)
    assert len(subs) == count
    assert len(pair_closure_subgroups(g)) == count
    # deterministic order, closed under taking the whole group and 1
    assert subs[0].order == 1
    assert subs[-1].order == g.order
    assert [s.order for s in subs] == sorted(s.order for s in subs)


def test_subgroup_count_s5():
    g = named_group("s5")
    subs = all_subgroups(g)
    assert len(subs) == 156
    assert len(pair_closure_subgroups(g)) == 156


def relabelled(name, seed):
    """The named group rebuilt from generator lines, as a group file holds
    them: a seeded random generating set on a seeded relabelling of the
    points."""
    g = named_group(name)
    rng = random.Random(seed)
    while True:
        gens = [rng.choice(g.elements) for _ in range(rng.choice((2, 3)))]
        if closure(gens).order == g.order:
            break
    label = list(range(g.degree))
    rng.shuffle(label)
    relabel = tuple(label)
    # relabel * p * relabel^-1
    return group_from_generator_lines(
        [cycle_string(_right_mul(_inverse(relabel))(_right_mul(p)(relabel)))
         for p in gens])


def _element_lists(subs):
    return [h.elements for h in subs]


@pytest.mark.parametrize("group", [
    *[pytest.param(named_group(name), id=name) for name in builtin_group_names()],
    *[pytest.param(relabelled(name, seed), id=f"{name}-relabelled-{seed}")
      for name, seed in (("s4", 11), ("s5", 12), ("d4", 13), ("q8", 14))],
])
def test_all_subgroups_match_pair_closure_oracle(group):
    # every group here has only 2-generated subgroups, so the oracle is
    # complete; the list must match it exactly, in (order, elements) order
    subs = all_subgroups(group)
    want = sorted(pair_closure_subgroups(group), key=lambda e: (len(e), e))
    assert _element_lists(subs) == want
    for h in subs:
        gens = h.generators or (h.identity,)
        assert closure(gens).elements == h.elements


def test_subgroup_classes_are_conjugacy_classes():
    # each class is one full orbit of G acting by conjugation, first
    # member queued; classes are disjoint
    g = named_group("s4")
    seen = set()
    for cls in subgroup_classes(g):
        members = cls[0][0]
        orbit = {frozenset(g.table[g.table[x][a]][g.inv[x]] for a in members)
                 for x in range(g.order)}
        assert {k for k, _ in cls} == orbit
        assert len(cls) == len(orbit)
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == 30


def test_subgroup_closure_calls_are_pinned(monkeypatch):
    # machine-independent gate: one closure per extension orbit of one
    # subgroup per conjugacy class; closing every (subgroup, element) pair
    # took 577 (S_4) and 17509 (S_5)
    calls = []
    original = PermutationGroup.closure_indices

    def counting(self, seeds, *members):
        calls.append(seeds)
        return original(self, seeds, *members)

    monkeypatch.setattr(PermutationGroup, "closure_indices", counting)
    counts = {}
    for name in ("s4", "s5"):
        calls.clear()
        subs = all_subgroups(named_group(name))
        counts[name] = (len(subs), len(calls))
    assert counts == {"s4": (30, 25), "s5": (156, 85)}


@pytest.mark.parametrize("name, stages", [
    ("s4", 25), ("s5", 85), ("d4", 14), ("q8", 10)])
def test_subgroup_saturate_stages_are_pinned(monkeypatch, name, stages):
    # machine-independent gate: coset stages of `saturate` per
    # enumeration, one per extension <H, g> closed from H's members; closing
    # each extension from the identity, generator by generator, took 53,
    # 198, 26 and 16
    group = named_group(name)
    group.table  # built first: its Cayley-graph walk is no coset stage
    counted, plain = [], perm_module.saturate

    def counting(seeds, steps, cap=None, coset=None):
        counted.append(coset is not None)
        return plain(seeds, steps, cap, coset)

    monkeypatch.setattr(perm_module, "saturate", counting)
    subgroup_classes(group)
    assert counted == [True] * stages


@pytest.mark.parametrize("name", builtin_group_names())
def test_extensions_closed_from_their_subgroup_match_the_closure(
        monkeypatch, name):
    # every extension the enumeration makes, <H, g> closed from H's
    # members, is the closure of the same seeds from the identity, and H
    # is the subgroup the leading seeds generate
    group = named_group(name)
    original, extensions = PermutationGroup.closure_indices, []

    def keeping(self, seeds, members):
        closed = original(self, seeds, members)
        extensions.append((seeds, members, closed))
        return closed

    monkeypatch.setattr(PermutationGroup, "closure_indices", keeping)
    classes = subgroup_classes(group, bound=group.order)
    monkeypatch.undo()
    assert len(extensions) >= len(classes) - 1  # each class but {1} is one
    for seeds, members, closed in extensions:
        assert members == group.closure_indices(seeds[:-1])
        assert closed == group.closure_indices(seeds)


def test_all_subgroups_ignore_the_hash_seed():
    # set iteration order changes with PYTHONHASHSEED; subgroups and
    # their generators must not
    code = ("from birkhoffsym.perm import named_group\n"
            "from group_oracle import all_subgroups\n"
            "for name in ('s4', 'd4'):\n"
            "    for h in all_subgroups(named_group(name)):\n"
            "        print(h.order, h.elements,"
            " list(h.generators))\n")
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_all_subgroups_bound():
    with pytest.raises(PreconditionError):
        all_subgroups(named_group("s4"), bound=10)


def test_centralizer_hand_cases():
    s3 = named_group("s3")

    def centralizer_order(*cycle_texts):
        return len(s3.centralizer_indices(
            s3.index[parse_cycles(t, 3)] for t in cycle_texts))

    assert centralizer_order("(0 1 2)") == 3
    assert centralizer_order("(0 1)") == 2
    assert centralizer_order() == 6  # the trivial subgroup's empty generating set
    assert centralizer_order("(0 1)", "(0 1 2)") == 1


def test_regular_subgroups_of_s4_are_generated_by_their_tags():
    # the fiber choices of the unpruned regular search generate each group
    s4 = symmetric_group(4)
    for u in regular_subgroups(s4):
        assert closure(u.generators).order == u.order


def constructed_groups() -> list[tuple[str, PermutationGroup]]:
    """(label, group) for groups built by each of the package's group
    constructors: symmetric groups, built-in names, generator lines,
    Gamma(G) and the element groups of matrix groups; and for the
    subgroups the package holds as members of their group: those of the
    subgroup enumeration and of the Chermak-Delgado lattice, generated by
    the positions listed with them, and the regular-pair search's member
    tuples, generated by all their members, so closed under products."""
    groups = [(f"S_{n}", symmetric_group(n)) for n in range(1, 6)]
    groups += [(name, named_group(name)) for name in builtin_group_names()]
    groups.append(("lines-trivial", group_from_generator_lines(["()"])))
    groups += [(f"S_4-subgroup-{i}", h)
               for i, h in enumerate(all_subgroups(symmetric_group(4)))]
    d4 = named_group("d4")
    groups += [(f"D_4-cd-{i}", PermutationGroup(
                    map(d4.elements.__getitem__, members),
                    [d4.elements[g] for g in gens]))
               for i, (members, gens) in enumerate(cd_lattice(d4)["lattice"])]
    for i, pair in enumerate(commuting_regular_pairs(
            gamma_fibers(named_group("s3")))):
        groups += [(f"Gamma(S_3)-pair-{i}-{side}",
                    PermutationGroup(u, u))
                   for side, u in zip("uv", pair)]
    groups += [(f"Gamma({name})", build_gamma(named_group(name)))
               for name in ("s3", "q8", "c6")]
    groups += [(f"{entry.name}-{n}", entry.matrix_group.element_group())
               for n in (3, 4) for entry in default_catalog(n)]
    return groups


CONSTRUCTED_GROUPS = constructed_groups()


@pytest.mark.parametrize("group", [g for _, g in CONSTRUCTED_GROUPS],
                         ids=[label for label, _ in CONSTRUCTED_GROUPS])
def test_every_constructed_group_is_generated_by_its_tags(group):
    # the trivial group may carry no generators; every other one carries
    # its own generating set
    assert closure(group.generators or (group.identity,)) == group


def test_indexed_group_table():
    g = named_group("s3")
    elems = g.elements
    for a in range(g.order):
        for b in range(g.order):
            assert elems[g.table[a][b]] == _right_mul(elems[b])(elems[a])
        assert _right_mul(elems[g.inv[a]])(elems[a]) == elems[0]


@pytest.mark.parametrize("name", builtin_group_names())
def test_orders_are_the_least_powers_giving_the_identity(name):
    # read off the image tuples, and off the table rows, the left
    # translations, which are semiregular, against repeated
    # multiplication of permutations
    g = named_group(name)
    identity = tuple(range(g.degree))
    expected = []
    for p in g.elements:
        k, q = 1, p
        while q != identity:
            q, k = _right_mul(p)(q), k + 1
        expected.append(k)
    assert g.orders == list(map(_semiregular_order, g.table)) == expected


def test_isomorphisms_from_a_prefix():
    # S_3 by (0 1), (0 1 2): every automorphism is inner, one per pair of
    # images of a transposition and a 3-cycle
    g = named_group("s3")
    table, orders = g.table, g.orders
    swap, turn = (g.index[s] for s in g.generators)
    assert len(list(g.isomorphisms(table, orders))) == 6
    for t in range(g.order):
        found = list(g.isomorphisms(table, orders, [t]))
        assert len(found) == (2 if orders[t] == 2 else 0)
        assert all(alpha[swap] == t for alpha in found)
    assert list(g.isomorphisms(table, orders, [swap, turn])) == [
        list(range(g.order))]
    # the images of both generators fix the map: a clash leaves none
    assert list(g.isomorphisms(table, orders, [swap, swap])) == []


def product_position(group, a, b):
    """Oracle: the position of elements[a] * elements[b], multiplied out
    as image tuples and looked up in the index, entry by entry."""
    elems = group.elements
    return group.index[_right_mul(elems[b])(elems[a])]


TABLE_GROUPS = [
    *[(name, functools.partial(named_group, name))
      for name in builtin_group_names()],
    ("S_6", functools.partial(symmetric_group, 6)),
    *[(f"Gamma({name})", functools.partial(build_gamma, named_group(name)))
      for name in builtin_group_names() if named_group(name).order <= 8],
]


@pytest.mark.parametrize("build", [b for _, b in TABLE_GROUPS],
                         ids=[label for label, _ in TABLE_GROUPS])
def test_cayley_graph_table_matches_the_products(build):
    group = build()
    n = group.order
    assert group.table == [[product_position(group, a, b) for b in range(n)]
                           for a in range(n)]


def test_cayley_graph_table_of_gamma_s4_at_random_entries():
    group = build_gamma(named_group("s4"))
    table = group.table
    assert group.order == 1152 and len(table) == 1152
    rng = random.Random(19)
    for _ in range(20000):
        a, b = rng.randrange(1152), rng.randrange(1152)
        assert table[a][b] == product_position(group, a, b)


def test_table_refuses_tags_that_do_not_generate_the_group():
    # the table is read along the generators' Cayley graph, so generators
    # of a proper subgroup, or one outside the group, break its certificate
    s3 = named_group("s3")
    swap, turn = parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)
    proper = PermutationGroup(s3.elements, (swap,))
    with pytest.raises(InvariantError, match="do not generate"):
        proper.table
    assert proper._table is None  # no partial table is kept
    c3 = named_group("c3")
    outside = PermutationGroup(c3.elements, (turn, swap))
    with pytest.raises(InvariantError, match="outside the element list"):
        outside.table


@pytest.mark.parametrize("name", ["s4", "s5", "d4", "q8"])
def test_column_scans_match_a_per_element_oracle(name):
    group = named_group(name)
    n, index = group.order, group.index
    elems = group.elements
    rng = random.Random(name)
    for _ in range(12):
        hs = rng.sample(range(n), rng.randint(0, 3))
        members = frozenset(rng.sample(range(n), rng.randint(1, n)))
        assert group.centralizer_indices(hs) == {
            g for g in range(n)
            if all(_right_mul(elems[h])(elems[g])
                   == _right_mul(elems[g])(elems[h]) for h in hs)}
        # m g m^-1, multiplied out as image tuples
        assert group.normalizer_indices(members, hs) == [
            m for m in range(n)
            if all(index[_right_mul(_inverse(elems[m]))(
                       _right_mul(elems[g])(elems[m]))] in members
                   for g in hs)]


def test_indexed_table_of_the_trivial_group():
    # on one point itemgetter returns an int, not an image tuple
    assert group_from_generator_lines(["()"]).table == [[0]]


def test_group_index_puts_the_identity_at_zero():
    for name in builtin_group_names():
        g = named_group(name)
        assert g.index[tuple(range(g.degree))] == 0
        assert [g.index[p] for p in g.elements] == list(range(g.order))
        assert g.table[0] == list(range(g.order))


def test_table_is_built_on_first_read_and_kept():
    g = named_group("d4")
    assert g._table is None and g._inv is None
    assert g.order == 8 and g.elements[3] in g.index
    assert g._table is None  # membership reads the index only
    table = g.table
    assert g.table is table
    assert g._inv is None  # the inverses are built on their own first read
    assert g.inv is g.inv


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "q8"])
def test_regular_action_matches_products(name):
    g = named_group(name)
    elems = g.elements
    index = {p: i for i, p in enumerate(elems)}
    lams, rhos, iota = regular_action(g)
    assert lams == [
        tuple(index[_right_mul(x)(a)] for x in elems) for a in elems]
    assert rhos == [
        tuple(index[_right_mul(_inverse(a))(x)] for x in elems) for a in elems]
    assert iota == tuple(index[_inverse(x)] for x in elems)


def test_regular_subgroups_counts():
    # both enumeration paths, frozen from the derivation run
    cases = {"s3": 1, "c6": 1, "v4": 1, "s4": 4}
    for name, count in cases.items():
        g = named_group(name)
        found = regular_subgroups(g)
        assert len(found) == count, name
        exhaustive = [h for h in all_subgroups(g) if is_regular(g, h)]
        assert set(found) == set(exhaustive), name
        for u in found:
            assert u.order == g.degree
            assert is_regular(g, u)
    # S_4 on 4 points: three cyclic C_4 and the normal V_4
    regs = regular_subgroups(named_group("s4"))
    cyclic = [u for u in regs
              if max(map(_order, u.elements)) == 4]
    assert len(cyclic) == 3


def test_regular_subgroups_degree_one_and_c2():
    trivial = group_from_generator_lines(["()"])
    assert trivial.degree == 1
    (u,) = regular_subgroups(trivial)
    assert u == trivial
    assert u.generators == ()
    c2 = named_group("c2")
    (u,) = regular_subgroups(c2)
    assert u == c2
    assert u.generators == (parse_cycles("(0 1)", 2),)


def test_is_regular_negative():
    s3 = named_group("s3")
    c2 = closure([parse_cycles("(0 1)", 3)])
    assert not is_regular(s3, c2)
    assert not is_regular(s3, s3)


def test_group_from_generator_lines():
    g = group_from_generator_lines([
        "# a comment",
        "(0 1)",
        "",
        "(0 1 2)",
    ])
    assert g.order == 6
    assert g.degree == 3


def test_symmetric_group_enumeration_is_lexicographic():
    g = symmetric_group(3)
    assert list(g.elements) == sorted(itertools.permutations(range(3)))
