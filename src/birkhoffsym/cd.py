"""Chermak-Delgado measure and lattice computations.

The measure of a subgroup H of G is m_G(H) = |H| * |C_G(H)|.  The
subgroups attaining the maximal measure form a sublattice of the subgroup
lattice that is closed under intersection, set product, and centralizer,
and whose members are all subnormal in G.  This module computes the
lattice from the subgroups up to conjugacy that `perm.subgroup_classes`
lists (the measure is constant on a class, so it is computed once per
class, from generators) and verifies those closure facts directly on
member index sets: C(H) once per member, and H n K and HK once per
unordered pair that is not nested, HK by its size against the closure
<H, K>, never as a set of products.  A member stays such an index set,
with its generators' positions: no subgroup is built as a group of its
own.  It also checks the estimate
m_{S_n}(U) <= n! with equality only at the trivial and full subgroups
(n = 4 to 7).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import PreconditionError
from .perm import PermutationGroup, subgroup_classes, symmetric_group


def _subnormal_by_normalizer_chain(group: PermutationGroup,
                                   members: frozenset[int],
                                   gens: Iterable[int]) -> bool:
    """Iterate H <= N_G(H) <= N_G(N_G(H)) <= ... until a fixed point;
    subnormal verdict = the chain reaches all of G.  N_G(H) is read off
    the generators of H; a later term has only its members to offer."""
    current = members
    while len(current) < group.order:
        nxt = frozenset(group.normalizer_indices(current, gens))
        if nxt == current:
            return False
        current = gens = nxt
    return True


def _class_measures(group: PermutationGroup, classes) -> list[int]:
    """m_G of each conjugacy class, from its first member's generators:
    C_G(x H x^-1) = x C_G(H) x^-1, so the measure is a class invariant."""
    return [len(cls[0][0]) * len(group.centralizer_indices(cls[0][1]))
            for cls in classes]


def _pair_closed(group: PermutationGroup, h, k, lattice: set) -> bool:
    """H n K and the set product HK are members of the lattice, HK a
    subgroup.  Nested H and K pass at once: H n K and HK are H and K.
    Otherwise HK lies in J = <H, K>, closed from H's members, and |HK| =
    |H||K|/|H n K|, so HK is a subgroup exactly when |J||H n K| =
    |H||K|, and is then J itself; no product set is built."""
    (hs, h_gens), (ks, k_gens) = h, k
    if hs <= ks or ks <= hs:
        return True
    meet = hs & ks
    if meet not in lattice:
        return False
    joined = group.closure_indices(h_gens + k_gens, hs)
    return len(joined) * len(meet) == len(hs) * len(ks) and joined in lattice


def cd_lattice(group: PermutationGroup, bound: int = 200) -> dict:
    """Maximizers of the Chermak-Delgado measure with verification flags.

    closure_pass: for all H, K in the lattice L, C_G(H), H n K and the
    set product HK are members of L, HK a subgroup.  C_G(H) is read once
    per member.  A pair passes at once when one of H, K contains the
    other; every other unordered pair is checked once by `_pair_closed`,
    by sizes against the closure <H, K>.
    subnormal_pass: every member's iterated normalizer chain reaches G.
    Members come from `subgroup_classes` as index sets with generators,
    sorted by (order, element list), and are reported so.

    The report: `group_order`, `subgroup_count`, `max_measure`,
    `lattice`, each member a (members, generators) pair of positions on
    G's table, and the two verdicts `closure_pass` and `subnormal_pass`.
    """
    classes = subgroup_classes(group, bound=bound)
    measures = _class_measures(group, classes)
    max_measure = max(measures)
    lattice_pairs = sorted(
        ((members, gens) for cls, measure in zip(classes, measures)
         if measure == max_measure for members, gens in cls),
        key=lambda sub: (len(sub[0]), sorted(sub[0])))
    lattice_sets = {hs for hs, _ in lattice_pairs}
    closure_pass = (
        all(group.centralizer_indices(h_gens) in lattice_sets
            for _, h_gens in lattice_pairs)
        and all(_pair_closed(group, h, k, lattice_sets)
                for h, k in combinations(lattice_pairs, 2)))
    subnormal_pass = all(_subnormal_by_normalizer_chain(group, hs, h_gens)
                         for hs, h_gens in lattice_pairs)
    return {
        "group_order": group.order,
        "subgroup_count": sum(len(cls) for cls in classes),
        "max_measure": max_measure,
        "lattice": lattice_pairs,
        "closure_pass": closure_pass,
        "subnormal_pass": subnormal_pass,
    }


def verify_centralizer_estimate(n: int) -> dict:
    """For every subgroup U of S_n: |U| * |C(U)| <= n!, with equality
    exactly at U = 1 and U = S_n.  Supported for n in {4, 5, 6, 7}, so
    |S_n| <= 5040 (S_7: 11 300 subgroups in 96 classes).  The measure is
    computed once per conjugacy class and counted for each of its
    members.  The report: `n`, `group_order`, `subgroup_count`,
    `max_measure`, the sorted subgroup orders where |U| |C(U)| = n! holds
    (`equality_orders`) or is exceeded (`violations`), and `passed`."""
    if n not in (4, 5, 6, 7):
        raise PreconditionError(
            f"centralizer estimate check supports n in {{4, 5, 6, 7}}, got {n}")
    group = symmetric_group(n)
    classes = subgroup_classes(group, bound=group.order)
    measures = _class_measures(group, classes)
    full = group.order
    equality_orders = []
    violations = []
    for cls, measure in zip(classes, measures):
        orders = [len(cls[0][0])] * len(cls)
        if measure > full:
            violations.extend(orders)
        elif measure == full:
            equality_orders.extend(orders)
    equality_orders.sort()
    violations.sort()
    passed = not violations and equality_orders == [1, full]
    return {
        "n": n,
        "group_order": full,
        "subgroup_count": sum(len(cls) for cls in classes),
        "max_measure": max(measures),
        "equality_orders": equality_orders,
        "violations": violations,
        "passed": passed,
    }
