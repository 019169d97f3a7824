"""Chermak-Delgado measure and lattice computations.

The measure of a subgroup H of G is m_G(H) = |H| * |C_G(H)|.  The
subgroups attaining the maximal measure form a sublattice of the subgroup
lattice that is closed under intersection, set product, and centralizer,
and whose members are all subnormal in G.  This module computes the
lattice by full subgroup enumeration and verifies those closure facts
directly, plus the estimate m_{S_n}(U) <= n! with equality only at the
trivial and full subgroups (n = 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASubgroupError, PreconditionError
from .perm import (PermutationGroup, all_subgroups, centralizer, indexed,
                   symmetric_group)


def cd_measure(group: PermutationGroup, sub: PermutationGroup) -> int:
    if not sub.is_subgroup_of(group):
        raise NotASubgroupError("cd_measure: H is not a subgroup of G")
    return sub.order * centralizer(group, sub).order


@dataclass
class CDReport:
    group_order: int
    subgroup_count: int
    max_measure: int
    lattice: list[PermutationGroup]
    closure_pass: bool
    subnormal_pass: bool


def _member_indices(ig, sub: PermutationGroup) -> frozenset[int]:
    return frozenset(ig.index[p.images] for p in sub.elements)


def _is_subgroup_indices(ig, members: frozenset[int]) -> bool:
    table = ig.table
    return all(table[a][b] in members for a in members for b in members)


def _normalizer_indices(ig, members: frozenset[int]) -> frozenset[int]:
    table, inv = ig.table, ig.inv
    return frozenset(g for g in range(ig.order)
                     if all(table[table[g][h]][inv[g]] in members
                            for h in members))


def _subnormal_by_normalizer_chain(ig, members: frozenset[int]) -> bool:
    """Iterate H <= N_G(H) <= N_G(N_G(H)) <= ... until a fixed point;
    subnormal verdict = the chain reaches all of G."""
    whole = frozenset(range(ig.order))
    current = members
    while True:
        nxt = _normalizer_indices(ig, current)
        if nxt == whole:
            return True
        if nxt == current:
            return False
        current = nxt


def cd_lattice(group: PermutationGroup, bound: int = 200) -> CDReport:
    """Maximizers of the Chermak-Delgado measure with verification flags.

    closure_pass: for all H, K in the lattice, H n K, the set product HK
    (checked to be a subgroup first), and C_G(H) are again lattice
    members.  subnormal_pass: every member's iterated normalizer chain
    reaches G.
    """
    subs = all_subgroups(group, bound=bound)
    ig = indexed(group)
    member_sets = [_member_indices(ig, h) for h in subs]
    measures = [len(ms) * len(ig.centralizer(ms))
                for ms in member_sets]
    max_measure = max(measures)
    lattice_pairs = [(subs[i], member_sets[i])
                     for i in range(len(subs)) if measures[i] == max_measure]
    lattice_sets = {ms for _, ms in lattice_pairs}
    table = ig.table
    closure_pass = True
    for _, hs in lattice_pairs:
        if ig.centralizer(hs) not in lattice_sets:
            closure_pass = False
        for _, ks in lattice_pairs:
            if frozenset(hs & ks) not in lattice_sets:
                closure_pass = False
            product = frozenset(table[a][b] for a in hs for b in ks)
            if not _is_subgroup_indices(ig, product) or product not in lattice_sets:
                closure_pass = False
    subnormal_pass = all(_subnormal_by_normalizer_chain(ig, hs)
                         for _, hs in lattice_pairs)
    return CDReport(
        group_order=group.order,
        subgroup_count=len(subs),
        max_measure=max_measure,
        lattice=[h for h, _ in lattice_pairs],
        closure_pass=closure_pass,
        subnormal_pass=subnormal_pass,
    )


@dataclass
class CentralizerEstimateReport:
    n: int
    group_order: int
    subgroup_count: int
    max_measure: int
    equality_orders: list[int]
    violations: list[int]
    passed: bool


def verify_centralizer_estimate(n: int, bound: int = 200) -> CentralizerEstimateReport:
    """For every subgroup U of S_n: |U| * |C(U)| <= n!, with equality
    exactly at U = 1 and U = S_n.  Supported for n in {4, 5}."""
    if n not in (4, 5):
        raise PreconditionError(
            f"centralizer estimate check supports n in {{4, 5}}, got {n}")
    group = symmetric_group(n)
    subs = all_subgroups(group, bound=bound)
    ig = indexed(group)
    full = group.order
    equality_orders = []
    violations = []
    max_measure = 0
    for sub in subs:
        ms = _member_indices(ig, sub)
        measure = len(ms) * len(ig.centralizer(ms))
        max_measure = max(max_measure, measure)
        if measure > full:
            violations.append(sub.order)
        elif measure == full:
            equality_orders.append(sub.order)
    equality_orders.sort()
    passed = not violations and equality_orders == [1, full]
    return CentralizerEstimateReport(
        n=n,
        group_order=full,
        subgroup_count=len(subs),
        max_measure=max_measure,
        equality_orders=equality_orders,
        violations=violations,
        passed=passed,
    )
