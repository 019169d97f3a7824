"""Reference search for regular subgroups and commuting regular pairs.

`regular_subgroups` is the fiber search with no pruning: every element
of each fiber is tried, at every level, and every regular subgroup is
found, tagged with the fiber choices that found it.  The search in
`gamma` is the same search restricted to semiregular elements and
pruned by the centralizer of its choices, so it must find the ones with
a partner with the same tags in the same order.  `commuting_pairs` is
the pair loop: every pair of regular subgroups is tested on their
generators.  `is_regular` checks one subgroup directly.  Only sensible
up to Gamma(S_4), where the search tries 6 288 closures.
"""

from operator import itemgetter
from typing import Optional

from birkhoffsym.errors import NotASubgroupError, PreconditionError
from birkhoffsym.perm import PermutationGroup, _tagged

# The unpruned search is exponential in the degree, so it keeps a bound
# of its own: Gamma(S_4), 24 points and 1 152 elements, is its largest.
REGULAR_MAX_DEGREE = 24
REGULAR_MAX_ORDER = 1500


def regular_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """All sharply transitive (regular) subgroups of G, each tagged with
    the fiber choices that found it, which generate it.  G may have
    degree at most REGULAR_MAX_DEGREE and order at most REGULAR_MAX_ORDER.

    A regular subgroup U has exactly one element sending point 0 to each
    point, so U picks one element from each fiber {g in G : g(0) = x}.
    The search branches over the least uncovered point, its fiber in
    sorted order, and closes breadth-first on image tuples over the
    choices so far plus the new one, pruning as soon as one fiber is hit
    twice (so also past m = degree elements).  Every element reached lies
    in <current, extra>, so no choice inside a regular subgroup is pruned,
    and each is found once because all its fiber choices are forced.
    """
    m = group.degree
    if m > REGULAR_MAX_DEGREE:
        raise PreconditionError(f"degree {m} exceeds bound {REGULAR_MAX_DEGREE}")
    if group.order > REGULAR_MAX_ORDER:
        raise PreconditionError(
            f"order {group.order} exceeds bound {REGULAR_MAX_ORDER}")
    if group.order % m != 0:
        return []
    fibers: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for p in group.elements:
        fibers[p.images[0]].append(p.images)
    if any(not f for f in fibers):
        return []  # not transitive, so no transitive subgroup exists
    # w -> w * g; on degree 1 itemgetter returns an int, but the search
    # never closes there
    right_mul = {p.images: itemgetter(*p.images) for p in group.elements}
    results: list[tuple[frozenset, list]] = []

    def close_with(current: frozenset, gens: list,
                   extra: tuple[int, ...]) -> Optional[frozenset]:
        # <current, extra> with current = <gens>; None on a repeated fiber
        steps = [right_mul[g] for g in gens] + [right_mul[extra]]
        known = set(current)
        covered = {w[0] for w in current}
        # products of current by gens stay in current, so only current *
        # extra is new; every new element is multiplied by all steps
        pending = [steps[-1](w) for w in current]
        while pending:
            fresh = []
            for p in pending:
                if p not in known:
                    if p[0] in covered:
                        return None
                    covered.add(p[0])
                    known.add(p)
                    fresh.append(p)
            pending = [step(w) for w in fresh for step in steps]
        return frozenset(known)

    def extend(current: frozenset, gens: list) -> None:
        if len(current) == m:
            results.append((current, gens))
            return
        covered = {w[0] for w in current}
        x = min(p for p in range(m) if p not in covered)
        for g in fibers[x]:
            closed = close_with(current, gens, g)
            if closed is not None:
                extend(closed, gens + [g])

    extend(frozenset({tuple(range(m))}), [])
    perm_of = {p.images: p for p in group.elements}
    subs = [PermutationGroup(m, [perm_of[w] for w in members],
                             _tagged(perm_of[g] for g in gens))
            for members, gens in results]
    subs.sort(key=lambda h: tuple(p.images for p in h.elements))
    return subs


def is_regular(group: PermutationGroup, sub: PermutationGroup, base: int = 0) -> bool:
    """Sharp transitivity check: |U| equals the degree and the images of
    `base` under U hit every point exactly once."""
    if not sub.is_subgroup_of(group):
        raise NotASubgroupError("is_regular: not a subgroup")
    hits = {p(base) for p in sub.elements}
    return sub.order == group.degree and len(hits) == group.degree


def commuting_pairs(regs: list[PermutationGroup]
                    ) -> list[tuple[PermutationGroup, PermutationGroup]]:
    """Every pair regs[a], regs[b] with a <= b whose generators commute,
    in the order (a, b)."""
    # (x, w -> w * x) per generator, so x * y == y * x reads my(x) == mx(y)
    gens = [[(p.images, itemgetter(*p.images)) for p in u.generator_perms()]
            for u in regs]
    pairs = []
    for a in range(len(regs)):
        for b in range(a, len(regs)):
            if all(my(x) == mx(y) for x, mx in gens[a] for y, my in gens[b]):
                pairs.append((regs[a], regs[b]))
    return pairs
