"""Regular subgroups of a permutation group, up to conjugacy.

A subgroup U of G is regular when it is sharply transitive: exactly one
element of U sends point 0 to each point.  Every G-conjugate of such a U
is a conjugate by G_0, the stabilizer of point 0: U is transitive, so
G = G_0 U, and x u U u^-1 x^-1 = x U x^-1.  `regular_representatives`
searches for at least one U in each of those classes, on image tuples
and with no multiplication table; `regular_conjugates` expands the
classes a caller keeps into tagged groups.  `regular_subgroups` lists
every class, and `gamma.commuting_regular_pairs` only those with a
partner.  `is_regular` checks one subgroup directly.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from .errors import NotASubgroupError, PreconditionError
from .perm import PermutationGroup, _right_mul, _tagged, saturate

REGULAR_MAX_DEGREE = 24  # largest degree regular_representatives searches
REGULAR_MAX_ORDER = 1500  # largest order regular_representatives searches


def _one_cycle_length(images: tuple[int, ...]) -> bool:
    """Whether every cycle of the permutation has the same length."""
    seen = bytearray(len(images))
    length = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        x, n = start, 0
        while not seen[x]:
            seen[x] = 1
            x = images[x]
            n += 1
        if length and n != length:
            return False
        length = n
    return True


def _close_regular(current: frozenset, steps: list) -> Optional[frozenset]:
    """<current, extra> for current = <gens>, where steps are the right
    multiplications w -> w * g by gens and, last, by extra; None as soon
    as two elements send point 0 to the same point.

    A breadth-first closure of its own rather than `perm.saturate`, for
    two reasons: it stops in the middle of the closure as soon as two
    elements land in one fiber, where most branches of the search end,
    and it seeds only from current * extra, since the products of current
    by gens stay in current."""
    known = set(current)
    covered = {w[0] for w in current}
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


def _conjugators(elements: Iterable[tuple[int, ...]]) -> list[tuple]:
    """(x, w -> w * x^-1) for each x: x u x^-1 is x_inv(_right_mul(u)(x))."""
    return [(x, _right_mul(tuple(sorted(range(len(x)), key=x.__getitem__))))
            for x in elements]


def regular_representatives(group: PermutationGroup) -> list[frozenset[tuple[int, ...]]]:
    """Regular subgroups of G, as sets of image tuples, at least one in
    every class of regular subgroups under conjugation by G_0, the
    stabilizer of point 0.  G may have degree at most REGULAR_MAX_DEGREE
    and order at most REGULAR_MAX_ORDER.

    Conjugating by G_0 reaches every G-conjugate: a regular U is
    transitive, so G = G_0 U, and x u U u^-1 x^-1 = x U x^-1.

    A regular subgroup U has exactly one element sending point 0 to each
    point, so U picks one element from each fiber {g in G : g(0) = x}.
    The search branches over the least uncovered point and its fiber in
    sorted order, and closes breadth-first on image tuples over the
    choices so far plus the new one, pruning as soon as one fiber is hit
    twice.  Every element reached lies in <current, extra>, so no choice
    inside a regular subgroup is pruned, and the subgroups below a choice
    are all those holding it.

    The first choice, in fiber 1, is pruned by conjugation: one element
    per orbit of S = {s in G_0 : s(1) = 1}, which maps fiber 1 to itself.
    The one element u of U in fiber 1 has a representative s u s^-1, and
    s U s^-1 holds it, so every G_0-class keeps a member below a choice
    tried.  The deeper levels try every choice; pruning them too tried
    fewer closures on Gamma(S_4) but took longer.

    Only semiregular elements are branched on: those whose cycles all
    have one length.  In a regular U, a non-identity u fixes no point
    (u and the identity would both send it to itself), and neither does
    u^k for 0 < k < ord(u), so every cycle of u has length ord(u).  On
    Gamma(S_4) that keeps 10 to 24 of the 48 elements of each fiber.  A
    fiber is filtered when the search first reaches it, which on
    Gamma(S_4) happens for 8 of the 23.
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
    trivial = frozenset({tuple(range(m))})
    if m == 1:
        return [trivial]
    results: list[frozenset[tuple[int, ...]]] = []
    branches: dict[int, list] = {}

    def extend(current: frozenset, steps: list) -> None:
        # steps: right multiplications by the choices so far
        if len(current) == m:
            results.append(current)
            return
        covered = {w[0] for w in current}
        x = min(p for p in range(m) if p not in covered)
        if x not in branches:  # few fibers are reached: filter on first visit
            branches[x] = [_right_mul(g) for g in fibers[x]
                           if _one_cycle_length(g)]
        for g_mul in branches[x]:
            more = steps + [g_mul]
            closed = _close_regular(current, more)
            if closed is not None:
                extend(closed, more)

    # fiber 0 is never branched on: the identity covers point 0
    stabilizer = _conjugators(s for s in fibers[0] if s[1] == 1)
    tried: set[tuple[int, ...]] = set()
    for g in fibers[1]:
        if g not in tried and _one_cycle_length(g):
            g_mul = _right_mul(g)
            tried.update(s_inv(g_mul(s)) for s, s_inv in stabilizer)
            closed = _close_regular(trivial, [g_mul])
            if closed is not None:
                extend(closed, [g_mul])
    return results


def _forced_choices(members: Collection[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The fiber choices that find the regular group with these members:
    its element sending 0 to the least point outside the orbit of 0 under
    the choices so far, until that orbit is every point.  The orbit of 0
    under <choices> is the set of w(0) for w in <choices>, the points the
    search's closure covers."""
    in_fiber = {w[0]: w for w in members}
    orbit, choices = {0}, []
    while len(orbit) < len(members):
        choices.append(in_fiber[min(in_fiber.keys() - orbit)])
        orbit = saturate([0], [g.__getitem__ for g in choices])
    return choices


def regular_conjugates(group: PermutationGroup,
                       representatives: Iterable[frozenset[tuple[int, ...]]]
                       ) -> list[PermutationGroup]:
    """Every conjugate x U x^-1, x in G_0, of the given regular subgroups
    of G, once each, sorted by element list and tagged with the fiber
    choices the unpruned search would find it by, which generate it."""
    stabilizer = _conjugators(p.images for p in group.elements
                              if p.images[0] == 0)
    found: set[frozenset[tuple[int, ...]]] = set()
    for members in representatives:
        if members not in found:  # else its class is listed
            muls = [_right_mul(u) for u in members]
            found.update(frozenset(x_inv(u_mul(x)) for u_mul in muls)
                         for x, x_inv in stabilizer)
    elements, index = group.elements, group.index
    return [PermutationGroup(group.degree, [elements[index[w]] for w in members],
                             _tagged(elements[index[g]]
                                     for g in _forced_choices(members)))
            for members in sorted(tuple(sorted(u)) for u in found)]


def regular_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """All sharply transitive (regular) subgroups of G, sorted by element
    list, each tagged with its fiber choices, which generate it.

    They are the G_0-conjugates of `regular_representatives`, the way
    `perm.all_subgroups` lists every member of `perm.subgroup_classes`: a
    regular U is transitive, so G = G_0 U and each G-conjugate of U is a
    G_0-conjugate, and the search meets every class.  No package code
    calls it; `commuting_regular_pairs` expands only the classes that
    have a partner."""
    return regular_conjugates(group, regular_representatives(group))


def is_regular(group: PermutationGroup, sub: PermutationGroup, base: int = 0) -> bool:
    """Sharp transitivity check: |U| equals the degree and the images of
    `base` under U hit every point exactly once."""
    if not sub.is_subgroup_of(group):
        raise NotASubgroupError("is_regular: not a subgroup")
    hits = {p(base) for p in sub.elements}
    return sub.order == group.degree and len(hits) == group.degree
