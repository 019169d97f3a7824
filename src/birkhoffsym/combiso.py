"""Combinatorial automorphisms and equivalence of polytope incidences.

A combinatorial symmetry of a polytope is a vertex bijection that maps
faces onto faces; since every face is an intersection of facets and the
facets are exactly the maximal proper faces, it is determined by mapping
facet tight-sets onto facet tight-sets.  This module searches for such
bijections directly on an IncidenceStructure: the tight sets as the
hull checked them, and the facets through each vertex.

One backtracking engine serves both problems.  `_search` finds the first
vertex bijection P -> Q that extends a fixed prefix of assignments.
Vertices of P are assigned images in Q one at a time, in one static
order; for every P facet a bitmask of still-compatible Q facets is
maintained, and a branch dies as soon as some facet has no compatible
image.  A completed assignment pi forces the facet bijection: the image of
each facet row is exactly one equal-size Q row (exactness holds because
the mask constraints encode both incidence and non-incidence for every
assigned vertex).

The nf masks are packed into one integer, the state.  P facet f owns the
field of bits f(nf+1) .. f(nf+1)+nf: its low nf bits are f's mask of Q
facets and its top bit is a guard, 0 in every state.  Let ONES hold a 1
at the bottom of each field, LOW = ONES (2^nf - 1) fill every mask and
GUARD = ONES << nf set every guard.  Assigning v -> w keeps, in the field
of a facet through v, the Q facets through w, and in every other field
the Q facets not through w: one AND of the state with
with_w[w] ^ outs[v], where with_w[w] is w's Q-facet mask times ONES, so
repeated in every field, and outs[v] fills the fields of the facets not
through v (XOR with a full field complements it).  The branch lives iff
no field is empty, iff (state + LOW) & GUARD == GUARD: a field x is at
most 2^nf - 1, so x + 2^nf - 1 < 2^(nf+1) stays inside its own field and
carries into its guard bit exactly when x > 0.

The search is complete: it only ever discards a branch whose mask
constraint is violated, and any valid (pi, psi) pair keeps psi(f) in
facet f's mask by definition of incidence preservation.  Iterated color
refinement (vertex and facet colors by mutual multiset signatures) cuts
the candidate lists before the search starts; refinement only partitions
by isomorphism invariants, so no valid image is ever excluded.  It ends
at R(S), the coarsest equitable partition finer than its start S.  Each
round only splits classes, so a round that keeps the number of vertex
classes keeps the vertex partition, and with it the facet partition, as
the facets were split by these same vertex classes in that round.

`comb_equivalent` runs the engine once from the empty prefix.
`comb_automorphisms` runs it as a stabilizer chain (McKay & Piperno,
Practical Graph Isomorphism II, 2014; Seress, Cambridge Tracts in
Mathematics 152, 2003, ch. 4).  Along the static order b_1, b_2, ...,
level k asks for the basic orbit of b_k under G_k, the automorphisms
fixing b_1..b_{k-1}: each candidate w of b_k is either skipped, because the
witnesses found at this level already carry b_k to w, or tested by one
witness search from the prefix b_1 -> b_1, ..., b_{k-1} -> b_{k-1},
b_k -> w.  The walk stops once color refinement with b_1..b_k
individualized leaves every vertex in a cell of its own: then G_{k+1} is
trivial.  Level k+1 refines from X, level k's stable colors R(S_k) with
b_k given a color of its own, rather than from its seeds S_{k+1}, in
which b_1..b_k each have a color of their own and all other vertices
share one.  Both end at the same partition (<= reads "finer than"):
X <= S_{k+1}, as R(S_k) <= S_k; and R(S_{k+1}) <= X, as R is monotone,
so R(S_{k+1}) <= R(S_k), and R(S_{k+1}) individualizes b_k.  Hence
R(S_{k+1}) = R(R(S_{k+1})) <= R(X) <= R(S_{k+1}).

The pruning is lossless.  A skipped w is the image of b_k under a product
of known witnesses, all in G_k, so w lies in the orbit; a tested w lies in
it exactly when a witness exists, since the search is complete; and a
vertex outside b_k's refined cell lies in no orbit of G_k, because
refinement with b_1..b_{k-1} individualized is invariant under G_k.  So
each basic orbit is exact, the order is the product of the basic orbit
lengths by the orbit-stabilizer theorem, and the witnesses form a strong
generating set: those found at levels k and beyond generate a subgroup of
G_k that contains G_{k+1} (by induction from the trivial bottom) and
moves b_k over all of its orbit, so it is G_k itself.  No Schreier-Sims
step is needed.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError
from .hull import IncidenceStructure
from .perm import saturate


def _refined_colors(incs: list[IncidenceStructure],
                    vcolors: Optional[list[list[int]]] = None,
                    fcolors: Optional[list[list[int]]] = None
                    ) -> tuple[list[list[int]], list[list[int]]]:
    """Joint iterated refinement over several incidence structures, to the
    coarsest equitable partition finer than the start.

    Returns the vertex and the facet colors, one list per structure each;
    colors are comparable across structures because each round shares
    one signature table.  The start is `vcolors` (all equal when omitted)
    and `fcolors` (the tight-set sizes when omitted).
    """
    all_rows = [inc.tight_sets for inc in incs]
    if vcolors is None:
        vcolors = [[0] * inc.n_vertices for inc in incs]
    if fcolors is None:
        fcolors = [[len(row) for row in rows] for rows in all_rows]
    classes = len(set().union(*vcolors))
    while True:
        table: dict = {}
        fcolors = [[table.setdefault(
                        (c, tuple(sorted(map(vc.__getitem__, row)))),
                        len(table))
                    for c, row in zip(fc, rows)]
                   for fc, vc, rows in zip(fcolors, vcolors, all_rows)]
        table2: dict = {}
        vcolors = [[table2.setdefault(
                        (c, tuple(sorted(map(fc.__getitem__, facets)))),
                        len(table2))
                    for c, facets in zip(vc, inc.vertex_facets)]
                   for vc, fc, inc in zip(vcolors, fcolors, incs)]
        if classes == len(table2):
            return vcolors, fcolors
        classes = len(table2)


class _Plan(NamedTuple):
    """Static data of the searches P -> Q: the assignment order, the
    candidate images of each P vertex, and the packed masks of the module
    docstring: `outs[v]` fills the fields of the P facets not through v,
    `with_w[w]` repeats in every field the Q facets through w, and
    `init_cand` is the state before any assignment."""
    order: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    outs: tuple[int, ...]
    with_w: tuple[int, ...]
    init_cand: int
    low: int
    guard: int


def _plan(inc_p: IncidenceStructure, inc_q: IncidenceStructure,
          colors_p: list[int], colors_q: list[int]) -> _Plan:
    """The search plan from the refined vertex colors of P and Q."""
    rows_p, vfac_p = inc_p.tight_sets, inc_p.vertex_facets
    nf = len(rows_p)
    width, full = nf + 1, (1 << nf) - 1
    ones = sum(1 << fi * width for fi in range(nf))
    low = ones * full

    size_mask: dict[int, int] = {}
    for fi, row in enumerate(inc_q.tight_sets):
        size_mask[len(row)] = size_mask.get(len(row), 0) | 1 << fi
    init_cand = sum(size_mask[len(row)] << fi * width
                    for fi, row in enumerate(rows_p))

    cells: dict[int, tuple[int, ...]] = {}
    for w, c in enumerate(colors_q):
        cells[c] = cells.get(c, ()) + (w,)

    # static assignment order: grow along shared facets for early pruning,
    # the key (-gain, class size, v) with gain the number of touched
    # facets through v, raised as each facet is first touched
    class_size = Counter(colors_p)
    keys = [(0, class_size[c], v) for v, c in enumerate(colors_p)]
    touched = [False] * nf
    order: list[int] = []
    for _ in range(len(keys)):
        v = min(keys)[2]
        order.append(v)
        keys[v] = (1, 0, v)  # placed: above every unplaced key
        for fi in vfac_p[v]:
            if not touched[fi]:
                touched[fi] = True
                for u in rows_p[fi]:
                    minus_gain, size, _ = keys[u]
                    if minus_gain < 1:  # u is not placed
                        keys[u] = (minus_gain - 1, size, u)

    return _Plan(
        order=tuple(order),
        candidates=tuple(cells.get(c, ()) for c in colors_p),
        outs=tuple(low ^ sum(full << fi * width for fi in facets)
                   for facets in vfac_p),
        with_w=tuple(sum(1 << fi for fi in facets) * ones
                     for facets in inc_q.vertex_facets),
        init_cand=init_cand,
        low=low,
        guard=ones << nf,
    )


def _search(plan: _Plan, prefix: Sequence[int] = ()) -> Optional[tuple[int, ...]]:
    """The first vertex bijection P -> Q that sends order[i] to prefix[i]
    for every i < len(prefix), or None when there is none."""
    order, candidates, outs, with_w, _, low, guard = plan
    n = len(order)
    steps = [candidates[v] for v in order]
    steps[:len(prefix)] = [(w,) for w in prefix]
    image = [-1] * n
    used = [False] * n

    def recurse(depth: int, cand: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        out = outs[v]
        for w in steps[depth]:
            if used[w]:
                continue
            nxt = cand & (with_w[w] ^ out)
            if (nxt + low) & guard != guard:
                continue  # some facet field is empty
            image[v] = w
            used[w] = True
            if recurse(depth + 1, nxt):
                return True
            used[w] = False
        return False

    return tuple(image) if recurse(0, plan.init_cand) else None


class Automorphisms(NamedTuple):
    """What the search proves of the automorphism group: basic orbit
    lengths and strong generators (membership is `preserved_by`)."""
    orbit_lengths: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.orbit_lengths)


def comb_automorphisms(inc: IncidenceStructure) -> Automorphisms:
    """The group of all vertex permutations preserving the incidence, as
    basic orbit lengths and strong generators (see the module docstring
    for why the orbit pruning loses nothing).  Raises InvariantError if a
    strong generator found by the search does not preserve the
    incidence."""
    n = inc.n_vertices
    (colors,), (fcolors,) = _refined_colors([inc])
    plan = _plan(inc, inc, colors, colors)
    order = plan.order
    orbit_lengths: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    for k, b in enumerate(order):
        if len(set(colors)) == n:
            break  # G_k is trivial
        cell = [w for w in range(n) if colors[w] == colors[b]]
        if len(cell) > 1:
            level: list[tuple[int, ...]] = []
            orbit = {b}
            for w in cell:
                if w in orbit:
                    continue
                witness = _search(plan, order[:k] + (w,))
                if witness is not None:
                    level.append(witness)
                    orbit = saturate([b], [g.__getitem__ for g in level])
            orbit_lengths.append(len(orbit))
            witnesses.extend(level)
        colors[b] = n  # individualize b_k: no class has label n
        (colors,), (fcolors,) = _refined_colors([inc], [colors], [fcolors])
    if not all(map(inc.preserved_by, witnesses)):
        raise InvariantError("a generator does not preserve the incidence")
    return Automorphisms(tuple(orbit_lengths), tuple(witnesses))


def comb_equivalent(inc_p: IncidenceStructure,
                    inc_q: IncidenceStructure) -> Optional[tuple[int, ...]]:
    """A vertex bijection P -> Q extending to a facet bijection, or None."""
    if inc_p.n_vertices != inc_q.n_vertices or (
            sorted(map(len, inc_p.tight_sets))
            != sorted(map(len, inc_q.tight_sets))):
        return None
    (colors_p, colors_q), _ = _refined_colors([inc_p, inc_q])
    if Counter(colors_p) != Counter(colors_q):
        return None
    return _search(_plan(inc_p, inc_q, colors_p, colors_q))
