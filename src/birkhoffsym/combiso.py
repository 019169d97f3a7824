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

The search is complete: it only ever discards a branch whose mask
constraint is violated, and any valid (pi, psi) pair keeps psi(f) in
facet f's mask by definition of incidence preservation.  Iterated color
refinement (vertex and facet colors by mutual multiset signatures) cuts
the candidate lists before the search starts; refinement only partitions
by isomorphism invariants, so no valid image is ever excluded.

`comb_equivalent` runs the engine once from the empty prefix.
`comb_automorphisms` runs it as a stabilizer chain (McKay & Piperno,
Practical Graph Isomorphism II, 2014; Seress, Permutation Group
Algorithms, 2003, ch. 4).  Along the static order b_1, b_2, ..., level k
asks for the basic orbit of b_k under G_k, the automorphisms fixing
b_1..b_{k-1}: each candidate w of b_k is either skipped, because the
witnesses found at this level already carry b_k to w, or tested by one
witness search from the prefix b_1 -> b_1, ..., b_{k-1} -> b_{k-1},
b_k -> w.  The walk stops once color refinement with b_1..b_k
individualized leaves every vertex in a cell of its own: then G_{k+1} is
trivial.

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
from .perm import Permutation, saturate


def _refined_colors(incs: list[IncidenceStructure],
                    seeds: Optional[list[list[int]]] = None) -> list[list[int]]:
    """Joint iterated refinement over several incidence structures.

    Returns one vertex color list per structure; colors are comparable
    across structures because each round shares one signature table.
    `seeds` gives initial vertex colors (all equal when omitted).
    """
    all_rows = [inc.tight_sets for inc in incs]
    if seeds is None:
        vcolors = [[0] * inc.n_vertices for inc in incs]
    else:
        vcolors = [list(s) for s in seeds]
    fcolors = [[len(row) for row in rows] for rows in all_rows]
    while True:
        table: dict = {}
        new_f = []
        for si, rows in enumerate(all_rows):
            cur = []
            for fi, row in enumerate(rows):
                key = (fcolors[si][fi],
                       tuple(sorted(vcolors[si][v] for v in row)))
                cur.append(table.setdefault(key, len(table)))
            new_f.append(cur)
        table2: dict = {}
        new_v = []
        for si, inc in enumerate(incs):
            cur = []
            for v, facets in enumerate(inc.vertex_facets):
                key = (vcolors[si][v],
                       tuple(sorted(new_f[si][fi] for fi in facets)))
                cur.append(table2.setdefault(key, len(table2)))
            new_v.append(cur)
        if new_v == vcolors and new_f == fcolors:
            return vcolors
        vcolors, fcolors = new_v, new_f


class _Plan(NamedTuple):
    """Static data of the searches P -> Q: the assignment order, the
    candidate images of each P vertex, the facet masks each assignment
    applies, and the initial masks."""
    order: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    inside: tuple[tuple[bool, ...], ...]
    qrows_with: tuple[int, ...]
    qrows_without: tuple[int, ...]
    init_cand: tuple[int, ...]


def _plan(inc_p: IncidenceStructure,
          inc_q: IncidenceStructure) -> Optional[_Plan]:
    """The search plan, or None when an invariant already tells P and Q
    apart."""
    np_, nq = inc_p.n_vertices, inc_q.n_vertices
    if np_ != nq or inc_p.n_facets != inc_q.n_facets:
        return None
    rows_p = inc_p.tight_sets
    rows_q = inc_q.tight_sets
    if sorted(len(r) for r in rows_p) != sorted(len(r) for r in rows_q):
        return None
    colors_p, colors_q = _refined_colors([inc_p, inc_q])
    if Counter(colors_p) != Counter(colors_q):
        return None

    nf = inc_p.n_facets
    full_mask = (1 << nf) - 1
    qrows_with = [sum(1 << fi for fi in facets)
                  for facets in inc_q.vertex_facets]
    qrows_without = [full_mask ^ m for m in qrows_with]

    size_mask: dict[int, int] = {}
    for fi, row in enumerate(rows_q):
        size_mask[len(row)] = size_mask.get(len(row), 0) | 1 << fi
    init_cand = [size_mask[len(row)] for row in rows_p]

    # static assignment order: grow along shared facets for early pruning
    order: list[int] = []
    placed = [False] * np_
    vfac_p = inc_p.vertex_facets
    color_class_size = Counter(colors_p)
    facet_touched = [False] * nf
    for _ in range(np_):
        best = None
        for v in range(np_):
            if placed[v]:
                continue
            gain = sum(1 for fi in vfac_p[v] if facet_touched[fi])
            key = (-gain, color_class_size[colors_p[v]], v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        placed[v] = True
        order.append(v)
        for fi in vfac_p[v]:
            facet_touched[fi] = True

    return _Plan(
        order=tuple(order),
        candidates=tuple(tuple(w for w in range(nq) if colors_q[w] == colors_p[v])
                         for v in range(np_)),
        inside=tuple(tuple(fi in facets for fi in range(nf))
                     for facets in map(frozenset, vfac_p)),
        qrows_with=tuple(qrows_with),
        qrows_without=tuple(qrows_without),
        init_cand=tuple(init_cand),
    )


def _search(plan: _Plan, prefix: Sequence[int] = ()) -> Optional[tuple[int, ...]]:
    """The first vertex bijection P -> Q that sends order[i] to prefix[i]
    for every i < len(prefix), or None when there is none."""
    order, candidates, inside = plan.order, plan.candidates, plan.inside
    qrows_with, qrows_without = plan.qrows_with, plan.qrows_without
    n = len(order)
    image = [-1] * n
    used = [False] * n

    def assign(cand: list[int], v: int, w: int) -> Optional[list[int]]:
        qw, qwo = qrows_with[w], qrows_without[w]
        nxt = [c & (qw if hit else qwo) for c, hit in zip(cand, inside[v])]
        return nxt if all(nxt) else None

    def recurse(depth: int, cand: list[int]) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in candidates[v]:
            if used[w]:
                continue
            nxt = assign(cand, v, w)
            if nxt is None:
                continue
            image[v] = w
            used[w] = True
            if recurse(depth + 1, nxt):
                return True
            used[w] = False
            image[v] = -1
        return False

    cand = list(plan.init_cand)
    for v, w in zip(order, prefix):
        if used[w]:
            return None
        cand = assign(cand, v, w)
        if cand is None:
            return None
        image[v] = w
        used[w] = True
    return tuple(image) if recurse(len(prefix), cand) else None


class Automorphisms(NamedTuple):
    """What the search proves of the automorphism group: basic orbit
    lengths and strong generators (membership is `preserved_by`)."""
    orbit_lengths: tuple[int, ...]
    generators: tuple[Permutation, ...]

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
    plan = _plan(inc, inc)
    order = plan.order
    orbit_lengths: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    seeds = [0] * n
    for k, b in enumerate(order):
        colors = _refined_colors([inc], [seeds])[0]
        if len(set(colors)) == n:
            break  # G_k is trivial
        seeds[b] = k + 1
        cell = [w for w in range(n) if colors[w] == colors[b]]
        if len(cell) == 1:
            continue
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
    if not all(map(inc.preserved_by, witnesses)):
        raise InvariantError("a generator does not preserve the incidence")
    return Automorphisms(tuple(orbit_lengths),
                         tuple(map(Permutation, witnesses)))


def comb_equivalent(inc_p: IncidenceStructure,
                    inc_q: IncidenceStructure) -> Optional[tuple[int, ...]]:
    """A vertex bijection P -> Q extending to a facet bijection, or None."""
    plan = _plan(inc_p, inc_q)
    return None if plan is None else _search(plan)
