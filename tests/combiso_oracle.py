"""The automorphism search as it stood before its candidate state was
packed into one integer: `_refined_colors`, `_plan` and `_search` are the
list-of-masks engine, kept verbatim as a reference.  `automorphisms` and
`equivalent` drive it the way `comb_automorphisms` and `comb_equivalent`
did, each chain level refined again from the individualized seeds, so
the package's engine can be checked to return the same orbit lengths,
the same generator images and the same first witnesses.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Sequence

from birkhoffsym.hull import IncidenceStructure
from birkhoffsym.perm import saturate


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


def automorphisms(inc: IncidenceStructure
                  ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Basic orbit lengths and the witnesses found, level by level."""
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
    return tuple(orbit_lengths), witnesses


def equivalent(inc_p: IncidenceStructure,
               inc_q: IncidenceStructure) -> Optional[tuple[int, ...]]:
    """The first vertex bijection P -> Q the search finds, or None."""
    plan = _plan(inc_p, inc_q)
    return None if plan is None else _search(plan)
