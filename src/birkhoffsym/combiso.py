"""Combinatorial automorphisms and equivalence of polytope incidences.

A combinatorial symmetry of a polytope is a vertex bijection that maps
faces onto faces; since every face is an intersection of facets and the
facets are exactly the maximal proper faces, it is determined by mapping
facet tight-sets onto facet tight-sets.  This module searches for such
bijections directly on IncidenceStructure data.

One backtracking engine serves both problems (P = Q gives automorphisms).
Vertices of P are assigned images in Q one at a time; for every P facet a
bitmask of still-compatible Q facets is maintained, and a branch dies as
soon as some facet has no compatible image.  A completed assignment pi
forces the facet bijection: the image of each facet row is exactly one
equal-size Q row (exactness holds because the mask constraints encode
both incidence and non-incidence for every assigned vertex).

The search is complete: it only ever discards a branch whose mask
constraint is violated, and any valid (pi, psi) pair keeps psi(f) in
facet f's mask by definition of incidence preservation.  Iterated color
refinement (vertex and facet colors by mutual multiset signatures) cuts
the candidate lists before the search starts; refinement only partitions
by isomorphism invariants, so no valid image is ever excluded.

Results are vertex maps only; the facet bijection each one forces is
implied by it and not returned.
"""

from __future__ import annotations

from typing import Optional

from .hull import IncidenceStructure
from .perm import Permutation, PermutationGroup


def _refined_colors(incs: list[IncidenceStructure]) -> list[list[int]]:
    """Joint iterated refinement over several incidence structures.

    Returns one vertex color list per structure; colors are comparable
    across structures because each round shares one signature table.
    """
    all_rows = [inc.tight_sets() for inc in incs]
    all_vfac = []
    for inc, rows in zip(incs, all_rows):
        vf = [[] for _ in range(inc.n_vertices)]
        for fi, row in enumerate(rows):
            for v in row:
                vf[v].append(fi)
        all_vfac.append(vf)
    vcolors = [[0] * inc.n_vertices for inc in incs]
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
            for v in range(inc.n_vertices):
                key = (vcolors[si][v],
                       tuple(sorted(new_f[si][fi] for fi in all_vfac[si][v])))
                cur.append(table2.setdefault(key, len(table2)))
            new_v.append(cur)
        if new_v == vcolors and new_f == fcolors:
            return vcolors
        vcolors, fcolors = new_v, new_f


def _search(inc_p: IncidenceStructure, inc_q: IncidenceStructure,
            find_all: bool) -> list[tuple[int, ...]]:
    np_, nq = inc_p.n_vertices, inc_q.n_vertices
    if np_ != nq or inc_p.n_facets != inc_q.n_facets:
        return []
    rows_p = inc_p.tight_sets()
    rows_q = inc_q.tight_sets()
    if len(set(rows_p)) != len(rows_p) or len(set(rows_q)) != len(rows_q):
        return []
    if sorted(len(r) for r in rows_p) != sorted(len(r) for r in rows_q):
        return []
    colors_p, colors_q = _refined_colors([inc_p, inc_q])
    from collections import Counter
    if Counter(colors_p) != Counter(colors_q):
        return []

    nf = inc_p.n_facets
    full_mask = (1 << nf) - 1
    qrows_with = [0] * nq
    for fi, row in enumerate(rows_q):
        for w in row:
            qrows_with[w] |= 1 << fi
    qrows_without = [full_mask ^ m for m in qrows_with]

    size_mask = {}
    for fi, row in enumerate(rows_q):
        size_mask.setdefault(len(row), 0)
        size_mask[len(row)] |= 1 << fi
    init_cand = [size_mask.get(len(row), 0) for row in rows_p]
    if not all(init_cand) and nf > 0:
        return []

    # static assignment order: grow along shared facets for early pruning
    order: list[int] = []
    placed = [False] * np_
    vfac_p = [[] for _ in range(np_)]
    for fi, row in enumerate(rows_p):
        for v in row:
            vfac_p[v].append(fi)
    color_class_size = {c: colors_p.count(c) for c in set(colors_p)}
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

    candidates = [[w for w in range(nq) if colors_q[w] == colors_p[v]]
                  for v in range(np_)]
    results: list[tuple[int, ...]] = []
    image = [-1] * np_
    used = [False] * nq

    def recurse(depth: int, cand: list[int]) -> bool:
        if depth == np_:
            results.append(tuple(image))
            return not find_all
        v = order[depth]
        for w in candidates[v]:
            if used[w]:
                continue
            nxt = list(cand)
            ok = True
            for fi in range(nf):
                nxt[fi] &= (qrows_with[w] if fi in vfac_set[v]
                            else qrows_without[w])
                if not nxt[fi]:
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            done = recurse(depth + 1, nxt)
            used[w] = False
            image[v] = -1
            if done:
                return True
        return False

    vfac_set = [set(fs) for fs in vfac_p]
    recurse(0, init_cand)
    return results


def comb_automorphisms(inc: IncidenceStructure) -> PermutationGroup:
    """The group of all vertex permutations preserving the incidence, as
    its full element list.  Raises on duplicate facet rows."""
    rows = inc.tight_sets()
    if len(set(rows)) != len(rows):
        raise ValueError("not a polytope incidence")
    maps = _search(inc, inc, find_all=True)
    group = PermutationGroup(inc.n_vertices, [Permutation(m) for m in maps])
    if group.order != len(maps):
        raise AssertionError("automorphism set is not closed")
    return group


def comb_equivalent(inc_p: IncidenceStructure,
                    inc_q: IncidenceStructure) -> Optional[tuple[int, ...]]:
    """A vertex bijection P -> Q extending to a facet bijection, or None."""
    maps = _search(inc_p, inc_q, find_all=False)
    return maps[0] if maps else None
