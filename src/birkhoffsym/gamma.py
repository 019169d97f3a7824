"""The translation-and-inversion group Gamma(G) inside Sym(G).

For a finite group G acting on itself, the maps

    lambda_g(x) = g*x        (left translation)
    rho_g(x)    = x*g^-1     (right translation)
    iota(x)     = x^-1       (inversion)

generate a subgroup Gamma(G) of Sym(G).  Everything here works with G's
elements identified with their positions in the canonical sorted element
list, so Gamma(G) is an ordinary permutation group on |G| points.
`build_gamma` returns Gamma(G) itself, a `PermutationGroup` generated by
lambda_g and rho_g for G's generators g and by iota, read off G's table,
for |G| up to MAX_GAMMA_BASE = 120 (S_5): `perm.closure` grows it one
whole coset at a time.  Gamma acts on |G| points, so the same bound holds
for the regular-pair search and the normalizer.

Facts verified computationally by this module:

* |Gamma(G)| = 2|G|^2 / |Z(G)| unless G is an elementary abelian 2-group
  (where iota and the lambda/rho distinction collapse).
* The commuting regular subgroup pairs of Gamma(G): each regular U can
  commute only with its centralizer in Sym(G), which is regular, so one
  search over fiber choices, pruned by the centralizer in Gamma of the
  choices so far, finds exactly the U whose centralizer lies in Gamma,
  and their partners; for G = S_n with a two-element Chermak-Delgado
  lattice the only pair is {lambda(G), rho(G)}.
* N = N_Sym(G)(Gamma(G)) against Aut(G) Gamma(G): they differ for D_4
  (|N| = 384, |Aut(G) Gamma| = 128), the smallest case, and for C_2 x D_4
  and S_3 x S_3; they agree for S_3, Q_8, S_4 and S_5.
  Gamma is transitive, so N = Gamma N_e, N_e fixing the identity e.
  For pi in N_e, U = pi lambda(G) pi^-1 is regular with centralizer
  pi rho(G) pi^-1 in Gamma, so the regular-pair search finds U, and
  pi(x) = phi(x)(e) for phi: x -> pi lambda_x pi^-1 in Iso(G, U) =
  phi_U Aut(G).  So the maps of N_e conjugating lambda(G) to U are
  pi_U Aut(G), pi_U(x) = phi_U(x)(e), or none of them: Aut(G) lies in
  N_e, a group, so pi_U alpha normalizes Gamma iff pi_U does.  One test
  per partnered U counts |N_e| = (passing U) |Aut(G)|.  Likewise
  Gamma_e = Inn(G) <iota>, so the stabilizer of e in Aut(G) Gamma is
  Aut(G) <iota>, of order |Aut(G)| when G is abelian (iota is then an
  automorphism) and 2 |Aut(G)| otherwise; it lies in N_e, so they are
  equal iff their orders are.  |Aut(G)| is counted by a stabilizer
  chain on G's generators, never listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InvariantError, PreconditionError
from .perm import (Permutation, PermutationGroup, _cycles, _inverse,
                   _right_mul, _semiregular_order, closure, saturate)

MAX_GAMMA_BASE = 120  # largest |G| whose Gamma(G) is built


def build_gamma(group: PermutationGroup) -> PermutationGroup:
    """Gamma(G) with generators lambda_g, rho_g (in pairs), then iota, g
    running over G's generators; G may have order at most
    MAX_GAMMA_BASE.  lambda_g is table row g, rho_g the table column at
    g^-1."""
    if group.order > MAX_GAMMA_BASE:
        raise PreconditionError(
            f"group of order {group.order} exceeds bound {MAX_GAMMA_BASE}")
    table, inv = group.table, group.inv
    gens = []
    for g in (group.index[s.images] for s in group.generators):
        gens += [Permutation(table[g]),
                 Permutation(row[inv[g]] for row in table)]
    return closure(gens + [Permutation(inv)])


def is_elementary_abelian_2(group: PermutationGroup) -> bool:
    """Whether g^2 = e for every g: the diagonal of G's table is 0."""
    return all(row[g] == 0 for g, row in enumerate(group.table))


@dataclass
class WreathReport:
    group_order: int
    center_order: int
    elementary_abelian_2: bool
    formula_order: int
    expected_order: Optional[int]
    actual_order: int
    kernel_pass: bool
    passed: bool


def verify_wreath_quotient(group: PermutationGroup) -> WreathReport:
    """Check |Gamma(G)| = 2|G|^2/|Z(G)| and the kernel description.

    The kernel check: lambda_z rho_z is the identity map, z x z^-1 = x
    for all x, that is table row z equal to column z, exactly for z in
    the centre Z(G), the positions commuting with G's generators.  For an
    elementary abelian 2-group the order formula does not apply; the
    report carries the flag and the actual order instead of a verdict.
    """
    gamma = build_gamma(group)
    center = group.centralizer_indices(
        group.index[g.images] for g in group.generators)
    ea2 = is_elementary_abelian_2(group)
    formula = 2 * group.order ** 2 // len(center)
    table = group.table
    kernel_pass = all((list(column) == row) == (z in center)
                      for z, (row, column) in enumerate(zip(table, zip(*table))))
    return WreathReport(group.order, len(center), ea2, formula,
                        None if ea2 else formula, gamma.order, kernel_pass,
                        kernel_pass and (ea2 or gamma.order == formula))


def _narrow(cents: list, g: tuple[int, ...], g_mul) -> Optional[list]:
    """The (c, c_mul) of each fiber in `cents` that commute with g, or None
    at the first fiber left empty.  c g and g c must agree at point 0
    first, c(g(0)) == g(c(0)); only the c that pass this are multiplied
    out."""
    g0 = g[0]
    narrowed = []
    for cent in cents:
        cent = [(c, c_mul) for c, c_mul in cent
                if c[g0] == g[c[0]] and g_mul(c) == c_mul(g)]
        if not cent:
            return None
        narrowed.append(cent)
    return narrowed


def _partnered_regular_subgroups(gamma: PermutationGroup) -> list[tuple]:
    """(members, choices, partner) for every regular subgroup U of Gamma
    whose centralizer in Sym(Omega) lies in Gamma: U's and its partner's
    sorted image tuples, and the fiber choices that found U, which
    generate it.

    A regular U has exactly one element sending point 0 to each point, so
    U picks one element from each fiber {g in Gamma : g(0) = x}.  The
    search takes the least point its closure has not covered and tries
    the elements of that fiber in sorted order; the choice is the one
    element of U there, so each U is found once, by the same choices as
    an unpruned search.  Only semiregular elements are tried: a
    non-identity u in U fixes no point, and neither does u^k for
    0 < k < ord(u), so every cycle of u has length ord(u).  A choice g
    is closed with the group of the earlier ones, H, by right cosets H p
    (`saturate`'s coset mode), and dropped when the closure passes
    m = degree elements or hits one fiber twice.

    The prune: for each fiber 1..m-1 the search carries the elements of
    Gamma that commute with every choice so far, and drops a choice that
    leaves one of these sets empty.  The centralizer in Sym(Omega) of a
    regular group is regular (Dixon & Mortimer, Permutation Groups, 1996,
    section 4.2), so a U with a partner V in Gamma has V inside
    C_Gamma(choices) at every step, and V meets every fiber: no such U is
    pruned.  At a leaf the kept elements, with the identity, are
    C_Gamma(U); it has at least m elements and lies in the regular group
    C_Sym(U) of order m, so it is C_Sym(U), and U's partner lies in Gamma
    and is found too.
    """
    m = gamma.degree
    identity = tuple(range(m))
    fibers: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for p in gamma.elements:
        fibers[p[0]].append(p)
    branches: dict[int, list] = {}
    found = []

    def extend(current: frozenset, choices: list, steps: list,
               cents: list) -> None:
        if len(current) == m:
            partner = [identity, *(c for cent in cents for c, _ in cent)]
            found.append((tuple(sorted(current)), choices,
                          tuple(sorted(partner))))
            return
        covered = {w[0] for w in current}
        x = min(p for p in range(m) if p not in covered)
        if x not in branches:  # few fibers are reached: filter on first visit
            branches[x] = [(g, _right_mul(g)) for g in fibers[x]
                           if len(set(map(len, _cycles(g)))) == 1]
        for g, g_mul in branches[x]:
            narrowed = _narrow(cents, g, g_mul)
            if narrowed is None:
                continue
            more = steps + [g_mul]
            try:
                closed = saturate(current, more, m,
                                  lambda p: map(_right_mul(p), current))
            except PreconditionError:
                continue
            if len({w[0] for w in closed}) == len(closed):
                extend(frozenset(closed), choices + [g], more, narrowed)

    extend(frozenset({identity}), [], [],
           [[(c, _right_mul(c)) for c in fiber] for fiber in fibers[1:]])
    return found


def commuting_regular_pairs(gamma: PermutationGroup
                            ) -> list[tuple[PermutationGroup, PermutationGroup]]:
    """All unordered pairs {U, V} of regular subgroups of Gamma(G), as
    `build_gamma(G)` returns it, that centralize each other elementwise,
    sorted by U's element list, U first.  U = V is allowed and occurs
    exactly when U is abelian.  Each group is generated by the fiber
    choices that found it.

    No pair is tested.  A regular V commuting with a regular U lies in
    C_Sym(U), which is regular of the same order, so V = C_Sym(U): U has
    a partner exactly when C_Sym(U) lies in Gamma.  The search finds
    those U and their partners and no other regular subgroup; a partner
    missing from its list is a broken certificate (InvariantError).
    """
    found = sorted(_partnered_regular_subgroups(gamma), key=itemgetter(0))
    position = {members: a for a, (members, _, _) in enumerate(found)}
    groups = [PermutationGroup(members, [Permutation._unchecked(g)
                                         for g in choices])
              for members, choices, _ in found]
    pairs = []
    for a, (_, _, partner) in enumerate(found):
        b = position.get(partner)
        if b is None:
            raise InvariantError("the partner of a regular subgroup was "
                                 "not found by the search")
        if b >= a:
            pairs.append((groups[a], groups[b]))
    return pairs


def automorphism_orbits(group: PermutationGroup) -> tuple[int, ...]:
    """The basic orbit lengths of Aut(G) along G's generators s_1..s_k, so
    |Aut(G)| is their product: an automorphism is fixed by the images of
    the generators, so the automorphisms fixing all of them are trivial.

    Level i is the orbit of s_i under the automorphisms fixing
    s_1..s_{i-1}, on G's positions.  Each position t of s_i's order is
    either in the orbit of the level's witnesses so far (`saturate`), or
    tested by one witness search, `isomorphisms` onto G's own table from
    the prefix s_1..s_{i-1}, t.  So each orbit is exact, as in
    `combiso.comb_automorphisms`, and the order follows by the
    orbit-stabilizer theorem."""
    table, orders = group.table, group.orders
    gens = [group.index[g.images] for g in group.generators]
    lengths = []
    for i, s in enumerate(gens):
        witnesses, orbit = [], {s}
        for t in range(len(table)):
            if orders[t] == orders[s] and t not in orbit:
                alpha = next(group.isomorphisms(table, orders, gens[:i] + [t]),
                             None)
                if alpha is not None:
                    witnesses.append(alpha.__getitem__)
                    orbit = saturate([s], witnesses)
        lengths.append(len(orbit))
    return tuple(lengths)


def _normalizes(pi: Sequence[int], group: PermutationGroup) -> bool:
    """Whether pi conjugates each generator into the group: then
    pi <gens> pi^-1 = <pi gens pi^-1> is a subgroup of the same order,
    the group itself."""
    inverse = _inverse(pi)
    return all(_right_mul(_right_mul(inverse)(g.images))(pi) in group.index
               for g in group.generators)


@dataclass
class NormalizerReport:
    """N = N_Sym(G)(Gamma(G)) against Aut(G) Gamma(G), as orders of maps
    of G's positions.  `normalizer_order` is |N| = |G| |N_e|, N_e the
    maps of N fixing the identity; `aut_order` is |Aut(G)|;
    `aut_gamma_order` is |Aut(G) Gamma| = |G| |Aut(G) <iota>|.  `passed`:
    the two groups are equal."""
    group_order: int
    gamma_order: int
    normalizer_order: int
    aut_order: int
    aut_gamma_order: int
    passed: bool


def normalizer_in_full_symmetric(group: PermutationGroup) -> NormalizerReport:
    """N_Sym(G)(Gamma(G)) against Aut(G) Gamma(G), |G| <= MAX_GAMMA_BASE,
    by the orders of their stabilizers of e (module docstring): one
    `_normalizes` test per partnered regular subgroup U isomorphic to G,
    on pi_U.  lambda(G) and rho(G), G's table rows and columns, always
    pass; a search that misses either is a broken certificate
    (InvariantError)."""
    gamma = build_gamma(group)
    aut = prod(automorphism_orbits(group))
    passing = set()
    for members, _, _ in _partnered_regular_subgroups(gamma):
        rows = sorted(members, key=itemgetter(0))  # u with u(0) = a at a
        # phi[x] = a names u_a = phi(x), and u_a(e) = a: phi is pi_U
        phi = next(group.isomorphisms(
            rows, list(map(_semiregular_order, rows))), None)
        if phi is not None and _normalizes(phi, gamma):
            passing.add(members)
    table = group.table
    # one group when G is abelian: then Aut(G) <iota> = Aut(G)
    translations = {tuple(sorted(map(tuple, table))),
                    tuple(sorted(zip(*table)))}
    if not translations <= passing:
        raise InvariantError("lambda(G) or rho(G) was not found among the "
                             "subgroups whose map normalizes Gamma")
    m = group.order
    return NormalizerReport(m, gamma.order, m * len(passing) * aut, aut,
                            m * len(translations) * aut,
                            passing == translations)
