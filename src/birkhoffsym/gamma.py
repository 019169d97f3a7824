"""The translation-and-inversion group Gamma(G) inside Sym(G).

For a finite group G acting on itself, the maps

    lambda_g(x) = g*x        (left translation)
    rho_g(x)    = x*g^-1     (right translation)
    iota(x)     = x^-1       (inversion)

generate a subgroup Gamma(G) of Sym(G).  Everything here works with G's
elements identified with their positions in the canonical sorted element
list, so Gamma(G) is an ordinary permutation group on |G| points; the
three maps come from `perm.regular_action`.  `build_gamma` returns
Gamma(G) itself, a `PermutationGroup` tagged with its generators, for
|G| up to MAX_GAMMA_BASE = 120 (S_5): `perm.closure` grows it one whole
coset at a time.  Gamma acts on |G| points, so the same bound holds for
the regular-pair search, whose choices are closed by cosets too.

Facts verified computationally by this module:

* |Gamma(G)| = 2|G|^2 / |Z(G)| unless G is an elementary abelian 2-group
  (where iota and the lambda/rho distinction collapse).
* The commuting regular subgroup pairs of Gamma(G): each regular U can
  commute only with its centralizer in Sym(G), which is regular, so one
  search over fiber choices, pruned by the centralizer in Gamma of the
  choices so far, finds exactly the U whose centralizer lies in Gamma,
  and their partners; for G = S_n with a two-element Chermak-Delgado
  lattice the only pair is {lambda(G), rho(G)}.
* The normalizer of Gamma(G) in the full symmetric group equals
  Aut(G) * Gamma(G) (brute force, small G only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import InvariantError, PreconditionError
from .perm import (Permutation, PermutationGroup, _right_mul, _tagged,
                   closure, regular_action, saturate)

MAX_GAMMA_BASE = 120  # largest |G| whose Gamma(G) is built
MAX_NORMALIZER_BASE = 6  # largest |G| for the brute-force normalizer


def build_gamma(group: PermutationGroup) -> PermutationGroup:
    """Gamma(G) with tagged generators lambda[g], rho[g] (in pairs), then
    inv, g running over G's generators; G may have order at most
    MAX_GAMMA_BASE."""
    if group.order > MAX_GAMMA_BASE:
        raise PreconditionError(
            f"group of order {group.order} exceeds bound {MAX_GAMMA_BASE}")
    lams, rhos, iota = regular_action(group)
    tagged = []
    for tag, g in group.generators:
        i = group.index[g.images]
        tagged += [(f"lambda[{tag}]", lams[i]), (f"rho[{tag}]", rhos[i])]
    tagged.append(("inv", iota))
    return closure([p for _, p in tagged], tags=[tag for tag, _ in tagged])


def is_elementary_abelian_2(group: PermutationGroup) -> bool:
    return all((g * g).is_identity() for g in group.elements)


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

    The kernel check: lambda_z rho_z is the identity map exactly for
    central z (x -> z x z^-1 = x for all x iff z central).  The centre
    Z(G) is the set of positions commuting with G's generators.  For an
    elementary abelian 2-group the order formula does not apply; the
    report carries the flag and the actual order instead of a verdict.
    """
    gamma = build_gamma(group)
    center = group.centralizer_indices(
        group.index[g.images] for g in group.generator_perms())
    ea2 = is_elementary_abelian_2(group)
    formula = 2 * group.order ** 2 // len(center)
    lams, rhos, _ = regular_action(group)
    kernel_pass = all((lam * rho).is_identity() == (i in center)
                      for i, (lam, rho) in enumerate(zip(lams, rhos)))
    actual = gamma.order
    if ea2:
        return WreathReport(group.order, len(center), True, formula,
                            None, actual, kernel_pass, kernel_pass)
    return WreathReport(group.order, len(center), False, formula, formula,
                        actual, kernel_pass,
                        kernel_pass and actual == formula)


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
        fibers[p.images[0]].append(p.images)
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
                           if _one_cycle_length(g)]
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
    exactly when U is abelian.  Each group is tagged with the fiber
    choices that found it.

    No pair is tested.  A regular V commuting with a regular U lies in
    C_Sym(U), which is regular of the same order, so V = C_Sym(U): U has
    a partner exactly when C_Sym(U) lies in Gamma.  The search finds
    those U and their partners and no other regular subgroup; a partner
    missing from its list is a broken certificate (InvariantError).
    """
    found = sorted(_partnered_regular_subgroups(gamma), key=itemgetter(0))
    position = {members: a for a, (members, _, _) in enumerate(found)}
    elements, index = gamma.elements, gamma.index
    groups = [PermutationGroup(gamma.degree,
                               [elements[index[w]] for w in members],
                               _tagged(elements[index[g]] for g in choices))
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


def automorphisms(group: PermutationGroup) -> list[Permutation]:
    """Aut(G) as permutations of the element labelling, by brute force
    over bijections fixing the identity and preserving the multiplication
    table.  Exponential; meant for |G| <= 6 where it is its own proof.
    """
    n = group.order
    table = group.table
    others = range(1, n)  # the identity sits at 0
    auts = []
    order_of = {}
    for i in range(n):
        k, j = 1, i
        while j != 0:
            j = table[j][i]
            k += 1
        order_of[i] = k
    for image in itertools.permutations(others):
        alpha = [0] * n
        for src, dst in zip(others, image):
            alpha[src] = dst
        if any(order_of[src] != order_of[alpha[src]] for src in others):
            continue
        if all(alpha[table[a][b]] == table[alpha[a]][alpha[b]]
               for a in range(n) for b in range(n)):
            auts.append(Permutation(alpha))
    return auts


@dataclass
class NormalizerReport:
    group_order: int
    gamma_order: int
    normalizer_order: int
    aut_order: int
    aut_gamma_order: int
    passed: bool


def normalizer_in_full_symmetric(group: PermutationGroup) -> NormalizerReport:
    """Exhaustively compute N_{Sym(G)}(Gamma(G)) and compare with
    Aut(G)*Gamma(G) as sets of permutations of the labelling, for |G| at
    most MAX_NORMALIZER_BASE.

    Conjugating the tagged generators into Gamma suffices for membership:
    pi <gens> pi^-1 = <pi gens pi^-1> is a subgroup of Gamma of equal
    order, hence equal to it.
    """
    if group.order > MAX_NORMALIZER_BASE:
        raise PreconditionError(f"group of order {group.order} exceeds "
                                f"normalizer bound {MAX_NORMALIZER_BASE}")
    gamma = build_gamma(group)
    m = group.order
    gens = [p.images for p in gamma.generator_perms()]
    normalizer = []
    for cand in itertools.permutations(range(m)):
        inv = [0] * m
        for i, x in enumerate(cand):
            inv[x] = i
        if all(tuple(cand[g[inv[x]]] for x in range(m)) in gamma.index
               for g in gens):
            normalizer.append(cand)
    auts = automorphisms(group)
    product = {(a * g).images for a in auts for g in gamma.elements}
    norm_set = set(normalizer)
    return NormalizerReport(
        group_order=group.order,
        gamma_order=gamma.order,
        normalizer_order=len(norm_set),
        aut_order=len(auts),
        aut_gamma_order=len(product),
        passed=norm_set == product,
    )
