"""The translation-and-inversion group Gamma(G) inside Sym(G).

For a finite group G acting on itself, the maps

    lambda_g(x) = g*x        (left translation)
    rho_g(x)    = x*g^-1     (right translation)
    iota(x)     = x^-1       (inversion)

generate a subgroup Gamma(G) of Sym(G).  Everything here works with G's
elements identified with their positions in the canonical sorted element
list, so Gamma(G) is an ordinary permutation group on |G| points; the
three maps come from `perm.regular_action`.  `build_gamma` returns
Gamma(G) itself, a `PermutationGroup` tagged with its generators.

Facts verified computationally by this module:

* |Gamma(G)| = 2|G|^2 / |Z(G)| unless G is an elementary abelian 2-group
  (where iota and the lambda/rho distinction collapse).
* The commuting regular subgroup pairs of Gamma(G): a complete search
  for the regular subgroups up to conjugacy, each paired with its
  centralizer in Sym(G), the only regular group it can commute with; for
  G = S_n with a two-element Chermak-Delgado lattice the only pair is
  {lambda(G), rho(G)}.
* The normalizer of Gamma(G) in the full symmetric group equals
  Aut(G) * Gamma(G) (brute force, small G only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .perm import (Permutation, PermutationGroup, centralizer, closure,
                   generating_set, regular_action)
from .regular import regular_conjugates, regular_representatives

MAX_GAMMA_BASE = 30  # largest |G| whose Gamma(G) is built
MAX_NORMALIZER_BASE = 6  # largest |G| for the brute-force normalizer


def build_gamma(group: PermutationGroup,
                max_size: int = MAX_GAMMA_BASE) -> PermutationGroup:
    """Gamma(G) with tagged generators lambda[g], rho[g] (in pairs), then
    inv, g running over G's generators (a greedy generating set of G's
    elements when G carries none)."""
    if group.order > max_size:
        raise PreconditionError(
            f"group of order {group.order} exceeds bound {max_size}")
    lams, rhos, iota = regular_action(group)
    tagged = []
    for tag, g in generating_set(group):
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
    central z (x -> z x z^-1 = x for all x iff z central).  For an
    elementary abelian 2-group the order formula does not apply; the
    report carries the flag and the actual order instead of a verdict.
    """
    gamma = build_gamma(group)
    z = centralizer(group, group)
    ea2 = is_elementary_abelian_2(group)
    formula = 2 * group.order ** 2 // z.order
    lams, rhos, _ = regular_action(group)
    kernel_pass = all((lam * rho).is_identity() == (g in z)
                      for g, lam, rho in zip(group.elements, lams, rhos))
    actual = gamma.order
    if ea2:
        return WreathReport(group.order, z.order, True, formula,
                            None, actual, kernel_pass, kernel_pass)
    return WreathReport(group.order, z.order, False, formula, formula,
                        actual, kernel_pass,
                        kernel_pass and actual == formula)


def commuting_regular_pairs(gamma: PermutationGroup
                            ) -> list[tuple[PermutationGroup, PermutationGroup]]:
    """All unordered pairs {U, V} of regular subgroups of Gamma(G), as
    `build_gamma(G)` returns it, that centralize each other elementwise,
    in the order of `regular_subgroups`, U first.  U = V is allowed and
    occurs exactly when U is abelian.

    No pair is tested.  The centralizer C of a regular U in Sym(Omega) is
    regular and is read off U's elements: with u_x the element sending 0
    to x, c_v(x) = u_x(v) commutes with every u_w, since u_w u_x =
    u_{u_w(x)}.  So the image tuples of C are the columns of U's rows
    taken in the order of u(0), which is their sorted order.  A regular V
    commuting with U lies in C and has its order, so V = C: U has a
    partner exactly when those columns lie in Gamma, and then C is one of
    the regular subgroups.

    Only classes are searched.  Conjugating by x in Gamma carries C to
    the centralizer of x U x^-1, so having a partner is a property of
    U's Gamma-class, which is its Gamma_0-class (Gamma = Gamma_0 U for a
    transitive U).  `regular_representatives` meets every such class;
    only the representatives with a partner are expanded into their
    Gamma_0-conjugates, and only those become groups.  Complete by
    completeness of that search.
    """
    partnered = [u for u in regular_representatives(gamma)
                 if all(c in gamma.index for c in zip(*sorted(u)))]
    regs = regular_conjugates(gamma, partnered)
    position = {tuple(p.images for p in u.elements): a
                for a, u in enumerate(regs)}
    pairs = []
    for a, u in enumerate(regs):
        # a conjugate of a partnered U is partnered: its partner is listed
        b = position[tuple(sorted(zip(*(p.images for p in u.elements))))]
        if b >= a:
            pairs.append((u, regs[b]))
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


def normalizer_in_full_symmetric(group: PermutationGroup,
                                 max_size: int = MAX_NORMALIZER_BASE) -> NormalizerReport:
    """Exhaustively compute N_{Sym(G)}(Gamma(G)) and compare with
    Aut(G)*Gamma(G) as sets of permutations of the labelling.

    Conjugating the tagged generators into Gamma suffices for membership:
    pi <gens> pi^-1 = <pi gens pi^-1> is a subgroup of Gamma of equal
    order, hence equal to it.
    """
    if group.order > max_size:
        raise PreconditionError(
            f"group of order {group.order} exceeds normalizer bound {max_size}")
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
