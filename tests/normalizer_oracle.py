"""Brute-force reference for the normalizer of Gamma(G) and for Aut(G).

`normalizer_in_full_symmetric` scans all |G|! permutations of G's
positions and `automorphisms` all (|G|-1)! bijections fixing the
identity; the package finds both through generator images and the
partnered regular subgroups of Gamma(G).  Only sensible up to |G| = 8,
where the scan takes about 0.15 s.
"""

import itertools

from group_oracle import build_gamma
from birkhoffsym.gamma import NormalizerReport
from birkhoffsym.perm import PermutationGroup


def automorphisms(group: PermutationGroup) -> list[tuple[int, ...]]:
    """Aut(G) as image tuples on the element labelling, by brute force
    over bijections fixing the identity and preserving the multiplication
    table.  Exponential; meant for |G| <= 8 where it is its own proof.
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
            auts.append(tuple(alpha))
    return auts


def normalizer_in_full_symmetric(group: PermutationGroup) -> NormalizerReport:
    """Exhaustively compute N_{Sym(G)}(Gamma(G)) and compare with
    Aut(G)*Gamma(G) as sets of permutations of the labelling.

    Conjugating the generators into Gamma suffices for membership:
    pi <gens> pi^-1 = <pi gens pi^-1> is a subgroup of Gamma of equal
    order, hence equal to it.
    """
    gamma = build_gamma(group)
    m = group.order
    gens = gamma.generators
    normalizer = []
    for cand in itertools.permutations(range(m)):
        inv = [0] * m
        for i, x in enumerate(cand):
            inv[x] = i
        if all(tuple(cand[g[inv[x]]] for x in range(m)) in gamma.index
               for g in gens):
            normalizer.append(cand)
    auts = automorphisms(group)
    product = {tuple(a[x] for x in g) for a in auts for g in gamma.elements}
    norm_set = set(normalizer)
    return NormalizerReport(
        group_order=group.order,
        gamma_order=gamma.order,
        normalizer_order=len(norm_set),
        aut_order=len(auts),
        aut_gamma_order=len(product),
        passed=norm_set == product,
    )
