"""Reference constructions for the B_n facet algebra, case by case.

`full_transformation_law` is the loop `birkhoff.verify_transformation_law`
ran before it checked only the generators of S_n x S_n: every pair
(sigma, tau) and every label (i, j), products and inverses read off the
multiplication table of S_n.  It takes the set family, A_ij at position
i n + j, as an argument, so the tests can hand both checks the same
mutant family.  Only sensible for n <= 4: it makes (n!)^2 n^2 frozenset
comparisons.

`symmetry_images` builds the vertex bijection pi -> sigma pi^eps tau of a
decomposition from plain tuples in `itertools.permutations` order, with
no package code for the map, so a round trip through
`decompose_symmetry` checks it against an independent construction.
"""

import itertools

from birkhoffsym.birkhoff import LawReport
from birkhoffsym.perm import Permutation, symmetric_group


def full_transformation_law(n: int, sets) -> LawReport:
    group = symmetric_group(n)
    perms = group.elements
    table, inv = group.table, group.inv
    failures = []
    translation_cases = 0
    for sigma, row in zip(perms, table):
        for tau, tau_inv in zip(perms, inv):
            for i in range(n):
                for j in range(n):
                    translation_cases += 1
                    image = frozenset(table[row[v]][tau_inv]
                                      for v in sets[i * n + j])
                    if image != sets[tau[i] * n + sigma[j]]:
                        failures.append(
                            f"sigma={Permutation(sigma).cycle_string()} "
                            f"tau={Permutation(tau).cycle_string()} A({i},{j})")
    inversion_cases = 0
    for i in range(n):
        for j in range(n):
            inversion_cases += 1
            image = frozenset(inv[v] for v in sets[i * n + j])
            if image != sets[j * n + i]:
                failures.append(f"inversion A({i},{j})")
    return LawReport(n, translation_cases, inversion_cases, 0, failures,
                     not failures)


def symmetry_images(n: int, dec) -> list[int]:
    """Vertex images of pi -> sigma pi^eps tau, vertices being the image
    tuples of S_n in `itertools.permutations` order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: v for v, p in enumerate(perms)}
    sigma, tau = dec.sigma.images, dec.tau.images
    out = []
    for p in perms:
        if dec.epsilon == -1:
            p = tuple(p.index(x) for x in range(n))
        out.append(index[tuple(sigma[p[tau[x]]] for x in range(n))])
    return out
