"""Reference check of the B_n translation law, case by case.

`full_transformation_law` is the loop `birkhoff.verify_transformation_law`
ran before it checked only the generators of S_n x S_n: every pair
(sigma, tau) and every label (i, j), products and inverses read off the
multiplication table of S_n.  It takes the set family as an argument, so
the tests can hand both checks the same mutant family.  Only sensible for
n <= 4: it makes (n!)^2 n^2 frozenset comparisons.
"""

from birkhoffsym.birkhoff import FacetLabel, LawReport
from birkhoffsym.perm import symmetric_group


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
                                      for v in sets[FacetLabel(i, j)])
                    if image != sets[FacetLabel(tau(i), sigma(j))]:
                        failures.append(
                            f"sigma={sigma.cycle_string()} tau={tau.cycle_string()} "
                            f"A({i},{j})")
    inversion_cases = 0
    for i in range(n):
        for j in range(n):
            inversion_cases += 1
            image = frozenset(inv[v] for v in sets[FacetLabel(i, j)])
            if image != sets[FacetLabel(j, i)]:
                failures.append(f"inversion A({i},{j})")
    return LawReport(n, translation_cases, inversion_cases, 0, failures,
                     not failures)
