"""Whole-group forms of the package's table routines, which no package
module needs: the regular action, every left and right translation and
the inversion as permutations, Gamma(G) as a closed group, and every
subgroup as a group.  The package reads only the translations by
generators, Gamma(G) fiber by fiber (`gamma.gamma_fibers`), and
subgroups up to conjugacy (`perm.subgroup_classes`); the tests compare
against the whole forms."""

from birkhoffsym.errors import PreconditionError
from birkhoffsym.gamma import MAX_GAMMA_BASE
from birkhoffsym.perm import PermutationGroup, closure, subgroup_classes


def regular_action(group: PermutationGroup) -> tuple[
        list[tuple[int, ...]], list[tuple[int, ...]], tuple[int, ...]]:
    """G acting on its own element indices, everything in element order:
    lams[g] is x -> g x (table row g), rhos[g] is x -> x g^-1 (the table
    column at g^-1) and iota is x -> x^-1."""
    table, inv = group.table, group.inv
    lams = [tuple(row) for row in table]
    rhos = [tuple(row[h] for row in table) for h in inv]
    return lams, rhos, tuple(inv)


def build_gamma(group: PermutationGroup) -> PermutationGroup:
    """Gamma(G) closed into a group, with generators lambda_g, rho_g (in
    pairs), then iota, g running over G's generators; G may have order at
    most MAX_GAMMA_BASE.  lambda_g is table row g, rho_g the table column
    at g^-1."""
    if group.order > MAX_GAMMA_BASE:
        raise PreconditionError(
            f"group of order {group.order} exceeds bound {MAX_GAMMA_BASE}")
    table, inv = group.table, group.inv
    gens = []
    for g in (group.index[s] for s in group.generators):
        gens += [tuple(table[g]), tuple(row[inv[g]] for row in table)]
    return closure(gens + [tuple(inv)])


def all_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """Every subgroup of G, from `subgroup_classes`, generated by the
    elements found for it and sorted by (order, element list), that
    is (order, ascending member indices): one group per subgroup, with
    which the tests count subgroups."""
    subs = sorted(((sorted(members), gens)
                   for cls in subgroup_classes(group)
                   for members, gens in cls),
                  key=lambda sub: (len(sub[0]), sub[0]))
    elements = group.elements
    return [PermutationGroup(map(elements.__getitem__, members),
                             [elements[i] for i in gens])
            for members, gens in subs]
