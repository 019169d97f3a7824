"""Whole-group forms of the package's table routines, which no package
module needs: the regular action, every left and right translation and
the inversion as permutations, and every subgroup as a group.  The
package reads only the translations by generators (`gamma.build_gamma`)
and subgroups up to conjugacy (`perm.subgroup_classes`); the tests
compare against the whole forms."""

from birkhoffsym.perm import Permutation, PermutationGroup, subgroup_classes


def regular_action(group: PermutationGroup) -> tuple[
        list[Permutation], list[Permutation], Permutation]:
    """G acting on its own element indices, everything in element order:
    lams[g] is x -> g x (table row g), rhos[g] is x -> x g^-1 (the table
    column at g^-1) and iota is x -> x^-1."""
    table, inv = group.table, group.inv
    lams = [Permutation(row) for row in table]
    rhos = [Permutation(row[h] for row in table) for h in inv]
    return lams, rhos, Permutation(inv)


def all_subgroups(group: PermutationGroup, bound: int = 200) -> list[PermutationGroup]:
    """Every subgroup of G, from `subgroup_classes`, generated by the
    elements found for it and sorted by (order, element list), that
    is (order, ascending member indices): one group per subgroup, with
    which the tests count subgroups."""
    subs = sorted(((sorted(members), gens)
                   for cls in subgroup_classes(group, bound)
                   for members, gens in cls),
                  key=lambda sub: (len(sub[0]), sub[0]))
    return [group.subgroup_from_indices(members, gens)
            for members, gens in subs]
