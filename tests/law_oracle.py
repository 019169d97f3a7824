"""Reference constructions for the B_n facet algebra, case by case.

`full_transformation_law` is the loop `birkhoff.verify_transformation_law`
ran before it checked only the generators of S_n x S_n: every pair
(sigma, tau) and every label (i, j), products and inverses read off the
multiplication table of S_n.  It takes the set family, A_ij at position
i n + j, as an argument, so the tests can hand both checks the same
mutant family; the family is given as masks, as the package holds it, and
read out into frozensets.  Only sensible for n <= 4: it makes
(n!)^2 n^2 frozenset comparisons.

`symmetry_images` builds the vertex bijection pi -> sigma pi^eps tau of a
decomposition from plain tuples in `itertools.permutations` order, with
no package code for the map, so a round trip through
`decompose_symmetry` checks it against an independent construction.

`facet_sets`, `tuple_vertex_images` and `full_decompose_symmetry` are
the facet sets, vertex maps and decomposition `birkhoff` used before it
read them off the multiplication table of S_n: the sets by testing every
vertex against every label, the maps pi -> sigma pi^eps tau composed on
image tuples and looked up in the vertex index, and the decomposition
from the whole map of n^2 facet sets, trying eps = +1 and then eps = -1
with one vertex pass each.
"""

import itertools
from operator import itemgetter

from birkhoffsym.birkhoff import SymmetryDecomposition
from birkhoffsym.errors import InvariantError
from birkhoffsym.perm import _inverse, cycle_string, symmetric_group
from masks import members


def full_transformation_law(n: int, sets) -> dict:
    group = symmetric_group(n)
    perms = group.elements
    table, inv = group.table, group.inv
    sets = list(map(members, sets))
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
                            f"sigma={cycle_string(sigma)} "
                            f"tau={cycle_string(tau)} A({i},{j})")
    inversion_cases = 0
    for i in range(n):
        for j in range(n):
            inversion_cases += 1
            image = frozenset(inv[v] for v in sets[i * n + j])
            if image != sets[j * n + i]:
                failures.append(f"inversion A({i},{j})")
    return {"n": n, "translation_cases": translation_cases,
            "inversion_cases": inversion_cases, "generator_cases": 0,
            "failures": failures, "passed": not failures}


def symmetry_images(n: int, dec) -> list[int]:
    """Vertex images of pi -> sigma pi^eps tau, vertices being the image
    tuples of S_n in `itertools.permutations` order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: v for v, p in enumerate(perms)}
    sigma, tau = dec.sigma, dec.tau
    out = []
    for p in perms:
        if dec.epsilon == -1:
            p = tuple(p.index(x) for x in range(n))
        out.append(index[tuple(sigma[p[tau[x]]] for x in range(n))])
    return out


def facet_sets(n: int) -> list[frozenset[int]]:
    """A_ij = {pi : pi(i) = j} at position i n + j, vertices being the
    image tuples of S_n in `itertools.permutations` order."""
    perms = list(itertools.permutations(range(n)))
    return [frozenset(v for v, p in enumerate(perms) if p[i] == j)
            for i in range(n) for j in range(n)]


def tuple_vertex_images(n: int, sigma, tau, epsilon: int) -> list:
    """Vertex images of pi -> sigma pi^epsilon tau, composed on image
    tuples; every image is None when sigma or tau is no bijection."""
    group = symmetric_group(n)
    index = group.index
    after_tau = itemgetter(*tau)
    domain = index if epsilon == 1 else itemgetter(*group.inv)(group.elements)
    # (p tau)[x] = p[tau[x]], then (sigma p tau)[x] = sigma[(p tau)[x]]
    return [index.get(itemgetter(*after_tau(p))(sigma)) for p in domain]


def full_decompose_symmetry(n: int, alpha):
    """(sigma, tau, epsilon) of alpha from its whole map of facet sets;
    None when some facet set goes onto no facet set or alpha repeats an
    image, and InvariantError when neither eps gives a triple."""
    sets = facet_sets(n)
    position = {members: k for k, members in enumerate(sets)}
    # image_map[i n + j] = k n + l for alpha(A_ij) = A_kl
    image_map = [position.get(frozenset(alpha[v] for v in members))
                 for members in sets]
    images = list(alpha)
    if None in image_map or len(set(images)) < len(images):
        return None
    for epsilon in (1, -1):
        r = [k // n for k in image_map[::n]]
        tau = _inverse(r)
        sigma = tuple(k % n for k in image_map[:n])
        if tuple_vertex_images(n, sigma, tau, epsilon) == images:
            return SymmetryDecomposition(sigma, tau, epsilon)
        image_map = [image_map[j * n + i] for i in range(n) for j in range(n)]
    raise InvariantError("a facet symmetry of B_n has no triple")
