"""Facet algebra of the polytope of doubly stochastic matrices.

The polytope B_n is the convex hull of the n! permutation matrices.  For
n >= 3 its facets, read as subsets of the vertex set S_n, are the n^2
sets F_ij = {pi : pi(i) != j}; it is more convenient to work with their
complements A_ij = {pi : pi(i) = j}, which obey

    |A_ij n A_kl| = (n-1)!  if i=k and j=l
                    0        if exactly one of i=k, j=l holds
                    (n-2)!   otherwise
    sigma A_ij tau^-1 = A_{tau(i), sigma(j)}
    {pi^-1 : pi in A_ij} = A_ji

Together these identities force every incidence-preserving vertex
bijection alpha to have the shape alpha(pi) = sigma pi^eps tau, and
decompose_symmetry extracts that certified triple.

A facet set has one name here, its position i n + j: A_ij is entry
i n + j of `analytic_facet_sets(n)`, and a map of facet sets is a list of
positions.

verify_transformation_law checks the translation law on the four
generators of S_n x S_n only: both sides are actions of that group, so
the law for the generators gives it for all (n!)^2 pairs (the argument
is in its docstring).  A vertex map pi -> sigma pi^eps tau is three
C-level gathers on the multiplication table of S_n: column tau, read at
the inverse positions when eps = -1, then row sigma.

Vertex indices are positions in `perm.symmetric_group(n).elements`, the
lexicographic order of S_n image tuples, so vertex labellings agree
across modules.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .combiso import comb_automorphisms
from .errors import PreconditionError
from .exact import _common_form
from .hull import facet_enumeration
from .perm import _inverse, cycle_string, symmetric_group

MAX_N = 5


class NotFacetSymmetryError(ValueError):
    pass


class InconsistentSymmetryError(ValueError):
    pass


class SymmetryDecomposition(NamedTuple):
    """The triple of a symmetry pi -> sigma pi^epsilon tau of B_n."""
    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    epsilon: int


@lru_cache(maxsize=8)
def _facet_lookup(n: int) -> tuple[tuple[itemgetter, ...], dict]:
    """(getters, position) for the facet sets: getters[k] reads the
    images of the members of the set at position k off a vertex map's
    image tuple, and position maps each set back to k."""
    sets = analytic_facet_sets(n)
    return (tuple(itemgetter(*members) for members in sets),
            {members: k for k, members in enumerate(sets)})


def permutation_matrix(images: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """P(pi) for pi given by its image tuple, as the matrix pair (nums, 1)
    of `exact._matrix`, with P(pi)[i][j] = 1 iff pi(j) = i, so P is a
    homomorphism: P(pi sigma) = P(pi) P(sigma).  The n x n identity is
    `permutation_matrix(range(n))`."""
    n = len(images)
    nums = [0] * (n * n)
    for j, i in enumerate(images):
        nums[i * n + j] = 1
    return tuple(nums), 1


def birkhoff_vertices(n: int) -> list[tuple[tuple[int, ...], int]]:
    if not 1 <= n <= MAX_N:
        raise PreconditionError(f"vertex enumeration supports 1 <= n <= {MAX_N}")
    return [permutation_matrix(p) for p in symmetric_group(n).elements]


@lru_cache(maxsize=8)
def analytic_facet_sets(n: int) -> tuple[frozenset[int], ...]:
    """A_ij = {pi : pi(i) = j} at position i n + j, as index sets into the
    vertex enumeration, built in one pass over the vertices: vertex pi
    joins the n sets A_{i, pi(i)}, n n! steps in all.

    Cached, and a tuple, since every caller shares it.  For n <= 2 these
    sets do not describe facets (B_1 is a point, B_2 a segment with only
    2 facets), so such n is rejected.
    """
    if n < 3:
        raise PreconditionError("facet description requires n >= 3")
    members: list[list[int]] = [[] for _ in range(n * n)]
    for v, p in enumerate(symmetric_group(n).elements):
        for i, j in enumerate(p):
            members[i * n + j].append(v)
    return tuple(map(frozenset, members))


def verify_intersection_table(n: int) -> dict:
    """Check |A_ij n A_kl| against the four-case formula for all n^4 cases.
    The report: `n`, `cases_checked`, the (i, j, k, l) that fail as
    `failures`, and `passed`."""
    if not 3 <= n <= MAX_N:
        raise PreconditionError(f"intersection table supports 3 <= n <= {MAX_N}")
    sets = analytic_facet_sets(n)
    failures = []
    cases = 0
    for i in range(n):
        for j in range(n):
            a = sets[i * n + j]
            for k in range(n):
                for l in range(n):
                    cases += 1
                    got = len(a & sets[k * n + l])
                    if i == k and j == l:
                        want = factorial(n - 1)
                    elif i == k or j == l:
                        want = 0
                    else:
                        want = factorial(n - 2)
                    if got != want:
                        failures.append((i, j, k, l))
    return {"n": n, "cases_checked": cases, "failures": failures,
            "passed": not failures}


def _vertex_images(n: int, sigma: Sequence[int], tau: Sequence[int],
                   epsilon: int) -> tuple[Optional[int], ...]:
    """Vertex images of pi -> sigma pi^epsilon tau for n >= 2, with sigma
    and tau given as image tuples: three C-level gathers on S_n's table.
    Column tau holds the positions of pi tau, vertex by vertex; read at
    the inverse positions when epsilon = -1, those of pi^-1 tau; row sigma
    read at either gives sigma pi^epsilon tau.  When sigma or tau is not a
    bijection, no composite is one, and every image is None."""
    group = symmetric_group(n)
    s, t = group.index.get(tuple(sigma)), group.index.get(tuple(tau))
    if s is None or t is None:
        return (None,) * group.order
    table = group.table
    column = list(map(itemgetter(t), table))
    if epsilon == -1:
        column = itemgetter(*group.inv)(column)
    return itemgetter(*column)(table[s])


def verify_transformation_law(n: int) -> dict:
    """Check sigma A_ij tau^-1 = A_{tau(i), sigma(j)} for all sigma, tau
    and all (i, j), and A_ij^-1 = A_ji.

    The certificate: S_n x S_n acts on vertex sets by (sigma, tau).X =
    {sigma pi tau^-1 : pi in X} and on labels by (sigma, tau).(i, j) =
    (tau(i), sigma(j)); the law says that the labelling (i, j) -> A_ij
    commutes with the two actions.  If it commutes with g and with h, it
    commutes with gh, because (gh).A_L = g.(h.A_L) = g.A_{h.L} =
    A_{g.(h.L)} = A_{(gh).L}.  Every element of the finite group S_n x S_n
    is a product of its generators ((0 1), 1), ((0 1 ... n-1), 1),
    (1, (0 1)) and (1, (0 1 ... n-1)) (an inverse is a power), so
    checking those four on all n^2 labels proves the law for all (n!)^2
    pairs.  Nothing here depends on the sets themselves, so a family that
    breaks the law at some pair breaks it at some generator, and each
    failure names that generator and the label.

    The report: `n`; `translation_cases` = (n!)^2 n^2, the number of
    (sigma, tau, i, j) cases the verdict covers; `inversion_cases` = n^2,
    the cases of A_ij^-1 = A_ji; `generator_cases` = 4 n^2, the cases
    checked directly; `failures`, one string each; and `passed`.
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(
            f"transformation law check supports 3 <= n <= {MAX_N}")
    sets = analytic_facet_sets(n)
    one = tuple(range(n))
    sn_gens = symmetric_group(n).generators
    gens = [(g, one) for g in sn_gens] + [(one, g) for g in sn_gens]
    failures = []
    for sigma, tau in gens:
        image_of = _vertex_images(n, sigma, _inverse(tau), 1)
        for i in range(n):
            for j in range(n):
                image = frozenset(image_of[v] for v in sets[i * n + j])
                if image != sets[tau[i] * n + sigma[j]]:
                    failures.append(
                        f"sigma={cycle_string(sigma)} "
                        f"tau={cycle_string(tau)} A({i},{j})")
    image_of = _vertex_images(n, one, one, -1)
    for i in range(n):
        for j in range(n):
            image = frozenset(image_of[v] for v in sets[i * n + j])
            if image != sets[j * n + i]:
                failures.append(f"inversion A({i},{j})")
    return {"n": n, "translation_cases": factorial(n) ** 2 * n * n,
            "inversion_cases": n * n, "generator_cases": len(gens) * n * n,
            "failures": failures, "passed": not failures}


def decompose_symmetry(n: int, alpha: Sequence[int]) -> SymmetryDecomposition:
    """Certified normal form (sigma, tau, epsilon) of a vertex bijection
    alpha, given by its n! vertex images.

    By the law sigma A_ij tau^-1 = A_{tau(i), sigma(j)} and A_ij^-1 = A_ji,
    pi -> sigma pi^eps tau sends A_ij to A_{r(i), c(j)} for eps = +1 and
    to A_{r(j), c(i)} for eps = -1, with r = tau^-1 and c = sigma.  So
    only row 0 and column 0 of alpha's map of facet sets are read, the
    images of A_0j and A_i0, 2n - 1 sets; one that is no facet set raises
    NotFacetSymmetryError at once.  eps = +1 when the images of row 0
    share their first index, -1 when they share their second (n >= 3
    distinct sets cannot share both), and r and c are read off the row
    and the column.  The certificate is one vertex pass: return the
    triple when its map agrees with alpha on all n! vertices.  A map
    pi -> sigma pi^eps tau reads back its own triple, and no two triples
    give one map (n >= 3), so only an alpha of no such form fails; then
    the other n^2 - (2n - 1) facet sets are read: NotFacetSymmetryError
    when some A_ij goes onto no A_kl, else InconsistentSymmetryError.
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(f"decomposition supports 3 <= n <= {MAX_N}")
    perms = symmetric_group(n).elements
    # a tuple, since a list of the same images never equals the tuple of
    # vertex images the triple is checked against
    images = tuple(alpha)
    if len(images) != len(perms):
        raise PreconditionError(
            f"alpha must permute {len(perms)} vertices, "
            f"got degree {len(images)}")
    getters, position = _facet_lookup(n)
    # k n + l for alpha(A_0j) = A_kl, then for alpha(A_i0) with i > 0
    cross = [position.get(frozenset(getters[k](images)))
             for k in (*range(n), *range(n, n * n, n))]
    if None in cross:
        raise NotFacetSymmetryError("not a facet symmetry")
    row, column = cross[:n], cross[:1] + cross[n:]
    epsilon = (1 if len({k // n for k in row}) == 1 else
               -1 if len({k % n for k in row}) == 1 else 0)
    if epsilon:
        r, c = (column, row) if epsilon == 1 else (row, column)
        sigma = tuple(k % n for k in c)
        tau = _inverse([k // n for k in r])
        if _vertex_images(n, sigma, tau, epsilon) == images:
            return SymmetryDecomposition(sigma, tau, epsilon)
    # every other A_ij, i, j > 0, is read only to name the failure
    if None in [position.get(frozenset(getters[k](images)))
                for k in range(n, n * n) if k % n]:
        raise NotFacetSymmetryError("not a facet symmetry")
    raise InconsistentSymmetryError("inconsistent")


def verify_symmetry_group(n: int) -> dict:
    """End-to-end check that the combinatorial symmetry group of B_n is
    D = {pi -> sigma pi^eps tau}: hull, incidence, facet family
    comparison, automorphism search, order count 2(n!)^2, and a
    decomposition round-trip of every strong generator.

    The certificate: every generator decomposes and D is a group, so
    Aut is contained in D; |Aut| = 2(n!)^2 and |D| <= 2(n!)^2, since there
    are only that many triples, so Aut = D.  `roundtrip_failures` counts
    the generators that do not decompose; `decompose_symmetry` checks the
    triple it returns at every vertex, so a generator that decomposes
    round-trips.  B_n's vertices are hulled by `facet_enumeration` with
    B_n's own sizes as its bounds, n! points in dimension (n - 1)^2, so
    n runs up to MAX_N.

    The report: `n`, the hull's `n_vertices`, `n_facets` and `dim`,
    `facets_match_analytic`, `aut_order` against `expected_order` =
    2(n!)^2, `roundtrip_failures` and `passed`.
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(
            f"symmetry group verification supports 3 <= n <= {MAX_N}")
    n_fact = factorial(n)
    polytope = facet_enumeration(*_common_form(birkhoff_vertices(n)),
                                 n_fact, (n - 1) ** 2)
    inc = polytope.incidence
    analytic = analytic_facet_sets(n)
    complements = {frozenset(range(n_fact)) - members for members in analytic}
    facets_match = set(inc.tight_sets) == complements

    aut = comb_automorphisms(inc)
    expected = 2 * n_fact ** 2
    roundtrip_failures = 0
    for p in aut.generators:
        try:
            decompose_symmetry(n, p)
        except (NotFacetSymmetryError, InconsistentSymmetryError):
            roundtrip_failures += 1
    passed = (facets_match and aut.order == expected
              and roundtrip_failures == 0)
    return {
        "n": n,
        "n_vertices": polytope.n_vertices,
        "n_facets": polytope.n_facets,
        "dim": polytope.dim,
        "facets_match_analytic": facets_match,
        "aut_order": aut.order,
        "expected_order": expected,
        "roundtrip_failures": roundtrip_failures,
        "passed": passed,
    }
