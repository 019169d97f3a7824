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
is in its docstring).  Vertex maps pi -> sigma pi^eps tau are composed on
image tuples and looked up in the vertex index; no multiplication table
of S_n is built here.

Vertex indices are positions in `perm.symmetric_group(n).elements`, the
lexicographic order of S_n image tuples, so vertex labellings agree
across modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import Optional, Sequence

from .combiso import comb_automorphisms
from .errors import PreconditionError
from .exact import RationalMatrix, _common_form
from .hull import _facet_enumeration
from .perm import Permutation, _inverse, symmetric_group

MAX_N = 5


class NotFacetSymmetryError(ValueError):
    pass


class InconsistentSymmetryError(ValueError):
    pass


@dataclass(frozen=True)
class SymmetryDecomposition:
    sigma: Permutation
    tau: Permutation
    epsilon: int


@lru_cache(maxsize=8)
def _facet_lookup(n: int) -> tuple[tuple[itemgetter, ...], dict]:
    """(getters, position) for the facet sets: getters[k] reads the
    images of the members of the set at position k off a vertex map's
    image tuple, and position maps each set back to k."""
    sets = analytic_facet_sets(n)
    return (tuple(itemgetter(*members) for members in sets),
            {members: k for k, members in enumerate(sets)})


def permutation_matrix(images: Sequence[int]) -> RationalMatrix:
    """P(pi) for pi given by its image tuple, with P(pi)[i][j] = 1 iff
    pi(j) = i, so P is a homomorphism: P(pi sigma) = P(pi) P(sigma)."""
    n = len(images)
    nums = [0] * (n * n)
    for j, i in enumerate(images):
        nums[i * n + j] = 1
    return RationalMatrix(n, n, nums, 1)


def birkhoff_vertices(n: int) -> list[RationalMatrix]:
    if not 1 <= n <= MAX_N:
        raise PreconditionError(f"vertex enumeration supports 1 <= n <= {MAX_N}")
    return [permutation_matrix(p) for p in symmetric_group(n).elements]


@lru_cache(maxsize=8)
def analytic_facet_sets(n: int) -> tuple[frozenset[int], ...]:
    """A_ij = {pi : pi(i) = j} at position i n + j, as index sets into the
    vertex enumeration.

    Cached, and a tuple, since every caller shares it.  For n <= 2 these
    sets do not describe facets (B_1 is a point, B_2 a segment with only
    2 facets), so such n is rejected.
    """
    if n < 3:
        raise PreconditionError("facet description requires n >= 3")
    perms = symmetric_group(n).elements
    return tuple(frozenset(v for v, p in enumerate(perms) if p[i] == j)
                 for i in range(n) for j in range(n))


@dataclass
class TableReport:
    n: int
    cases_checked: int
    failures: list[tuple[int, int, int, int]]
    passed: bool


def verify_intersection_table(n: int) -> TableReport:
    """Check |A_ij n A_kl| against the four-case formula for all n^4 cases."""
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
    return TableReport(n, cases, failures, not failures)


@dataclass
class LawReport:
    """`translation_cases` = (n!)^2 n^2 is the number of (sigma, tau, i, j)
    cases the verdict covers, `generator_cases` = 4 n^2 the number of
    cases checked directly (see `verify_transformation_law`), and
    `inversion_cases` = n^2 the cases of A_ij^-1 = A_ji."""
    n: int
    translation_cases: int
    inversion_cases: int
    generator_cases: int
    failures: list[str]
    passed: bool


def _vertex_images(n: int, sigma: Sequence[int], tau: Sequence[int],
                   epsilon: int) -> list[Optional[int]]:
    """Vertex images of pi -> sigma pi^epsilon tau for n >= 2, with sigma
    and tau given as image tuples and composed on image tuples, so no
    Permutation is built per vertex.  The keys of S_n's index are the
    vertices' image tuples in vertex order.  When sigma or tau is not a
    bijection, no composite is one, and every image is None."""
    group = symmetric_group(n)
    index = group.index
    after_tau = itemgetter(*tau)
    domain = index if epsilon == 1 else itemgetter(*group.inv)(group.elements)
    # (p tau)[x] = p[tau[x]], then (sigma p tau)[x] = sigma[(p tau)[x]]
    return [index.get(itemgetter(*after_tau(p))(sigma)) for p in domain]


def verify_transformation_law(n: int) -> LawReport:
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
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(
            f"transformation law check supports 3 <= n <= {MAX_N}")
    sets = analytic_facet_sets(n)
    one = Permutation.identity(n)
    sn_gens = symmetric_group(n).generators
    gens = [(g, one) for g in sn_gens] + [(one, g) for g in sn_gens]
    failures = []
    for sigma, tau in gens:
        image_of = _vertex_images(n, sigma.images, tau.inverse().images, 1)
        for i in range(n):
            for j in range(n):
                image = frozenset(image_of[v] for v in sets[i * n + j])
                if image != sets[tau(i) * n + sigma(j)]:
                    failures.append(
                        f"sigma={sigma.cycle_string()} "
                        f"tau={tau.cycle_string()} A({i},{j})")
    image_of = _vertex_images(n, one.images, one.images, -1)
    for i in range(n):
        for j in range(n):
            image = frozenset(image_of[v] for v in sets[i * n + j])
            if image != sets[j * n + i]:
                failures.append(f"inversion A({i},{j})")
    return LawReport(n=n, translation_cases=factorial(n) ** 2 * n * n,
                     inversion_cases=n * n, generator_cases=len(gens) * n * n,
                     failures=failures, passed=not failures)


def decompose_symmetry(n: int, alpha: Permutation) -> SymmetryDecomposition:
    """Certified normal form (sigma, tau, epsilon) of a vertex bijection.

    Steps: (1) map the facets, each A_ij onto some A_kl, else
    NotFacetSymmetryError; (2) try epsilon = +1, then epsilon = -1, for
    which alpha after inversion iota sends A_ij to alpha(A_ji), since
    iota(A_ij) = A_ji: with images A_ij -> A_{r(i), c(j)}, the law
    sigma A_ij tau^-1 = A_{tau(i), sigma(j)} gives tau = r^-1, sigma = c;
    (3) the certificate: return the first triple whose map agrees with
    alpha on all n! vertices.  A map pi -> sigma pi^eps tau reads back its
    own triple, and no two triples give one map (n >= 3), so
    InconsistentSymmetryError, no triple agreeing, means alpha has no
    such form.
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(f"decomposition supports 3 <= n <= {MAX_N}")
    perms = symmetric_group(n).elements
    if alpha.degree != len(perms):
        raise PreconditionError(
            f"alpha must permute {len(perms)} vertices, got degree {alpha.degree}")
    getters, position = _facet_lookup(n)
    # image_map[i n + j] = k n + l for alpha(A_ij) = A_kl
    image_map = [position.get(frozenset(get(alpha.images))) for get in getters]
    if None in image_map:
        raise NotFacetSymmetryError("not a facet symmetry")
    images = list(alpha.images)
    for epsilon in (1, -1):
        r = [k // n for k in image_map[::n]]
        tau = _inverse(r)
        sigma = [k % n for k in image_map[:n]]
        if _vertex_images(n, sigma, tau, epsilon) == images:
            return SymmetryDecomposition(Permutation(sigma), Permutation(tau),
                                         epsilon)
        image_map = [image_map[j * n + i] for i in range(n) for j in range(n)]
    raise InconsistentSymmetryError("inconsistent")


@dataclass
class SymmetryGroupReport:
    n: int
    n_vertices: int
    n_facets: int
    dim: int
    facets_match_analytic: bool
    aut_order: int
    expected_order: int
    roundtrip_failures: int
    passed: bool


def verify_symmetry_group(n: int) -> SymmetryGroupReport:
    """End-to-end check that the combinatorial symmetry group of B_n is
    D = {pi -> sigma pi^eps tau}: hull, incidence, facet family
    comparison, automorphism search, order count 2(n!)^2, and a
    decomposition round-trip of every strong generator.

    The certificate: every generator decomposes and D is a group, so
    Aut is contained in D; |Aut| = 2(n!)^2 and |D| <= 2(n!)^2, since there
    are only that many triples, so Aut = D.  `roundtrip_failures` counts
    the generators that do not decompose; `decompose_symmetry` checks the
    triple it returns at every vertex, so a generator that decomposes
    round-trips.  B_n's own vertices are hulled without the generic hull
    bounds, so n runs up to MAX_N.
    """
    if not 3 <= n <= MAX_N:
        raise PreconditionError(
            f"symmetry group verification supports 3 <= n <= {MAX_N}")
    scale, rows = _common_form(birkhoff_vertices(n))
    polytope = _facet_enumeration(rows, scale)
    inc = polytope.incidence
    analytic = analytic_facet_sets(n)
    n_fact = factorial(n)
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
    return SymmetryGroupReport(
        n=n,
        n_vertices=polytope.n_vertices,
        n_facets=polytope.n_facets,
        dim=polytope.dim,
        facets_match_analytic=facets_match,
        aut_order=aut.order,
        expected_order=expected,
        roundtrip_failures=roundtrip_failures,
        passed=passed,
    )
