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

Two certificates, each checked by the code, take B_n from its vertices
to its symmetry group with no hull and no search of the vertices.

Facets (`birkhoff_facets`).  The matrices x >= 0 whose rows and columns
sum to 1 form a polytope H whose equality matrix, the incidence matrix
of K_{n,n}, is totally unimodular, so every vertex of H is integral: a
permutation matrix.  So H = B_n (Birkhoff-von Neumann), and B_n's facets
are among the n^2 inequalities x_ij >= 0.  One rank shows that x_00 >= 0
is a facet, the symmetries of the matrix entries carry it onto every
x_ij >= 0, and their tight sets, the F_ij, are distinct.

Symmetries (`verify_symmetry_group`).  A symmetry of B_n permutes its
facets and keeps which facet complements are disjoint, so it acts on
the facet graph, faithfully since distinct vertices lie on distinct
facet sets.  One search on the graph's n^2 facets bounds |Aut(B_n)| by
2(n!)^2, and the law shows that the 2(n!)^2 maps pi -> sigma pi^eps tau
are symmetries, so they are all of them.  The round trip stays on the
facets: each strong generator of the search reads its triple off its
images of row 0 and column 0 and must equal the triple's action on all
n^2 facets, O(n^2) steps.  That is the verdict a pass over the n!
vertices would give: by the law a triple's vertex map acts on the facets
as the triple does, and by the faithful action no other vertex map
acts so.  decompose_symmetry extracts the certified triple of a vertex
map.

A facet set has one name here, its position i n + j: A_ij is entry
i n + j of `analytic_facet_sets(n)`, and a map of facet sets is a list of
positions.  The incidence of `birkhoff_facets` is ordered by matrix
entry instead: it lists x_rc >= 0 at position r n + c, whose tight set
is the complement of A_cr, since P(pi) is 1 at (r, c) when pi(c) = r.
`_facet_triple` is the one place that turns one order into the other;
`facets_match_analytic` compares the two lists as sets.

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
from itertools import compress, islice
from math import factorial
from operator import itemgetter, ne, not_
from typing import NamedTuple, Optional, Sequence

from .combiso import comb_automorphisms
from .errors import InvariantError, PreconditionError
from .exact import _independent_rows
from .hull import IncidenceStructure
from .perm import _inverse, cycle_string, symmetric_group

MAX_N = 6


def _check_n(what: str, n: int) -> None:
    if not 3 <= n <= MAX_N:
        raise PreconditionError(f"{what} supports 3 <= n <= {MAX_N}")


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
    _check_n("vertex enumeration", n)
    return [permutation_matrix(p) for p in symmetric_group(n).elements]


@lru_cache(maxsize=8)
def analytic_facet_sets(n: int) -> tuple[frozenset[int], ...]:
    """A_ij = {pi : pi(i) = j} at position i n + j, as index sets into the
    vertex enumeration, built in one pass over the vertices: vertex pi
    joins the n sets A_{i, pi(i)}, n n! steps in all.

    Cached, and a tuple, since every caller shares it.  For n <= 2 these
    sets do not describe facets (B_1 is a point, B_2 a segment with only
    2 facets), so n outside 3 <= n <= MAX_N is refused before S_n is
    listed.
    """
    _check_n("facet description", n)
    members: list[list[int]] = [[] for _ in range(n * n)]
    for v, p in enumerate(symmetric_group(n).elements):
        for i, j in enumerate(p):
            members[i * n + j].append(v)
    return tuple(map(frozenset, members))


def _equality_matrix(n: int) -> list[list[int]]:
    """B_n's equality constraints on the n^2 matrix entries, row-major:
    row r < n sums row r of the matrix, row n + c sums column c."""
    return ([[int(k // n == r) for k in range(n * n)] for r in range(n)]
            + [[int(k % n == c) for k in range(n * n)] for c in range(n)])


def _tight_sets(vertices: list[tuple[tuple[int, ...], int]]
                ) -> list[frozenset[int]]:
    """Entry k, row-major: the vertices whose matrix is 0 at entry k, the
    tight set of x_k >= 0."""
    everyone = range(len(vertices))
    return [frozenset(compress(everyone, map(not_, column)))
            for column in zip(*(nums for nums, _ in vertices))]


def birkhoff_facets(n: int) -> tuple[IncidenceStructure, int]:
    """B_n's facet incidence, x_k >= 0 at entry k of the matrices in
    row-major order, and its dimension, certified with no hull; raises
    InvariantError when a check fails.

    The certificate, for H = {x >= 0 : every row and column sums to 1}:
    (i) the vertices of `birkhoff_vertices(n)` are n! distinct integer
    matrices in H, so all the permutation matrices, and H's equality
    matrix A is the incidence matrix of K_{n,n}: each column has one 1
    in the row block, one in the column block and no other entry.  Such
    an A is totally unimodular (Heller & Tompkins 1956), so every vertex
    of H is integral (Hoffman & Kruskal 1956), a permutation matrix:
    H = B_n, and B_n's facets are among the inequalities x_k >= 0.
    (ii) The all-1/n matrix lies in H with every entry positive, so the
    affine hull of H is {x : A x = 1}, of dimension n^2 - rank A, and
    rank A = 2n - 1 by one pass of `_independent_rows`.  (iii) The
    vertices tight on x_00 >= 0 span an affine space of dimension d - 1:
    an `_independent_rows` pass on their differences from the first
    stops once it has d - 1 rows, as x_00 is not constant on B_n, so no
    more exist.  It takes the vertices nearest the first one first (the
    edges of a face at a vertex span it, while every prefix of the
    vertex order lies in a lower face), so it reads 38 of B_6's 600.  So
    x_00 >= 0 is a facet, and so is every x_k >= 0, since the linear
    maps x -> P x Q, for permutation matrices P and Q, permute the
    vertices and carry entry (0, 0) to every entry.  (iv) The n^2 tight
    sets are distinct (`IncidenceStructure` checks it), so the n^2
    inequalities are n^2 facets.
    """
    _check_n("facet certificate", n)
    rows = _equality_matrix(n)
    if [list(column) for column in zip(*rows)] != [
            [int(r in (k // n, n + k % n)) for r in range(2 * n)]
            for k in range(n * n)]:
        raise InvariantError("the equality matrix is not the incidence "
                             "matrix of K_{n,n}")
    supports = [itemgetter(*compress(range(n * n), row)) for row in rows]
    vertices = birkhoff_vertices(n)
    if len(set(vertices)) != factorial(n) or not all(
            den == 1 and min(nums) >= 0
            and all(sum(get(nums)) == 1 for get in supports)
            for nums, den in vertices):
        raise InvariantError("the vertices are not the n! permutation "
                             "matrices")
    rank = sum(1 for _ in _independent_rows(rows))
    if rank != 2 * n - 1:
        raise InvariantError(f"the equality matrix has rank {rank}")
    dim = n * n - rank
    tight = _tight_sets(vertices)
    base, *rest = [vertices[v][0] for v in sorted(tight[0])]
    rest.sort(key=lambda p: sum(map(ne, p, base)))
    diffs = ([a - b for a, b in zip(p, base)] for p in rest)
    if sum(1 for _ in islice(_independent_rows(diffs), dim - 1)) < dim - 1:
        raise InvariantError("x_00 >= 0 is not a facet of B_n")
    return IncidenceStructure(len(vertices), tight), dim


def verify_intersection_table(n: int) -> dict:
    """Check |A_ij n A_kl| against the four-case formula for all n^4 cases.
    The report: `n`, `cases_checked`, the (i, j, k, l) that fail as
    `failures`, and `passed`."""
    _check_n("intersection table", n)
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
    _check_n("transformation law check", n)
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


def _read_triple(n: int, cross: Sequence[int]
                 ) -> Optional[SymmetryDecomposition]:
    """The triple read off the positions k n + l of a map's images A_kl
    of A_0j, j < n, then of A_i0, 0 < i < n, or None when the images of
    row 0 share neither index.  By the law, pi -> sigma pi^eps tau sends
    A_ij to A_{r(i), c(j)} for eps = +1 and to A_{r(j), c(i)} for
    eps = -1, with r = tau^-1 and c = sigma: eps = +1 when the images of
    row 0 share their first index, -1 when they share their second
    (n >= 3 distinct sets cannot share both), and r and c are read off
    the row and the column.  Only a map of that form is sure to read back
    its own triple, so the caller checks the triple on the whole map."""
    row, column = cross[:n], cross[:1] + cross[n:]
    epsilon = (1 if len({k // n for k in row}) == 1 else
               -1 if len({k % n for k in row}) == 1 else 0)
    if not epsilon:
        return None
    r, c = (column, row) if epsilon == 1 else (row, column)
    return SymmetryDecomposition(tuple(k % n for k in c),
                                 _inverse([k // n for k in r]), epsilon)


def decompose_symmetry(n: int, alpha: Sequence[int]
                       ) -> Optional[SymmetryDecomposition]:
    """Certified normal form (sigma, tau, epsilon) of a vertex bijection
    alpha, given by its n! vertex images, or None when alpha is no facet
    symmetry.

    Only row 0 and column 0 of alpha's map of facet sets are read, the
    images of A_0j and A_i0, 2n - 1 sets; one that is no facet set gives
    None at once, and `_read_triple` reads the triple off their
    positions.  The certificate is one vertex pass: return the triple
    when its map agrees with alpha on all n! vertices.  A map pi -> sigma
    pi^eps tau reads back its own triple, and no two triples give one map
    (n >= 3), so only an alpha of no such form fails; then the other
    n^2 - (2n - 1) facet sets are read: None when some A_ij goes onto no
    A_kl, or when alpha repeats an image.  Else alpha permutes the facet
    sets, a facet symmetry, and every one has the form
    (`verify_symmetry_group`), so one with no triple raises
    InvariantError.
    """
    _check_n("decomposition", n)
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
        return None
    dec = _read_triple(n, cross)
    if dec is not None and _vertex_images(n, *dec) == images:
        return dec
    # every other A_ij, i, j > 0, is read only to tell a non-symmetry from
    # a broken certificate; a map that is no bijection can still send
    # every facet set onto one (for n = 3, all onto A_00)
    inner = [position.get(frozenset(getters[k](images)))
             for k in range(n, n * n) if k % n]
    if None in inner or len(set(images)) < len(images):
        return None
    raise InvariantError("a facet symmetry of B_n has no triple")


def _facet_lines(inc: IncidenceStructure) -> IncidenceStructure:
    """The lines of the facet graph, as an incidence on the facets.

    The facet graph joins two facets when their complements, the
    vertices off them, are disjoint.  The line of an edge {f, g} is
    {f, g} with the common neighbours of f and g.  Raises InvariantError
    unless every line is a clique: then two facets are joined exactly
    when a line holds both, so the graph and its lines have the same
    automorphisms, and the search on the lines (for B_n, 2n lines of n
    facets) is shorter than the one on the edges."""
    everything = frozenset(range(inc.n_vertices))
    off = [everything - tight for tight in inc.tight_sets]
    near = [{g for g, other in enumerate(off) if g != f and a.isdisjoint(other)}
            for f, a in enumerate(off)]
    lines = {frozenset(near[f] & near[g] | {f, g})
             for f in range(len(off)) for g in near[f] if f < g}
    if not all(line <= near[h] | {h} for line in lines for h in line):
        raise InvariantError("a line of the facet graph is not a clique")
    return IncidenceStructure(len(off), sorted(map(sorted, lines)))


def _facet_triple(n: int, psi: Sequence[int]
                  ) -> Optional[SymmetryDecomposition]:
    """The triple whose action on the facets is psi, a permutation of
    the positions r n + c of the x_rc >= 0, or None when there is none:
    read off psi's images of row 0 and column 0 by `_read_triple`, then
    checked on all n^2 facets, O(n^2) steps in all.  A psi of another
    number of facets has none."""
    if len(psi) != n * n:
        return None
    # x_rc >= 0 is the complement of A_cr: the one place that transposes
    # facet positions into A-positions, and back; images[k] is the
    # A-position of psi's image of the facet set at k
    transpose = [k % n * n + k // n for k in range(n * n)]
    images = [transpose[psi[f]] for f in transpose]
    dec = _read_triple(n, images[:n] + images[n::n])
    if dec is None:
        return None
    r = _inverse(dec.tau)
    # A_ij goes to A_{r(i), sigma(j)}, or to A_{r(j), sigma(i)} for eps = -1
    action = [r[a] * n + dec.sigma[b]
              for a, b in (divmod(k, n)[::dec.epsilon] for k in range(n * n))]
    return dec if action == images else None


def verify_symmetry_group(n: int) -> dict:
    """Check that the combinatorial symmetry group of B_n is
    D = {pi -> sigma pi^eps tau}, with no hull and no search of its n!
    vertices.

    The facets are `birkhoff_facets(n)`, certified, and
    `facets_match_analytic` compares their tight sets with the
    complements of the A_ij.  The order is certified on the facet side:
    (a) a symmetry permutes the facets and keeps which of their
    complements are disjoint, so it is an automorphism of the facet
    graph (`_facet_lines`); (b) it is determined by its action there
    when distinct vertices lie on distinct facet sets, which is checked,
    so |Aut(B_n)| <= |Aut(facet graph)|; (c) `comb_automorphisms` on the
    graph's lines gives that order, `aut_order`; (d) the 2(n!)^2 maps in
    D are distinct for n >= 3, and they permute the A_ij by the law on
    generators (`verify_transformation_law`), so the facets, when they
    match, so aut_order = 2(n!)^2 proves Aut(B_n) = D.  (b) is checked
    as n! distinct vertex facet lists.  `passed` takes the match, the
    law's verdict and (b)'s with the order.

    The round trip takes each strong generator psi of the graph on the
    facets (`_facet_triple`): (sigma, tau, eps) is read off psi's images
    of row 0 and column 0, and the triple's action, x_rc >= 0 ->
    x_(sigma(r), tau^-1(c)), or x_(sigma(c), tau^-1(r)) for eps = -1,
    must equal psi on all n^2 facets; `roundtrip_failures` counts the
    generators with no such triple.  That is the verdict of lifting psi
    to the vertex map it induces, v -> the vertex off the images of the
    facets v is off, and decomposing the lift: by the law the triple's
    vertex map permutes the facets by the triple's action, and by (b) it
    is the only vertex map that does, so psi lifts to the map of a triple
    exactly when that triple's action is psi.  Both hold whenever
    `passed` does, so the check on the facets gives the lift's verdict
    with no generator lifted to the n! vertices.

    The report: `n`, B_n's `n_vertices`, `n_facets` and `dim`,
    `facets_match_analytic`, `aut_order` against `expected_order` =
    2(n!)^2, `roundtrip_failures` and `passed`.
    """
    _check_n("symmetry group verification", n)
    inc, dim = birkhoff_facets(n)
    n_fact = factorial(n)
    everything = frozenset(range(n_fact))
    facets_match = set(inc.tight_sets) == {
        everything - members for members in analytic_facet_sets(n)}
    law = verify_transformation_law(n)["passed"]

    faithful = len(set(inc.vertex_facets)) == n_fact
    aut = comb_automorphisms(_facet_lines(inc))
    expected = 2 * n_fact ** 2
    roundtrip_failures = sum(_facet_triple(n, psi) is None
                             for psi in aut.generators)
    passed = (facets_match and law and faithful and aut.order == expected
              and roundtrip_failures == 0)
    return {
        "n": n,
        "n_vertices": inc.n_vertices,
        "n_facets": inc.n_facets,
        "dim": dim,
        "facets_match_analytic": facets_match,
        "aut_order": aut.order,
        "expected_order": expected,
        "roundtrip_failures": roundtrip_failures,
        "passed": passed,
    }
