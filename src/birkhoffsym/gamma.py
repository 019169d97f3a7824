"""The translation-and-inversion group Gamma(G) inside Sym(G).

For a finite group G acting on itself, the maps

    lambda_g(x) = g*x        (left translation)
    rho_g(x)    = x*g^-1     (right translation)
    iota(x)     = x^-1       (inversion)

generate a subgroup Gamma(G) of Sym(G).  Everything here works with G's
elements identified with their positions in the canonical sorted element
list, so Gamma(G) is a permutation group on |G| points.  Neither it
nor a subgroup of it is built as a `PermutationGroup`: every element of
Gamma(G) is a map y -> a y^eps b, eps = +-1, sending e to a b, so
`gamma_fibers` lists the fiber {pi in Gamma : pi(e) = x} of each point
x straight off G's table, and the regular-pair search and the
normalizer read Gamma through its fibers.  Only `verify_wreath_quotient`
closes lambda_g, rho_g and iota under products (`perm.closure_images`),
since counting that closure is its certificate.  All of them take |G|
up to MAX_GAMMA_BASE = 120 (S_5), where Gamma has 28 800 elements.

Facts verified computationally by this module:

* |Gamma(G)| = 2|G|^2 / |Z(G)| unless G is an elementary abelian 2-group
  (where iota and the lambda/rho distinction collapse).
* The commuting regular subgroup pairs of Gamma(G): each regular U can
  commute only with its centralizer in Sym(G), which is regular, so one
  search over fiber choices, pruned by the centralizer in Gamma of the
  choices so far, finds exactly the U whose centralizer lies in Gamma,
  and their partners, each as the sorted tuple of its members' image
  tuples, members of Gamma and no group of their own; for G = S_n with
  a two-element Chermak-Delgado lattice the only pair is
  {lambda(G), rho(G)}.
* N = N_Sym(G)(Gamma(G)) against Aut(G) Gamma(G): they differ for D_4
  (|N| = 384, |Aut(G) Gamma| = 128), the smallest case, and for C_2 x D_4
  and S_3 x S_3; they agree for S_3, Q_8, S_4 and S_5.
  Gamma is transitive, so N = Gamma N_e, N_e fixing the identity e.
  For pi in N_e, U = pi lambda(G) pi^-1 is regular with centralizer
  pi rho(G) pi^-1 in Gamma, so the regular-pair search finds U, and
  pi(x) = phi(x)(e) for phi: x -> pi lambda_x pi^-1 in Iso(G, U) =
  phi_U Aut(G).  So the maps of N_e conjugating lambda(G) to U are
  pi_U Aut(G), pi_U(x) = phi_U(x)(e), or none of them: Aut(G) lies in
  N_e, a group, so pi_U alpha normalizes Gamma iff pi_U does.  One test
  per partnered U counts |N_e| = (passing U) |Aut(G)|.  Likewise
  Gamma_e = Inn(G) <iota>, so the stabilizer of e in Aut(G) Gamma is
  Aut(G) <iota>, of order |Aut(G)| when G is abelian (iota is then an
  automorphism) and 2 |Aut(G)| otherwise; it lies in N_e, so they are
  equal iff their orders are.  |Aut(G)| is counted by a stabilizer
  chain on G's generators, never listed.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InvariantError, PreconditionError
from .perm import (PermutationGroup, _cycles, _inverse, _right_mul,
                   _semiregular_order, closure_images, saturate)

MAX_GAMMA_BASE = 120  # largest |G| whose Gamma(G) is listed


def _refuse_past_bound(group: PermutationGroup) -> None:
    if group.order > MAX_GAMMA_BASE:
        raise PreconditionError(
            f"group of order {group.order} exceeds bound {MAX_GAMMA_BASE}")


def _gamma_generators(group: PermutationGroup) -> list[tuple[int, ...]]:
    """lambda_g, rho_g (in pairs), then iota, g running over G's
    generators, as image tuples read off G's table: lambda_g is table
    row g, rho_g the table column at g^-1.  G may have order at most
    MAX_GAMMA_BASE."""
    _refuse_past_bound(group)
    table, inv = group.table, group.inv
    gens = []
    for g in (group.index[s] for s in group.generators):
        gens += [tuple(table[g]), tuple(row[inv[g]] for row in table)]
    return gens + [tuple(inv)]


def gamma_fibers(group: PermutationGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Gamma(G) by image of the identity: fibers[x] is the sorted tuple of
    the image tuples of the maps y -> a y^eps b with a b = x, eps = +-1,
    each held once.  G may have order at most MAX_GAMMA_BASE.

    The fiber of e is read off G's table: y -> a y^eps a^-1 is one
    `_right_mul` of table row a (y -> a y), or of that row read at the
    inverses (y -> a y^-1), applied to column a^-1 (z -> z a^-1).  Its
    2|G| tuples are gathered in a set, so the maps that coincide, by a
    central factor or an inversion that is an automorphism, are held
    once with no case analysis.  The fiber of x is the fiber of e
    followed by lambda_x, y -> x y: table row x read at each of its
    maps, one `_right_mul` each."""
    _refuse_past_bound(group)
    table, inv = group.table, group.inv
    columns = list(zip(*table))
    by_inverse = _right_mul(inv)
    lefts = [_right_mul(row) for row in table]
    lefts += [_right_mul(by_inverse(row)) for row in table]
    rights = [columns[h] for h in inv] * 2
    stabilizer = {left(right) for left, right in zip(lefts, rights)}
    maps = list(map(_right_mul, stabilizer))
    return [tuple(sorted([f(row) for f in maps])) for row in table]


def is_elementary_abelian_2(group: PermutationGroup) -> bool:
    """Whether g^2 = e for every g: the diagonal of G's table is 0."""
    return all(row[g] == 0 for g, row in enumerate(group.table))


def verify_wreath_quotient(group: PermutationGroup) -> dict:
    """Check |Gamma(G)| = 2|G|^2/|Z(G)| and the kernel description.

    The kernel check: lambda_z rho_z is the identity map, z x z^-1 = x
    for all x, that is table row z equal to column z, exactly for z in
    the centre Z(G), the positions commuting with G's generators.  For an
    elementary abelian 2-group the order formula does not apply; the
    report carries the flag and the actual order instead of a verdict.
    The actual order is counted on the closure of lambda_g, rho_g and
    iota, an unsorted set of image tuples (`perm.closure_images`).

    The report: `group_order`, `center_order`, `elementary_abelian_2`,
    |Gamma(G)| by 2|G|^2/|Z(G)| (`formula_order`, and `expected_order`,
    None for an elementary abelian 2-group) and by closure
    (`actual_order`), `kernel_pass` and `passed`.
    """
    order = len(closure_images(_gamma_generators(group)))
    center = group.centralizer_indices(
        group.index[g] for g in group.generators)
    ea2 = is_elementary_abelian_2(group)
    formula = 2 * group.order ** 2 // len(center)
    table = group.table
    kernel_pass = all((list(column) == row) == (z in center)
                      for z, (row, column) in enumerate(zip(table, zip(*table))))
    return {"group_order": group.order, "center_order": len(center),
            "elementary_abelian_2": ea2, "formula_order": formula,
            "expected_order": None if ea2 else formula,
            "actual_order": order, "kernel_pass": kernel_pass,
            "passed": kernel_pass and (ea2 or order == formula)}


def _narrow(cents: list, g: tuple[int, ...], g_mul) -> Optional[list]:
    """The c of each fiber in `cents` that commute with g, or None at the
    first fiber left empty.  c g and g c must agree at point 0 first,
    c(g(0)) == g(c(0)); only the c that pass this are multiplied out."""
    g0 = g[0]
    narrowed = []
    for cent in cents:
        cent = [c for c in cent
                if c[g0] == g[c[0]] and g_mul(c) == _right_mul(c)(g)]
        if not cent:
            return None
        narrowed.append(cent)
    return narrowed


def _partnered_regular_subgroups(fibers: Sequence[Sequence[tuple[int, ...]]]
                                 ) -> list[tuple]:
    """(members, partner) for every regular subgroup U of Gamma whose
    centralizer in Sym(Omega) lies in Gamma, Gamma given by its fibers as
    `gamma_fibers` lists them: U's and its partner's sorted image tuples.

    A regular U has exactly one element sending point 0 to each point, so
    U picks one element from each fiber {g in Gamma : g(0) = x}.  The
    search takes the least point its closure has not covered and tries
    the elements of that fiber in sorted order; the choice is the one
    element of U there, so each U is found once, by the same choices as
    an unpruned search.  Only semiregular elements are tried: a
    non-identity u in U fixes no point, and neither does u^k for
    0 < k < ord(u), so every cycle of u has length ord(u).  A choice g
    is closed with the group of the earlier ones, H, by right cosets H p
    (`saturate`'s coset mode), and dropped when the closure passes
    m = degree elements or hits one fiber twice.

    The prune: for each fiber 1..m-1 the search carries the elements of
    Gamma that commute with every choice so far, and drops a choice that
    leaves one of these sets empty.  The centralizer in Sym(Omega) of a
    regular group is regular (Dixon & Mortimer, Graduate Texts in
    Mathematics 163, 1996, section 4.2), so a U with a partner V in Gamma
    has V inside C_Gamma(choices) at every step, and V meets every fiber:
    no such U is pruned.  At a leaf the kept elements, with the identity,
    are C_Gamma(U); it has at least m elements and lies in the regular
    group C_Sym(U) of order m, so it is C_Sym(U), and U's partner lies in
    Gamma and is found too.
    """
    m = len(fibers)
    identity = tuple(range(m))
    branches: dict[int, list] = {}
    found = []

    def extend(current: frozenset, steps: list, cents: list) -> None:
        if len(current) == m:
            partner = [identity, *(c for cent in cents for c in cent)]
            found.append((tuple(sorted(current)), tuple(sorted(partner))))
            return
        covered = {w[0] for w in current}
        x = min(p for p in range(m) if p not in covered)
        if x not in branches:  # few fibers are reached: filter on first visit
            branches[x] = [(g, _right_mul(g)) for g in fibers[x]
                           if len(set(map(len, _cycles(g)))) == 1]
        for g, g_mul in branches[x]:
            narrowed = _narrow(cents, g, g_mul)
            if narrowed is None:
                continue
            more = steps + [g_mul]
            try:
                closed = saturate(current, more, m,
                                  lambda p: map(_right_mul(p), current))
            except PreconditionError:
                continue
            if len({w[0] for w in closed}) == len(closed):
                extend(frozenset(closed), more, narrowed)

    extend(frozenset({identity}), [], fibers[1:])
    return found


def commuting_regular_pairs(fibers: Sequence[Sequence[tuple[int, ...]]]
                            ) -> list[tuple[tuple, tuple]]:
    """All unordered pairs {U, V} of regular subgroups of Gamma(G), given
    by the fibers `gamma_fibers(G)` returns, that centralize each other
    elementwise, each group as the sorted tuple of its members' image
    tuples, U first, sorted by U.  U = V is allowed and occurs exactly
    when U is abelian.

    No pair is tested.  A regular V commuting with a regular U lies in
    C_Sym(U), which is regular of the same order, so V = C_Sym(U): U has
    a partner exactly when C_Sym(U) lies in Gamma.  The search finds
    those U and their partners and no other regular subgroup; a partner
    missing from its list is a broken certificate (InvariantError).
    """
    found = dict(_partnered_regular_subgroups(fibers))
    if not found.keys() >= set(found.values()):
        raise InvariantError("the partner of a regular subgroup was "
                             "not found by the search")
    return sorted((u, v) for u, v in found.items() if u <= v)


def automorphism_orbits(group: PermutationGroup) -> tuple[int, ...]:
    """The basic orbit lengths of Aut(G) along G's generators s_1..s_k, so
    |Aut(G)| is their product: an automorphism is fixed by the images of
    the generators, so the automorphisms fixing all of them are trivial.

    Level i is the orbit of s_i under the automorphisms fixing
    s_1..s_{i-1}, on G's positions.  Each position t of s_i's order is
    either in the orbit of the level's witnesses so far (`saturate`), or
    tested by one witness search, `isomorphisms` onto G's own table from
    the prefix s_1..s_{i-1}, t.  So each orbit is exact, as in
    `combiso.comb_automorphisms`, and the order follows by the
    orbit-stabilizer theorem."""
    table, orders = group.table, group.orders
    gens = [group.index[g] for g in group.generators]
    lengths = []
    for i, s in enumerate(gens):
        witnesses, orbit = [], {s}
        for t in range(len(table)):
            if orders[t] == orders[s] and t not in orbit:
                alpha = next(group.isomorphisms(table, orders, gens[:i] + [t]),
                             None)
                if alpha is not None:
                    witnesses.append(alpha.__getitem__)
                    orbit = saturate([s], witnesses)
        lengths.append(len(orbit))
    return tuple(lengths)


def _normalizes(pi: Sequence[int], fibers: Sequence[Sequence[tuple]],
                gens: Sequence[tuple[int, ...]]) -> bool:
    """Whether pi conjugates each generator of Gamma into Gamma, looked up
    in the fiber of its image of 0: then pi <gens> pi^-1 =
    <pi gens pi^-1> is a subgroup of the same order, Gamma itself."""
    inverse = _inverse(pi)
    conjugates = (_right_mul(_right_mul(inverse)(g))(pi) for g in gens)
    return all(q in fibers[q[0]] for q in conjugates)


def normalizer_in_full_symmetric(group: PermutationGroup) -> dict:
    """N_Sym(G)(Gamma(G)) against Aut(G) Gamma(G), |G| <= MAX_GAMMA_BASE,
    by the orders of their stabilizers of e (module docstring): one
    `_normalizes` test per partnered regular subgroup U isomorphic to G,
    on pi_U.  lambda(G) and rho(G), G's table rows and columns, always
    pass; a search that misses either is a broken certificate
    (InvariantError).

    The report compares N = N_Sym(G)(Gamma(G)) with Aut(G) Gamma(G) as
    orders of maps of G's positions: `group_order`; `gamma_order`,
    |Gamma|, the maps in its fibers; `normalizer_order`, |N| = |G| |N_e|,
    N_e the maps of N fixing the identity; `aut_order`, |Aut(G)|;
    `aut_gamma_order`, |Aut(G) Gamma| = |G| |Aut(G) <iota>|; and
    `passed`: the two groups are equal."""
    fibers = gamma_fibers(group)
    gens = _gamma_generators(group)
    aut = prod(automorphism_orbits(group))
    passing = set()
    for members, _ in _partnered_regular_subgroups(fibers):
        rows = sorted(members, key=itemgetter(0))  # u with u(0) = a at a
        # phi[x] = a names u_a = phi(x), and u_a(e) = a: phi is pi_U
        phi = next(group.isomorphisms(
            rows, list(map(_semiregular_order, rows))), None)
        if phi is not None and _normalizes(phi, fibers, gens):
            passing.add(members)
    table = group.table
    # one group when G is abelian: then Aut(G) <iota> = Aut(G)
    translations = {tuple(sorted(map(tuple, table))),
                    tuple(sorted(zip(*table)))}
    if not translations <= passing:
        raise InvariantError("lambda(G) or rho(G) was not found among the "
                             "subgroups whose map normalizes Gamma")
    m = group.order
    return {"group_order": m, "gamma_order": sum(map(len, fibers)),
            "normalizer_order": m * len(passing) * aut, "aut_order": aut,
            "aut_gamma_order": m * len(translations) * aut,
            "passed": passing == translations}
