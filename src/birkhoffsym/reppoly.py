"""Representation polytopes: convex hulls of finite matrix groups.

A finite group of invertible rational d x d matrices, each the pair
(nums, den) of `exact._matrix`, is vectorized row-major into Q^(d^2);
the convex hull of the element vectors is the representation polytope.
The left and right translation actions of the group permute the
vertices linearly, so they always appear in the combinatorial symmetry
group of the polytope.  So does inversion: G preserves the positive
definite form B = sum of g^T g over G, so g^-1 = B^-1 g^T B, a linear
map of g.

The uniqueness question asks which representation polytopes are
combinatorially equivalent to the hull B_n of all n x n permutation
matrices; catalog entries carry an optional expected answer so the
comparison doubles as a regression check.
"""

from __future__ import annotations

import json
import os
from functools import partial
from math import isqrt
from operator import itemgetter
from typing import NamedTuple, Optional

from .birkhoff import birkhoff_facets, permutation_matrix
from .combiso import comb_automorphisms, comb_equivalent
from .errors import InvariantError, PreconditionError
from .exact import (_common_form, _independent_rows, _matrix, _over_lcm,
                    _product, _rational_pair)
from .hull import MAX_VERTICES, Polytope, certify_vertices, facet_enumeration
from .perm import (PermutationGroup, _right_mul, as_permutation, closure,
                   named_group, saturate)


class MatrixGroup:
    """A finite group of d x d matrix pairs (nums, den) with a fixed
    element order: the d x d identity first, the rest sorted by entry
    tuple."""

    __slots__ = ("dim", "elements", "generators")

    def __init__(self, dim: int, elements: list[tuple[tuple[int, ...], int]],
                 generators: list[tuple[tuple[int, ...], int]]):
        self.dim = dim
        self.elements = list(elements)
        self.generators = list(generators)
        if (not self.elements
                or self.elements[0] != permutation_matrix(range(dim))):
            raise ValueError("element list must start with the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_group(self) -> PermutationGroup:
        """The abstract group as permutations, via left translation on
        element indices.  The translation by element a sends index 0
        (the identity matrix) to a, so sorting the permutations by image
        tuple reproduces the matrix order: position i holds the
        translation by element i.  Only the generators are translated,
        |generators| * |G| matrix products: the translations form a group
        isomorphic to G, so their closure gives the rest."""
        index = {m: i for i, m in enumerate(self.elements)}

        def translation(a: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
            return as_permutation(index[_product(a, x)] for x in self.elements)

        return closure([translation(g) for g in self.generators])


def matrix_closure(generators: list[tuple[tuple[int, ...], int]]
                   ) -> MatrixGroup:
    """Close a generator list of matrix pairs (nums, den) under
    multiplication.

    A finite set of invertible matrices containing the identity and
    closed under products is a group (each element's powers cycle), so
    plain product saturation suffices; left and right products by the
    generators close to the same set, and `partial(_product, g)` is the
    left one.  The size d is read off the first generator's d^2
    numerators, and every generator must have d^2 of them.  A generator
    is invertible when its integer numerator rows are independent.  The
    elements after the identity are sorted by their integer entries over
    the group's common denominator, which is the lexicographic order of
    their entries.  The closure stops with PreconditionError once it
    passes `hull.MAX_VERTICES`, the most points a hull takes, so an
    infinite group stops there too.
    """
    if not generators:
        raise PreconditionError("matrix closure needs at least one generator")
    dim = isqrt(len(generators[0][0]))
    for nums, _ in generators:
        if len(nums) != dim * dim:
            raise PreconditionError("generators must be square of equal size")
        rows = (nums[i:i + dim] for i in range(0, dim * dim, dim))
        if sum(1 for _ in _independent_rows(rows)) < dim:
            raise PreconditionError("generator is not invertible")
    ident = permutation_matrix(range(dim))
    seen = saturate([ident], [partial(_product, g) for g in generators],
                    MAX_VERTICES)
    others = [m for m in seen if m != ident]
    keys = _common_form(others)[0]
    others = [m for _, m in sorted(zip(keys, others), key=itemgetter(0))]
    return MatrixGroup(dim, [ident] + others, list(generators))


def matrix_group_from_perm_group(group: PermutationGroup) -> MatrixGroup:
    """The permutation matrices of a permutation group, acting on its own
    points.  For a cyclic shift on |G| points this is the regular
    representation; for S_n on n points it is the standard one."""
    gens = group.generators or [group.identity]
    return matrix_closure([permutation_matrix(g) for g in gens])


def regular_matrix_group(group: PermutationGroup) -> MatrixGroup:
    """Left regular representation: |G| x |G| permutation matrices of the
    translation action of G on itself.  Only the generators' translations
    x -> g x are built, |generators| * |G| products; the closure of their
    matrices gives the rest, so G's table is never needed."""
    idx = group.index
    gens = group.generators or [group.identity]
    # g x = _right_mul(x)(g) on image tuples
    return matrix_closure([
        permutation_matrix([idx[_right_mul(x)(g)] for x in group.elements])
        for g in gens])


def representation_polytope(mgroup: MatrixGroup) -> Polytope:
    """Convex hull of the row-major vectorized elements, vertex i being
    element i, hulled as integer rows over the group's common denominator.

    Every element is a vertex, so a failed vertex certificate is a fault
    of the hull, an InvariantError, never of the input.  The argument:
    left multiplication by g is a linear map of the matrices that sends
    the element set G onto itself, so it maps P(G) = conv(G) onto itself
    and vertices to vertices.  Every vertex of the hull of a finite set
    lies in the set, so some element a is a vertex, and then so is
    b = (b a^-1) a for every element b.  `certify_vertices` checks it on
    the hull's incidence all the same.  A group of more than
    `hull.MAX_VERTICES` elements is refused by the hull's own bound,
    PreconditionError, before the double description starts."""
    polytope = facet_enumeration(*_common_form(mgroup.elements))
    if not all(certify_vertices(polytope)):
        raise InvariantError(
            "an element vectorization is not a vertex of the hull")
    return polytope


def verify_gamma_acts(mgroup: MatrixGroup) -> dict:
    """Check that every left translation x -> g x and every right
    translation x -> x g^-1 of the element set is a combinatorial
    symmetry of the representation polytope, and report inversion
    x -> x^-1 apart.  The symmetries form a group and g -> lambda_g,
    g -> rho_g are homomorphisms, so G's generators g decide: 2 |gens| + 1
    maps on the element group, whose elements are in matrix order.
    lambda_g is its generator for g, iota its inverse positions, and
    rho_g = iota lambda_g iota, as (g x^-1)^-1 = x g^-1.

    The report: `group_order`, the polytope's `aut_order`, whether the
    translations preserve it (`lambda_pass`, `rho_pass`), whether
    inversion does (`iota_in_group`), and `passed`, the translations'
    verdict."""
    inc = representation_polytope(mgroup).incidence
    group = mgroup.element_group()
    iota = group.inv
    lams = group.generators
    lambda_pass = all(map(inc.preserved_by, lams))
    rho_pass = all(inc.preserved_by([iota[lam[y]] for y in iota])
                   for lam in lams)
    return {
        "group_order": mgroup.order,
        "aut_order": comb_automorphisms(inc).order,
        "lambda_pass": lambda_pass,
        "rho_pass": rho_pass,
        "iota_in_group": inc.preserved_by(iota),
        "passed": lambda_pass and rho_pass,
    }


def matrix_from_rows(rows: list[list]) -> tuple[tuple[int, ...], int]:
    """The square matrix of integer or "p/q" cells, read as integer pairs
    and put over the lcm of their denominators, as a `_matrix` pair."""
    pairs = []
    for row in rows:
        if len(row) != len(rows):
            raise ValueError("matrix rows must be square")
        pairs.extend(_rational_pair(str(cell)) for cell in row)
    return _matrix(*_over_lcm(pairs))


def matrix_group_from_document(doc: dict) -> "CatalogEntry":
    """Parse {"name"?, "dim", "generators", "order"?, "expect_equivalent"?}
    where each generator is a dim x dim array of integers or "p/q"
    strings, "name" is a string, "order" an integer and
    "expect_equivalent" a boolean; null is the same as leaving a field
    out.  A document of another shape raises ValueError."""
    if not isinstance(doc, dict) or "generators" not in doc or "dim" not in doc:
        raise ValueError("matrix group document needs 'dim' and 'generators'")
    dim, gen_docs = doc["dim"], doc["generators"]
    if type(dim) is not int or not isinstance(gen_docs, list):
        raise ValueError("'dim' must be an integer and 'generators' a list")
    if dim < 1:
        raise ValueError(f"'dim' must be at least 1, got {dim}")
    for field, kind, what in (("order", int, "an integer"),
                              ("expect_equivalent", bool, "a boolean"),
                              ("name", str, "a string")):
        if doc.get(field) is not None and type(doc[field]) is not kind:
            raise ValueError(f"'{field}' must be {what}")
    gens = []
    for rows in gen_docs:
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("each generator must be a list of rows")
        if len(rows) != dim:
            raise ValueError("generator does not match declared dim")
        gens.append(matrix_from_rows(rows))
    mgroup = matrix_closure(gens)
    declared = doc.get("order")
    if declared is not None and mgroup.order != declared:
        raise ValueError(
            f"closure has order {mgroup.order}, document declares {declared}")
    return CatalogEntry(
        name="unnamed" if doc.get("name") is None else doc["name"],
        matrix_group=mgroup,
        expect_equivalent=doc.get("expect_equivalent"),
        declared_order=declared,
    )


def load_exceptional_c6() -> MatrixGroup:
    """The 4-dimensional order-6 matrix group whose representation
    polytope is combinatorially equivalent to B_3 without being a
    permutation representation of S_3."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "c6_exceptional.json")
    with open(path, "rb") as f:
        return matrix_group_from_document(json.loads(f.read())).matrix_group


class CatalogEntry(NamedTuple):
    """A named matrix group and its expected equivalence with B_n."""
    name: str
    matrix_group: MatrixGroup
    expect_equivalent: Optional[bool] = None
    declared_order: Optional[int] = None


def default_catalog(n: int) -> list[CatalogEntry]:
    """The hand-made catalog of matrix groups compared with B_n by
    `uniqueness_check`, each with its expected verdict and order.  It
    exists for n in {3, 4} only and refuses any other n: the one owner
    of that range."""
    if n == 3:
        return [
            CatalogEntry("s3_standard",
                         matrix_group_from_perm_group(named_group("s3")),
                         expect_equivalent=True, declared_order=6),
            CatalogEntry("c6_exceptional", load_exceptional_c6(),
                         expect_equivalent=True, declared_order=6),
            CatalogEntry("c6_regular",
                         matrix_group_from_perm_group(named_group("c6")),
                         expect_equivalent=False, declared_order=6),
            CatalogEntry("s3_regular",
                         regular_matrix_group(named_group("s3")),
                         expect_equivalent=False, declared_order=6),
            CatalogEntry("c4_regular",
                         matrix_group_from_perm_group(named_group("c4")),
                         expect_equivalent=False, declared_order=4),
            CatalogEntry("v4_regular",
                         matrix_group_from_perm_group(named_group("v4")),
                         expect_equivalent=False, declared_order=4),
        ]
    if n == 4:
        return [
            CatalogEntry("s4_standard",
                         matrix_group_from_perm_group(named_group("s4")),
                         expect_equivalent=True, declared_order=24),
            CatalogEntry("d4_standard",
                         matrix_group_from_perm_group(named_group("d4")),
                         expect_equivalent=False, declared_order=8),
            CatalogEntry("c4_regular",
                         matrix_group_from_perm_group(named_group("c4")),
                         expect_equivalent=False, declared_order=4),
        ]
    raise PreconditionError("uniqueness check supports n in {3, 4}")


def uniqueness_check(n: int,
                     catalog: Optional[list[CatalogEntry]] = None
                     ) -> dict:
    """Compare each catalog entry's representation polytope with B_n
    combinatorially, emitting a vertex bijection witness when they are
    equivalent.  B_n's incidence is `birkhoff_facets(n)`, certified
    with no hull.

    The report: `n`, `entries`, one report per catalog entry, and
    `passed`, all entries' verdict.  An entry's report holds its `name`,
    its group's `order`, its polytope's `dim`, `n_vertices` and
    `n_facets`, whether it is `equivalent` to B_n, the `expected` answer
    or None, the vertex bijection `witness` or None, and `passed`: no
    expected answer, or a match with it.

    With no catalog, `default_catalog(n)` is compared, so n is 3 or 4; a
    given catalog may use any n in 3..`birkhoff.MAX_N`, the range of the
    certified reference, which refuses any other n before an entry's
    polytope is hulled."""
    if catalog is None:
        catalog = default_catalog(n)
    reference, _ = birkhoff_facets(n)
    entry_reports = []
    for entry in catalog:
        if (entry.declared_order is not None
                and entry.matrix_group.order != entry.declared_order):
            raise ValueError(
                f"catalog entry {entry.name}: closure order "
                f"{entry.matrix_group.order} != declared {entry.declared_order}")
        polytope = representation_polytope(entry.matrix_group)
        witness = comb_equivalent(polytope.incidence, reference)
        equivalent = witness is not None
        ok = entry.expect_equivalent is None or equivalent == entry.expect_equivalent
        entry_reports.append({
            "name": entry.name,
            "order": entry.matrix_group.order,
            "dim": polytope.dim,
            "n_vertices": polytope.n_vertices,
            "n_facets": polytope.n_facets,
            "equivalent": equivalent,
            "expected": entry.expect_equivalent,
            "witness": witness,
            "passed": ok,
        })
    return {"n": n, "entries": entry_reports,
            "passed": all(e["passed"] for e in entry_reports)}
