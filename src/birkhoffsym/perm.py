"""Finite permutations and explicitly listed permutation groups.

Conventions, fixed once and used everywhere:

* A permutation of degree m acts on points 0..m-1 and is its image
  tuple p, p[i] the image of i.  `as_permutation` checks outside input
  (an alpha file, cycle notation, a matrix group's translations) to be
  one; a product or inverse of such tuples is one by construction.
* Composition is right-to-left: (p * q)(x) = p(q(x)), i.e. q acts first.
* Cycle notation uses the same point labels: "(0 1 2)(3 4)", identity
  "()"; `cycle_string` writes it.
* A group holds each element once, as its image tuple: `elements` is
  their sorted tuple, so the identity (0, 1, ..., m-1) comes first.
  `_inverse` and `_order` are the one inverse and order on such tuples.
* A group carries the generating set it was built from, as image
  tuples; none is ever recovered from the element list.
* Only this module builds a `PermutationGroup`, for a group the program
  is given or closes.  A subgroup the program derives is held as members
  of its group: image tuples, or positions on the group's table.

Groups are listed in full up to thousands of elements, where explicit
lists beat stabilizer chains in simplicity.
`saturate` is the package's one closure.  Plain, it runs breadth-first
under unary steps: products by fixed factors, in C as one
`operator.itemgetter` per factor (`_right_mul`), or permutations of
points.  In coset mode it grows a subgroup H to <H, g> one whole coset
at a time (Dimino's algorithm): `closure_images` (for `closure` and
`wreath`), `closure_indices` and the regular-pair search in `gamma`
build their groups so.
`PermutationGroup.table` is the multiplication table on positions in
the element list (identity at 0), built on first read along the Cayley
graph of the generators, so generators that do not generate the group
raise InvariantError; past MAX_TABLE_ORDER = 5040 elements (S_7, for
`sn-cent-est 7`) it raises PreconditionError before a row is built.
`centralizer_indices` and `normalizer_indices` read whole columns of it
in C.  Only routines reading most products build it.
`isomorphisms` extends maps, from any prefix of generator images, along
the same Cayley graph, and `subgroup_classes` enumerates subgroups up to
conjugacy on it, stopped once its classes times |G| pass
MAX_SUBGROUP_WORK.  `orders`, the element orders, is read once off the
image tuples.

Cycle notation names points by number, and the degree follows from the
largest point named.  `_cycle_points` reads it for `parse_cycles` and
`group_from_generator_lines` alike; they refuse a degree, or a point,
past MAX_DEGREE before any image list is built.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from itertools import compress, count
from math import factorial, lcm
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvariantError, PreconditionError
from .exact import _integers, _shown

MAX_DEGREE = 4096  # points 0..MAX_DEGREE-1 are the most cycle notation may name
MAX_IMAGE_CHOICES = 50_000  # generator images one isomorphism search tries
MAX_TABLE_ORDER = 5040  # most elements of a group whose table is built
MAX_SUBGROUP_WORK = 4_000_000  # classes x |G|: C_2^7 29 212 x 128, S_7 96 x 5040


def _not_a_permutation(images: tuple) -> str:
    """The error text for an image tuple that is no bijection: its first
    image that is not an `int`, or else its first repeated or
    out-of-range image and first missing point, not all."""
    points = range(len(images))
    head = f"not a permutation of 0..{len(images) - 1}: image "
    for at, x in enumerate(images):
        if type(x) is not int:
            return f"{head}{_shown(str(x))} at position {at} is not an int"
    first = {x: i for i, x in reversed(list(enumerate(images)))}
    at = next(i for i, x in enumerate(images) if x not in points or first[x] < i)
    fault = "repeats" if images[at] in points else "is out of range"
    return (f"{head}{_shown(str(images[at]))} at position {at} {fault}, "
            f"point {min(set(points) - first.keys())} is missing")


def as_permutation(images: Iterable[int]) -> tuple[int, ...]:
    """The image tuple of `images`, checked to be a bijection of
    0..m-1; ValueError names the fault (`_not_a_permutation`).  Called
    only where outside input becomes a permutation."""
    images = tuple(images)
    # bool and float images sort like ints: refuse every other type
    if (not set(map(type, images)) <= {int}
            or sorted(images) != list(range(len(images)))):
        raise ValueError(_not_a_permutation(images))
    return images


def cycle_string(p: Sequence[int]) -> str:
    """Cycle notation of p: its nontrivial cycles, each from its least
    point, in the order of those points; "()" for the identity."""
    cycles = [c for c in _cycles(p) if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


_NOTATION_RE = re.compile(r"\s*(?:\([^()]*\)\s*)*")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_TOKEN_RE = re.compile(r"[^\s,]+")


def _cycle_points(text: str) -> list[list[int]]:
    """The points of each cycle in cycle notation, as written, separated
    by spaces or commas; "()" and "" name none.  Malformed notation, or a
    token `_integers` refuses, raises ValueError."""
    if not _NOTATION_RE.fullmatch(text):
        raise ValueError(f"malformed cycle notation: {_shown(text)}")
    return [_integers(_TOKEN_RE.findall(body))
            for body in _CYCLE_RE.findall(text)]


def _permutation_of(cycles: list[list[int]], degree: int,
                    text: str) -> tuple[int, ...]:
    """The permutation of `degree` points with the cycles read from `text`."""
    images = list(range(degree))
    used: set[int] = set()
    for points in cycles:
        for p in points:
            if p < 0 or p >= degree:
                raise ValueError(f"point {p} out of range for degree {degree}")
            if p in used:
                raise ValueError(f"point {p} repeated in {_shown(text)}")
            used.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return as_permutation(images)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse cycle notation like "(0 1)(2 3)" into a permutation of the
    given degree.  "()" or an empty string is the identity.  Points may be
    separated by spaces or commas.  Repeated points, and degrees above
    MAX_DEGREE, are rejected.
    """
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    return _permutation_of(_cycle_points(text), degree, text)


class PermutationGroup:
    """A finite permutation group given by its full element list and a
    generating set.

    `elements` is the sorted tuple of the members' image tuples, each
    held once: `index` maps the same tuples to their positions.  The
    constructor takes image tuples that are known to be bijections, such
    as the members of a closure, and checks only that the identity is
    among them and that all have its degree.  `generators` is a tuple of
    image tuples that generate the group (the trivial group may have
    none).  Equality ignores the generators and compares element sets.
    The table on the positions, `table`, the inverse positions, `inv`,
    and the element orders, `orders`, are built on first read and kept
    with the group.
    """

    __slots__ = ("degree", "elements", "generators", "index", "_table",
                 "_inv", "_orders")

    def __init__(self, elements: Iterable[tuple[int, ...]],
                 generators: Sequence[tuple[int, ...]]):
        keys = tuple(sorted(set(elements)))
        if not keys or keys[0] != tuple(range(len(keys[0]))):
            raise ValueError("element list must contain the identity")
        degree = len(keys[0])
        if any(len(k) != degree for k in keys):
            raise ValueError("element of wrong degree")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "elements", keys)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "index", {k: i for i, k in enumerate(keys)})
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_orders", None)

    def __setattr__(self, name, value):
        raise AttributeError("PermutationGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> tuple[int, ...]:
        return self.elements[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermutationGroup)
                and self.degree == other.degree
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        gens = ", ".join(map(cycle_string, self.generators))
        return f"PermutationGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"

    @property
    def table(self) -> list[list[int]]:
        """table[a][b] is the position of elements[a] * elements[b].

        Built along the Cayley graph of the generators: each generator's
        row is looked up product by product, and every other row is a
        known row gathered at another, table[s y][b] =
        table[s][table[y][b]], one C-level `itemgetter` per row.  A
        group of more than MAX_TABLE_ORDER elements raises
        PreconditionError before a row is built.  A generator outside the
        element list, a product outside it, or a row no word in the
        generators reaches raises InvariantError, never a partial table."""
        if self._table is None:
            idx = self.index
            n = len(idx)
            if n > MAX_TABLE_ORDER:
                raise PreconditionError(f"group of order {n} exceeds "
                                        f"table bound {MAX_TABLE_ORDER}")
            table: list = [None] * n
            table[0] = list(range(n))
            try:
                gens = [idx[g] for g in self.generators]
                for s, g in zip(gens, self.generators):
                    if table[s] is None:  # g b for each b, looked up
                        table[s] = [idx[_right_mul(b)(g)] for b in idx]
            except KeyError:
                raise InvariantError("a generator or one of its products "
                                     "lies outside the element list") from None

            def left_mul(s: int) -> Callable[[int], int]:
                """y -> s y, building row s y from rows s and y on first reach."""
                row_s = table[s]

                def step(y: int) -> int:
                    p = row_s[y]
                    if table[p] is None:
                        table[p] = list(itemgetter(*table[y])(row_s))
                    return p
                return step

            if len(saturate([0], [left_mul(s) for s in gens])) < n:
                raise InvariantError("the generators do not generate the "
                                     "group: table rows left unreached")
            object.__setattr__(self, "_table", table)
        return self._table

    @property
    def inv(self) -> list[int]:
        """inv[a] is the position of the inverse of elements[a]."""
        if self._inv is None:
            object.__setattr__(self, "_inv", list(map(
                self.index.__getitem__, map(_inverse, self.elements))))
        return self._inv

    @property
    def orders(self) -> list[int]:
        """orders[a] is the order of elements[a], read off its image tuple
        (degree points), not off its table row (|G| points)."""
        if self._orders is None:
            object.__setattr__(self, "_orders",
                               list(map(_order, self.elements)))
        return self._orders

    def closure_indices(self, seeds: Iterable[int],
                        members: frozenset[int] = frozenset({0})
                        ) -> frozenset[int]:
        """Positions of the subgroup generated by the seed positions,
        grown one seed at a time by `saturate`'s coset mode: steps
        w -> t w (row t) for the seeds t so far, left cosets p H read off
        row p at H's positions, one `itemgetter` call.  `members` are the
        positions of the subgroup H that the leading seeds generate
        (default: the trivial group); a seed already in H costs no stage,
        so <H, g> is closed from H in one, not from the identity seed by
        seed."""
        table = self.table
        steps = []
        for s in seeds:
            steps.append(table[s].__getitem__)
            if s not in members:
                # 0 is in H: read it twice, so that even for H = 1 the
                # itemgetter returns a tuple of positions
                coset = itemgetter(0, *members)
                members = saturate(members, steps, None,
                                   lambda p, h=coset: h(table[p]))
        return frozenset(members)

    def centralizer_indices(self, indices: Iterable[int]) -> frozenset[int]:
        """Positions of the elements commuting with every given position.
        Passing a generating set of H is enough for C_G(H): the elements
        commuting with a fixed g form a subgroup, so if it holds H's
        generators it holds all of H.  C(h) is read off whole columns:
        the g with table[g][h] == table[h][g]."""
        table = self.table
        cent = frozenset(range(len(table)))
        for h in indices:
            cent = cent.intersection(compress(
                count(), map(eq, map(itemgetter(h), table), table[h])))
        return cent

    def normalizer_indices(self, members: frozenset[int],
                           gens: Iterable[int]) -> list[int]:
        """Positions m, ascending, with m g m^-1 in `members` for every
        given g.  Passing a generating set of the subgroup H with those
        members is enough for N_G(H): m H m^-1 is then a subset of H of
        the same size.  For each g, m g m^-1 is read for every m at once:
        column g gives m g, whose row is read at m^-1."""
        table, inv = self.table, self.inv
        norm = set(range(len(table)))
        for g in gens:
            conj = map(list.__getitem__,
                       map(table.__getitem__, map(itemgetter(g), table)), inv)
            norm.intersection_update(
                compress(count(), map(members.__contains__, conj)))
        return sorted(norm)

    def isomorphisms(self, rows: Sequence[Sequence[int]],
                     targets: Sequence[int],
                     prefix: Sequence[int] = ()) -> Iterator[list[int]]:
        """Each isomorphism onto the group on 0..m-1 (identity 0) with
        products rows[a][b] and element orders targets[a], as the images
        of this group's positions, that sends the first len(prefix)
        generators to the positions in `prefix`; none when the element
        orders differ as multisets.

        By generator images (Holt, Eick & O'Brien, Handbook of
        Computational Group Theory, 2005): each generator s in turn goes
        to its prefix position, or to each t of its order, or to its
        image if already reached, and the map grows along the Cayley
        graph, pi(x s) = pi(x) t, while every edge agrees and no image
        repeats.  So it is a homomorphism, by induction on word length,
        and a bijection.  Past MAX_IMAGE_CHOICES choices it raises
        PreconditionError."""
        table, orders, m = self.table, self.orders, len(rows)
        gens = [self.index[g] for g in self.generators]
        if sorted(orders) != sorted(targets):
            return
        stack, tried = [(0, [0] + [-1] * (m - 1))], count(1)
        while stack:
            level, pi = stack.pop()
            if level == len(gens):
                yield pi
                continue
            s = gens[level]
            if level < len(prefix):
                images = [prefix[level]]
            elif pi[s] >= 0:
                images = [pi[s]]
            else:
                images = compress(range(m), map(orders[s].__eq__, targets))
            for t in images:
                if next(tried) > MAX_IMAGE_CHOICES:
                    raise PreconditionError(
                        "isomorphism search exceeds bound "
                        f"{MAX_IMAGE_CHOICES} generator images")
                steps = [(g, pi[g]) for g in gens[:level]] + [(s, t)]
                new, used = pi[:], set(pi)
                queue = [x for x in range(m) if pi[x] >= 0]  # grows with new
                for x, g, image in ((x, *e) for x in queue for e in steps):
                    y, z = table[x][g], rows[new[x]][image]
                    if new[y] < 0 and z not in used:
                        new[y] = z
                        used.add(z)
                        queue.append(y)
                    elif new[y] != z:
                        break
                else:
                    stack.append((level + 1, new))


def saturate(seeds: Iterable, steps: Sequence[Callable],
             cap: Optional[int] = None,
             coset: Optional[Callable[..., Iterable]] = None) -> set:
    """Closure of the seeds under the unary steps, breadth-first: each
    known w is extended to step(w) for each step until nothing new
    appears (the orbit algorithm; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, 4.1).  With the steps products by
    generators of a finite group and the identity seeded, this is the
    subgroup they generate; with permutations of points, the orbit.

    Coset mode (Dimino's algorithm; Butler, LNCS 559, 1991): the seeds
    are a subgroup H, the steps multiply by every generator of <H, g> on
    one side, and coset(p) is p's coset of H on the other: H p for steps
    w -> w s, p H for w -> s w.  The known set stays a union of such
    cosets, and one element of each is extended: (H r) s = H (r s) is
    known iff r s is.  So the result is closed under every generator,
    hence <H, g>, and each new coset costs one C-level call, not |H|
    products.  More than `cap` elements (checked per coset) raises
    PreconditionError, so a runaway or infinite closure stops early.
    """
    known = set(seeds)
    frontier = list(known) if coset is None else [next(iter(known))]
    while frontier:
        nxt = []
        for w in frontier:
            for step in steps:
                p = step(w)
                if p not in known:
                    if coset is None:
                        known.add(p)
                    else:
                        known.update(coset(p))
                    nxt.append(p)
                    if cap is not None and len(known) > cap:
                        raise PreconditionError(
                            f"closure exceeds bound {cap}")
        frontier = nxt
    return known


def _right_mul(g: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """w -> w * g on image tuples, run in C: itemgetter(*g)(w)[i] is
    w[g[i]].  On one point itemgetter would return an int, and the only
    permutation there is the identity, so `tuple` stands in for it."""
    return itemgetter(*g) if len(g) > 1 else tuple


def _inverse(p: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of p^-1, the one inverse of the package."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _cycles(p: Sequence[int]) -> Iterator[list[int]]:
    """The cycles of p, fixed points included, each from its least point,
    in the order of those points."""
    seen = bytearray(len(p))
    for start in range(len(p)):
        if not seen[start]:
            cycle, x = [], start
            while not seen[x]:
                seen[x] = 1
                cycle.append(x)
                x = p[x]
            yield cycle


def _order(p: Sequence[int]) -> int:
    """The order of p: the lcm of its cycle lengths.  A p whose cycles
    all have one length reads `_semiregular_order` instead."""
    return lcm(*map(len, _cycles(p)))


def _semiregular_order(p: Sequence[int]) -> int:
    """The order of a semiregular p, one whose cycles all have one
    length, as every element of a regular group has: the length of its
    cycle through 0, a walk of ord(p) points, where `_order` walks all of
    them."""
    k, x = 1, p[0]
    while x:
        k, x = k + 1, p[x]
    return k


def closure_images(generators: Sequence[tuple[int, ...]],
                   max_order: Optional[int] = None) -> set[tuple[int, ...]]:
    """The set of image tuples of the group the given image tuples
    generate, one generator g at a time: a g already in the group H is
    skipped, else H grows to <H, g> by `saturate`'s coset mode, steps
    _right_mul of each generator so far, right cosets H p.  max_order
    aborts runaways."""
    seen, steps = {tuple(range(len(generators[0])))}, []
    for g in generators:
        steps.append(_right_mul(g))
        if g not in seen:
            seen = saturate(seen, steps, max_order,
                            lambda p, h=seen: map(_right_mul(p), h))
    return seen


def closure(generators: Sequence[tuple[int, ...]],
            max_order: Optional[int] = None) -> PermutationGroup:
    """Group generated by the given image tuples (`closure_images`)."""
    if not generators:
        raise ValueError("closure needs at least one generator")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators act on different point sets")
    # every member is a product of the generators, bijections already
    return PermutationGroup(closure_images(generators, max_order), generators)


@lru_cache(maxsize=8)
def symmetric_group(n: int) -> PermutationGroup:
    """S_n on points 0..n-1 with transposition and n-cycle generators.
    Cached, since the group is immutable; its element order, by image
    tuple, is the vertex order of B_n.  An n with n! > MAX_TABLE_ORDER
    raises PreconditionError before any element is listed, and without
    computing n! when n alone passes the ceiling."""
    if n < 1:
        raise ValueError("symmetric_group needs n >= 1")
    if n > MAX_TABLE_ORDER or factorial(n) > MAX_TABLE_ORDER:
        raise PreconditionError(f"S_{n} exceeds table bound {MAX_TABLE_ORDER}")
    elements = itertools.permutations(range(n))
    if n == 1:
        return PermutationGroup(elements, ((0,),))
    t = parse_cycles("(0 1)", n)
    c = (*range(1, n), 0)
    return PermutationGroup(elements, (t,) if n == 2 else (t, c))


SubgroupClass = list[tuple[frozenset[int], tuple[int, ...]]]


def subgroup_classes(group: PermutationGroup) -> list[SubgroupClass]:
    """Every subgroup of G up to conjugacy, by cyclic extension (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005).  G
    has at most MAX_TABLE_ORDER elements, as its table refuses more.  The
    order does not bound the subgroups (C_2^10 has over 10^8), but each
    class costs a scan of |G| positions and keeps at most 2|G|, so the
    count of classes times |G| may not pass MAX_SUBGROUP_WORK.

    Returns the conjugacy classes in the order found.  A class lists each
    of its subgroups as (member indices, generator indices) on the
    group's table, the queued representative first; every other member
    x K x^-1 carries the generators of K conjugated by x.

    One representative H per class is extended.  N = N_G(H) is read off
    the table from H's generators, and H is extended by one g per orbit
    of G \\ H under g -> h g (h in H) and g -> m g m^-1 (m in N).  <H, g>
    is closed from H's members, in one coset stage.  When <H, g> is new,
    its whole class is recorded and <H, g> alone is queued.
    Nothing is lost: <H, h g> = <H, g>, and m <H, g> m^-1 = <H, m g m^-1>
    because m normalizes H, so for every k outside H, <H, k> is
    m <H, g> m^-1 for the representative g of k's orbit and some m in N,
    and lies in the class of a closure tried.  Conjugating by x carries
    the extensions of H to those of x H x^-1, so the same holds for every
    member of a recorded class.  By induction along a chain 1 < <g1> <
    <g1, g2> < ... < K, every subgroup K lies in a recorded class.
    """
    table, inv, n = group.table, group.inv, group.order
    classes: list[SubgroupClass] = []
    found: set[frozenset[int]] = set()
    queue: list[tuple[frozenset[int], tuple[int, ...], list[int]]] = []

    def record(members: frozenset[int], gens: tuple[int, ...]) -> None:
        if (len(classes) + 1) * n > MAX_SUBGROUP_WORK:
            raise PreconditionError(f"{len(classes) + 1} subgroup classes x order "
                                    f"{n} exceed bound {MAX_SUBGROUP_WORK}")
        norm = group.normalizer_indices(members, gens)
        # x K x^-1 depends only on the coset x N: one x per coset
        covered = bytearray(n)
        cls: SubgroupClass = []
        for x in range(n):
            if covered[x]:
                continue
            row, x_inv = table[x], inv[x]
            for m in norm:
                covered[row[m]] = 1
            conj = frozenset(table[row[a]][x_inv] for a in members)
            cls.append((conj, tuple(table[row[a]][x_inv] for a in gens)))
            found.add(conj)
        classes.append(cls)
        queue.append((members, gens, norm))

    record(frozenset({0}), ())
    while queue:
        members, gens, norm = queue.pop()
        done = bytearray(n)
        for h in members:
            done[h] = 1
        for g in range(n):
            if done[g]:
                continue
            # the orbit of g: the cosets H (m g m^-1), m in N
            for m in norm:
                c = table[table[m][g]][inv[m]]
                if not done[c]:
                    for h in members:
                        done[table[h][c]] = 1
            closed = group.closure_indices(gens + (g,), members)
            if closed not in found:
                record(closed, gens + (g,))
    return classes


_BUILTIN_GENERATORS: dict[str, tuple[str, ...]] = {
    "c2": ("(0 1)",),
    "c3": ("(0 1 2)",),
    "c4": ("(0 1 2 3)",),
    "c6": ("(0 1 2 3 4 5)",),
    "v4": ("(0 1)(2 3)", "(0 2)(1 3)"),
    "s3": ("(0 1)", "(0 1 2)"),
    "s4": ("(0 1)", "(0 1 2 3)"),
    "s5": ("(0 1)", "(0 1 2 3 4)"),
    "d4": ("(0 1 2 3)", "(0 2)"),
    "q8": ("(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"),
}


def builtin_group_names() -> list[str]:
    return sorted(_BUILTIN_GENERATORS)


def named_group(name: str, max_order: Optional[int] = None) -> PermutationGroup:
    """Builtin small groups by short name (s3, s4, s5, c2, c3, c4, c6, v4,
    d4, q8).  The closure stops with PreconditionError as soon as it
    passes max_order elements, if given."""
    key = name.lower()
    if key not in _BUILTIN_GENERATORS:
        raise ValueError(f"unknown group name {name!r}; "
                         f"available: {', '.join(builtin_group_names())}")
    return group_from_generator_lines(_BUILTIN_GENERATORS[key], max_order)


def group_from_generator_lines(lines: Iterable[str],
                               max_order: Optional[int] = None) -> PermutationGroup:
    """Build a group from cycle-notation generator lines.

    The degree is one plus the largest point mentioned, which must lie
    below MAX_DEGREE; blank lines and # comments are skipped.  A file of
    only "()" lines gives the trivial group of degree 1.  The closure
    stops with PreconditionError past max_order elements, if given.
    """
    texts = [line for line in map(str.strip, lines)
             if line and not line.startswith("#")]
    if not texts:
        raise ValueError("no generator lines found")
    cycles = [_cycle_points(t) for t in texts]
    degree = 1 + max([0, *(p for line in cycles for c in line for p in c)])
    if degree > MAX_DEGREE:
        raise ValueError(f"point {degree - 1} exceeds the cap: "
                         f"points run below {MAX_DEGREE}")
    gens = [_permutation_of(c, degree, t) for c, t in zip(cycles, texts)]
    return closure(gens, max_order=max_order)
