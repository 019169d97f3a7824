"""Seeded input generator for the three benchmark workloads.

`write_workload(name, seed, directory, draw)` writes every input file the
workload's tasks read, plus `tasks.json`: the ordered task list, each task
with the exact values its result must show.  Each round of a run uses its
own draw; the same (name, seed, draw) gives byte-identical files.  The
program under test never sees the seed, only these files and the
command-line arguments in the task list.

Everything here is the benchmark's own code: permutations, exact rational
matrices and the expected answers are computed without importing
`birkhoffsym`, so a defect in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

WORKLOADS = ("bn-symmetry", "group-tables", "rep-hull")

# Small rationals for the random invertible matrices (hull map and
# conjugators).  Zero keeps the matrices sparse enough that the exact
# arithmetic stays at desk scale.
SMALL_RATIONALS = tuple(Fraction(t) for t in
                        ("0", "0", "0", "1", "-1", "2", "-2", "1/2", "-1/2",
                         "1/3", "-2/3", "3/2"))


# --- permutations (image tuples, (p*q)(x) = p(q(x))) -----------------------

def compose(p, q):
    return tuple(p[x] for x in q)


def invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def cycle_text(p):
    """Cycle notation with least points first, "()" for the identity."""
    seen, out = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc, x = [start], p[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def parse_cycle_text(text, degree):
    images = list(range(degree))
    for body in text.replace(")", "").split("("):
        pts = [int(t) for t in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def group_closure(gens):
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                prod = compose(w, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


# Generators of the abstract groups the workloads relabel.
BASE_GROUPS = {
    "s3": (3, ("(0 1)", "(0 1 2)")),
    "s4": (4, ("(0 1)", "(0 1 2 3)")),
    "s5": (5, ("(0 1)", "(0 1 2 3 4)")),
    "d4": (4, ("(0 1 2 3)", "(0 2)")),
    "q8": (8, ("(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)")),
    "c6": (6, ("(0 1 2 3 4 5)",)),
    "c4": (4, ("(0 1 2 3)",)),
    "v4": (4, ("(0 1)(2 3)", "(0 2)(1 3)")),
}


def base_group(name):
    degree, texts = BASE_GROUPS[name]
    gens = [parse_cycle_text(t, degree) for t in texts]
    return degree, gens, sorted(group_closure(gens))


def relabelled_generator_lines(name, rng):
    """A random generating set of the named group, written on a random
    relabelling of its points, one generator per line in cycle notation.
    Every group here is transitive, so each point is moved by some
    generator and the file's degree equals the group's degree."""
    degree, _, elements = base_group(name)
    order = len(elements)
    while True:
        gens = [rng.choice(elements) for _ in range(rng.choice((2, 3)))]
        if len(group_closure(gens)) == order:
            break
    label = list(range(degree))
    rng.shuffle(label)
    lines = []
    for g in gens:
        images = [0] * degree
        for i, x in enumerate(g):
            images[label[i]] = label[x]
        lines.append(cycle_text(images))
    return "".join(line + "\n" for line in lines)


# --- exact matrices (lists of lists of Fraction) ----------------------------

def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def rref(rows):
    """Reduced row echelon form of a copy of `rows` (lists of Fractions):
    (nonzero reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def mat_inverse(m):
    """Exact inverse, or None for a singular matrix."""
    n = len(m)
    reduced, pivots = rref([list(r) + [Fraction(int(i == j)) for j in range(n)]
                            for i, r in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def random_invertible(rng, n):
    while True:
        m = [[rng.choice(SMALL_RATIONALS) for _ in range(n)] for _ in range(n)]
        inv = mat_inverse(m)
        if inv is not None:
            return m, inv


def perm_matrix(p):
    """P[i][j] = 1 iff p(j) = i."""
    n = len(p)
    return [[Fraction(int(p[j] == i)) for j in range(n)] for i in range(n)]


def text(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_text(m):
    return [[text(x) for x in row] for row in m]


# --- B_n combinatorics -------------------------------------------------------

def sn_lex(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


def bn_tight_sets(n):
    """Facet tight sets of B_n as vertex-index sets: {pi : pi(i) != j}."""
    perms = sn_lex(n)
    return sorted(sorted(v for v, p in enumerate(perms) if p[i] != j)
                  for i in range(n) for j in range(n))


def symmetry_images(n, sigma, tau, eps):
    """Vertex images of pi -> sigma pi^eps tau in the lexicographic order."""
    perms = sn_lex(n)
    index = {p: v for v, p in enumerate(perms)}
    return [index[compose(compose(sigma, p if eps == 1 else invert(p)), tau)]
            for p in perms]


# --- workloads ---------------------------------------------------------------

def _cli(task_id, argv, expect):
    return {"id": task_id, "kind": "cli", "argv": argv, "expect": expect}


def _lib(task_id, call, args, expect):
    return {"id": task_id, "kind": "lib", "call": call, "args": args,
            "expect": expect}


def _bn_symmetry(rng, d: Path):
    tasks = [
        _cli("vsg3", ["verify-symmetry-group", "3"],
             {"rc": 0, "details": {"aut_order": 72, "n_facets": 9, "dim": 4,
                                   "roundtrip_failures": 0}}),
        _cli("vsg4", ["verify-symmetry-group", "4"],
             {"rc": 0, "details": {"aut_order": 1152, "n_facets": 16, "dim": 9,
                                   "roundtrip_failures": 0}}),
        _cli("vt4", ["verify-transform", "4"],
             {"rc": 0, "details": {"translation_cases": 9216,
                                   "inversion_cases": 16, "failures": []}}),
        _cli("vtab5", ["verify-table", "5"],
             {"rc": 0, "details": {"cases_checked": 625, "failures": []}}),
    ]
    for n, n_sym, n_non in ((4, 3, 1), (5, 8, 2)):
        perms = sn_lex(n)
        for k in range(n_sym + n_non):
            sigma, tau = rng.choice(perms), rng.choice(perms)
            eps = rng.choice((1, -1))
            images = symmetry_images(n, sigma, tau, eps)
            if k < n_sym:
                expect = {"rc": 0, "sigma": list(sigma), "tau": list(tau),
                          "epsilon": eps}
            else:
                u, v = rng.sample(range(len(images)), 2)
                images[u], images[v] = images[v], images[u]
                expect = {"rc": 1}
            path = d / f"alpha_n{n}_{k}.txt"
            path.write_text("".join(f"{x}\n" for x in images))
            tasks.append(_cli(f"decompose{n}", ["decompose", str(n), str(path)],
                              expect))
    # B_4 under an invertible rational linear map of R^16: the map is a
    # bijection of the vertex set that keeps every face, so the tight sets
    # stay {pi : pi(i) != j} in the same vertex order.
    a, _ = random_invertible(rng, 16)
    vertices = []
    for p in sn_lex(4):
        x = [[e] for row in perm_matrix(p) for e in row]
        vertices.append([text(row[0]) for row in mat_mul(a, x)])
    path = d / "b4_mapped.json"
    path.write_text(json.dumps({"vertices": vertices}) + "\n")
    tasks.append(_cli("hull-b4", ["hull", str(path)],
                      {"rc": 0, "details": {"n_vertices": 24, "n_facets": 16,
                                            "dim": 9},
                       "tight_sets": bn_tight_sets(4)}))
    return tasks


def _group_tables(rng, d: Path):
    def group_file(name, use):
        path = d / f"{use}_{name}_{len(tasks)}.txt"
        path.write_text(relabelled_generator_lines(name, rng))
        return str(path)

    tasks = []
    for name, count in (("s3", 7), ("s4", 1)):
        tasks.append(_cli(f"pairs-{name}",
                          ["regular-pairs", "--group", group_file(name, "pairs")],
                          {"rc": 0, "details": {"pair_count": count}}))
    for name, order in (("s3", 72), ("s4", 1152), ("d4", 64), ("c6", 12)):
        tasks.append(_cli(f"wreath-{name}",
                          ["wreath", "--group", group_file(name, "wreath")],
                          {"rc": 0, "details": {"actual_order": order,
                                                "expected_order": order}}))
    for _ in range(3):
        tasks.append(_cli("normalizer-s3",
                          ["normalizer", "--group",
                           group_file("s3", "normalizer")],
                          {"rc": 0, "details": {"normalizer_order": 72,
                                                "aut_gamma_order": 72}}))
    for name, subgroups, lattice in (("s4", 30, [1, 24]), ("s5", 156, [1, 120]),
                                     ("d4", 10, [2, 4, 4, 4, 8]),
                                     ("q8", 6, [2, 4, 4, 4, 8])):
        tasks.append(_cli(f"cd-{name}",
                          ["cd-lattice", "--group", group_file(name, "cd")],
                          {"rc": 0, "details": {"subgroup_count": subgroups,
                                                "closure_pass": True,
                                                "subnormal_pass": True},
                           "lattice_orders": lattice}))
    for n, subgroups in ((4, 30), (5, 156)):
        tasks.append(_cli(f"cent-est{n}", ["sn-cent-est", str(n)],
                          {"rc": 0, "details": {"subgroup_count": subgroups,
                                                "equality_orders": [1, factorial(n)],
                                                "violations": []}}))
    return tasks


C6_FIXTURE = [["0", "1", "0", "0"], ["-1", "-1", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "1"]]


def _left_regular(name):
    _, gens, elements = base_group(name)
    index = {g: i for i, g in enumerate(elements)}
    return [perm_matrix([index[compose(g, x)] for x in elements]) for g in gens]


def _standard(name):
    return [perm_matrix(g) for g in base_group(name)[1]]


# Catalog groups: name -> (generator matrices, order, polytope type).
# Type "b3"/"b4" means combinatorially B_3/B_4, "simplex" a simplex, and
# ("facets", k, dim) a fixed other shape.
def catalog_groups():
    c6 = [[Fraction(x) for x in row] for row in C6_FIXTURE]
    return {
        "s3_standard": (_standard("s3"), 6, "b3"),
        "c6_exceptional": ([c6], 6, "b3"),
        "c6_regular": (_standard("c6"), 6, "simplex"),
        "s3_regular": (_left_regular("s3"), 6, "simplex"),
        "c4_regular": (_standard("c4"), 4, "simplex"),
        "v4_regular": (_standard("v4"), 4, "simplex"),
        "s4_standard": (_standard("s4"), 24, "b4"),
        "d4_standard": (_standard("d4"), 8, ("facets", 8, 5)),
    }


def polytope_expect(order, kind):
    if kind == "b3":
        return {"n_vertices": 6, "n_facets": 9, "dim": 4}
    if kind == "b4":
        return {"n_vertices": 24, "n_facets": 16, "dim": 9}
    if kind == "simplex":
        return {"n_vertices": order, "n_facets": order, "dim": order - 1}
    return {"n_vertices": order, "n_facets": kind[1], "dim": kind[2]}


def _conjugate_doc(rng, name, gens, order, path: Path, **extra):
    """P^-1 G P for a fresh random invertible P with small p/q entries."""
    p, p_inv = random_invertible(rng, len(gens[0]))
    doc = {"name": name, "dim": len(p), "order": order,
           "generators": [matrix_text(mat_mul(mat_mul(p_inv, g), p))
                          for g in gens]}
    doc.update(extra)
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def _rep_hull(rng, d: Path):
    groups = catalog_groups()
    tasks = []
    # The C_6 fixture, the paper's exceptional B_3, gets two conjugates.
    # That makes 13 tasks a round: with an odd count the median latency
    # falls inside one task's samples, not on the gap between two tasks.
    for k, name in enumerate((*groups, "c6_exceptional")):
        gens, order, kind = groups[name]
        path = _conjugate_doc(rng, name, gens, order, d / f"rep{k}_{name}.json")
        expect = dict(polytope_expect(order, kind), order=order)
        tasks.append(_cli(f"rep-{name}", ["rep-polytope", "--group", path],
                          {"rc": 0, "details": expect}))
    for n, names in ((3, ("s3_standard", "c6_exceptional", "c6_regular",
                          "s3_regular", "c4_regular", "v4_regular")),
                     (4, ("s4_standard", "d4_standard", "c4_regular"))):
        docs, entries = [], []
        for name in names:
            gens, order, kind = groups[name]
            equivalent = kind == f"b{n}"
            docs.append(_conjugate_doc(rng, name, gens, order,
                                       d / f"catalog{n}_{name}.json",
                                       expect_equivalent=equivalent))
            entries.append({"name": name, "equivalent": equivalent,
                            **polytope_expect(order, kind)})
        tasks.append(_lib(f"uniqueness{n}", "uniqueness",
                          {"n": n, "docs": docs},
                          {"passed": True, "entries": entries}))
    for name in ("s3_standard", "c6_exceptional"):
        gens, order, _ = groups[name]
        path = _conjugate_doc(rng, name, gens, order, d / f"gamma_{name}.json")
        tasks.append(_lib(f"gamma-acts-{name}", "gamma_acts", {"doc": path},
                          {"group_order": 6, "aut_order": 72,
                           "lambda_pass": True, "rho_pass": True,
                           "iota_in_group": True, "passed": True}))
    return tasks


_BUILDERS = {"bn-symmetry": _bn_symmetry, "group-tables": _group_tables,
             "rep-hull": _rep_hull}


def write_workload(name: str, seed: int, directory: Path, draw: int = 0) -> list[dict]:
    """Write draw number `draw` of the workload's input files, and
    tasks.json, under `directory` (paths in the task list are relative to
    the current directory, as the benchmark runs from the repository root)
    and return the task list."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}:{draw}")
    tasks = _BUILDERS[name](rng, directory)
    (directory / "tasks.json").write_text(json.dumps(tasks, indent=1) + "\n")
    return tasks
