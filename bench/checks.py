"""Correctness checks on every task outcome, run after the worker exits.

`check(task, outcome)` returns None when the outcome shows exactly the
values fixed in the task's `expect`, else a one-line reason.  A wrong exit
code, a wrong report value, unparsable output or an exception in the
worker are all failures.  The facet test for uniqueness witnesses is the
benchmark's own exact arithmetic, not the package's.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import bn_tight_sets, parse_cycle_text, rref, sn_lex


def is_facet(points, members, dim):
    """True iff the points indexed by `members` are exactly the points on
    one facet of conv(points), whose affine dimension is `dim`."""
    x0 = points[members[0]]
    diffs = [[a - b for a, b in zip(points[v], x0)] for v in members[1:]]
    reduced, pivots = rref(diffs)
    if len(pivots) != dim - 1:
        return False
    ncols = len(x0)
    on_facet = set(members)
    others = [v for v in range(len(points)) if v not in on_facet]
    for free in (c for c in range(ncols) if c not in pivots):
        normal = [Fraction(0)] * ncols
        normal[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            normal[pc] = -row[free]
        values = [sum((a * (b - c) for a, b, c in zip(normal, points[v], x0)),
                      Fraction(0)) for v in others]
        if any(values):
            return all(x > 0 for x in values) or all(x < 0 for x in values)
    return False


def matrix_group_vertices(doc):
    """Vectorised elements of the matrix group a catalog document
    generates, in the package's documented element order: the identity
    first, the rest sorted by entry tuple."""
    gens = [tuple(Fraction(x) for row in g for x in row) for g in doc["generators"]]
    d = doc["dim"]

    def mul(a, b):
        return tuple(sum((a[i * d + k] * b[k * d + j] for k in range(d)),
                         Fraction(0)) for i in range(d) for j in range(d))

    ident = tuple(Fraction(int(i == j)) for i in range(d) for j in range(d))
    seen, frontier = {ident}, [ident]
    while frontier:
        products = {mul(m, g) for m in frontier for g in gens} - seen
        seen |= products
        frontier = list(products)
    return [ident] + sorted(seen - {ident})


def witness_ok(doc, witness, n, dim):
    """A witness maps entry vertex v to B_n vertex witness[v].  It is a
    combinatorial equivalence when it is a bijection and each facet of B_n
    pulls back to a facet of the entry's polytope."""
    size = len(sn_lex(n))
    if witness is None or sorted(witness) != list(range(size)):
        return False
    points = matrix_group_vertices(doc)
    if len(points) != size:
        return False
    position = {w: v for v, w in enumerate(witness)}
    return all(is_facet(points, sorted(position[w] for w in tight), dim)
               for tight in bn_tight_sets(n))


def _subset_mismatch(expected: dict, got: dict, where: str):
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{where}{key}={got.get(key)!r}, expected {want!r}"
    return None


class Checker:
    """Checks outcomes; remembers witnesses already proven for an input,
    since every round of a run reads the same files."""

    def __init__(self):
        self._proven: set = set()

    def check(self, task, outcome):
        if "error" in outcome:
            return "exception: " + outcome["error"].strip().splitlines()[-1]
        expect = task["expect"]
        if task["kind"] == "lib":
            return self._check_library(task, outcome["result"], expect)
        if outcome.get("rc") != expect["rc"]:
            stderr = outcome.get("stderr", "").strip()
            return (f"exit code {outcome.get('rc')}, expected {expect['rc']}"
                    + (f": {stderr.splitlines()[-1]}" if stderr else ""))
        try:
            report = json.loads(outcome["stdout"])
        except ValueError:
            return "report is not JSON"
        if report.get("pass") is not (expect["rc"] == 0):
            return f"pass={report.get('pass')!r} with exit code {expect['rc']}"
        details = report.get("details", {})
        mismatch = _subset_mismatch(expect.get("details", {}), details, "")
        if mismatch:
            return mismatch
        if "sigma" in expect:
            n = int(task["argv"][1])
            for key in ("sigma", "tau"):
                if parse_cycle_text(str(details.get(key)), n) != tuple(expect[key]):
                    return f"{key}={details.get(key)!r}, expected {expect[key]}"
            if details.get("epsilon") != expect["epsilon"]:
                return f"epsilon={details.get('epsilon')!r}"
        if "tight_sets" in expect:
            got = sorted(sorted(v for v, hit in enumerate(row) if hit)
                         for row in details.get("incidence", []))
            if got != expect["tight_sets"]:
                return "facet tight sets differ from {pi : pi(i) != j}"
        if "lattice_orders" in expect:
            got = sorted(m["order"] for m in details.get("members", []))
            if got != expect["lattice_orders"]:
                return f"lattice orders {got}, expected {expect['lattice_orders']}"
        return None

    def _check_library(self, task, result, expect):
        if task["call"] == "gamma_acts":
            return _subset_mismatch(expect, result, "")
        if result.get("passed") is not True:
            return "uniqueness verdict failed"
        entries = result.get("entries", [])
        if len(entries) != len(expect["entries"]):
            return "wrong number of catalog entries"
        n = task["args"]["n"]
        for doc_path, want, got in zip(task["args"]["docs"], expect["entries"],
                                       entries):
            mismatch = _subset_mismatch(want, got, f"{want['name']}: ")
            if mismatch:
                return mismatch
            witness = got.get("witness")
            if not want["equivalent"]:
                if witness is not None:
                    return f"{want['name']}: witness for a non-equivalent entry"
                continue
            key = (doc_path, tuple(witness or ()))
            if key in self._proven:
                continue
            with open(doc_path) as fh:
                doc = json.load(fh)
            if not witness_ok(doc, witness, n, want["dim"]):
                return f"{want['name']}: witness is not an equivalence"
            self._proven.add(key)
        return None
