"""Command line front end.

Each subcommand runs exactly one library operation and prints a single
JSON report to stdout (diagnostics go to stderr).  Exit status: 0 when
the check passed, 1 when it ran and failed, 2 on usage errors, 3 on
violated preconditions or malformed inputs, 4 when an internal
certificate broke (`errors.InvariantError`: the program is at fault, not
the input).

Group arguments accept a built-in name (s3, s4, s5, c2, c3, c4, c6, v4,
d4, q8) or a path to a text file with one generator in cycle notation
per line.  Alpha files for `decompose` list n! 0-based vertex images,
one per line.  Vertex and matrix-group files are JSON documents; see the
README for their shapes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import birkhoff, cd, gamma, hull, reppoly
from .errors import InvariantError, PreconditionError
from .exact import _integer, _integers
from .perm import (Permutation, PermutationGroup, builtin_group_names,
                   group_from_generator_lines, named_group)
from .reports import Report, render_report


def _load_group(arg: str, max_order: int) -> tuple[str, PermutationGroup]:
    if arg.lower() in builtin_group_names():
        return arg.lower(), named_group(arg.lower(), max_order)
    path = Path(arg)
    if not path.is_file():
        raise PreconditionError(
            f"unknown group {arg!r}: not a built-in name "
            f"({', '.join(builtin_group_names())}) and not a file")
    return "G", group_from_generator_lines(path.read_text().splitlines(), max_order)


def _subgroup_name(base_name: str, group: PermutationGroup,
                   sub: PermutationGroup) -> str:
    if sub.order == 1:
        return "1"
    if sub.order == group.order:
        return base_name.upper()
    orders = [p.order() for p in sub.elements]
    if max(orders) == sub.order:
        return f"C{sub.order}"
    if sub.order == 4:
        return "V4"
    if sub.order == 6:
        return "S3"
    if sub.order == 8:
        involutions = sum(1 for o in orders if o == 2)
        if involutions == 5:
            return "D4"
        if involutions == 1:
            return "Q8"
    return f"order{sub.order}"


def _read_json(path: str):
    """The JSON document in a file; nesting too deep for the decoder, or
    an integer too long for `int`, is refused as malformed input."""
    try:
        return json.loads(Path(path).read_text(), parse_int=_integer)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_alpha(path: str, n_points: int) -> Permutation:
    lines = map(str.strip, Path(path).read_text().splitlines())
    images = _integers([s for s in lines if s and not s.startswith("#")])
    if len(images) != n_points:
        raise PreconditionError(
            f"alpha file lists {len(images)} images, expected {n_points}")
    return Permutation(images)


def _cmd_verify_table(args):
    r = birkhoff.verify_intersection_table(args.n)
    return r.passed, {"n": args.n}, r


def _cmd_verify_transform(args):
    r = birkhoff.verify_transformation_law(args.n)
    return r.passed, {"n": args.n}, r


def _cmd_verify_symmetry_group(args):
    r = birkhoff.verify_symmetry_group(args.n)
    return r.passed, {"n": args.n}, r


def _cmd_decompose(args):
    if not 3 <= args.n <= birkhoff.MAX_N:
        raise PreconditionError(
            f"decomposition supports 3 <= n <= {birkhoff.MAX_N}")
    n_points = math.factorial(args.n)
    # --alpha wins over the positional file when both are given
    path = args.alpha if args.alpha is not None else args.alpha_positional
    if args.identity:
        alpha = Permutation(range(n_points))
        inputs = {"n": args.n, "alpha": "identity"}
    elif path is not None:
        alpha = _read_alpha(path, n_points)
        inputs = {"n": args.n, "alpha": path}
    else:
        raise PreconditionError("decompose needs --alpha <file> or --identity")
    try:
        dec = birkhoff.decompose_symmetry(args.n, alpha)
    except (birkhoff.NotFacetSymmetryError,
            birkhoff.InconsistentSymmetryError) as exc:
        return False, inputs, {"error": str(exc)}
    details = {
        "sigma": dec.sigma.cycle_string(),
        "tau": dec.tau.cycle_string(),
        "epsilon": dec.epsilon,
    }
    return True, inputs, details


def _cmd_cd_lattice(args):
    name, group = _load_group(args.group, args.bound)
    r = cd.cd_lattice(group, bound=args.bound)
    members = [{
        "name": _subgroup_name(name, group, sub),
        "order": sub.order,
        "generators": [g.cycle_string() for g in
                       (sub.generators or sub.elements[:1])],
    } for sub in r.lattice]
    details = {
        "group_order": r.group_order,
        "subgroup_count": r.subgroup_count,
        "max_measure": r.max_measure,
        "lattice": [m["name"] for m in members],
        "members": members,
        "closure_pass": r.closure_pass,
        "subnormal_pass": r.subnormal_pass,
    }
    return r.closure_pass and r.subnormal_pass, {"group": args.group}, details


def _cmd_sn_cent_est(args):
    r = cd.verify_centralizer_estimate(args.n)
    return r.passed, {"n": args.n}, r


def _cmd_wreath(args):
    _, group = _load_group(args.group, gamma.MAX_GAMMA_BASE)
    r = gamma.verify_wreath_quotient(group)
    return r.passed, {"group": args.group}, r


def _cmd_regular_pairs(args):
    # Gamma(G) is built only for |G| <= MAX_GAMMA_BASE: refuse a larger G
    # while loading it, before Gamma(G) is closed
    _, group = _load_group(args.group, gamma.MAX_GAMMA_BASE)
    gamma_group = gamma.build_gamma(group)
    pairs = gamma.commuting_regular_pairs(gamma_group)

    def describe(u: PermutationGroup) -> dict:
        return {"order": u.order,
                "cyclic": max(p.order() for p in u.elements) == u.order}

    details = {
        "group_order": group.order,
        "gamma_order": gamma_group.order,
        "pair_count": len(pairs),
        "pairs": [{
            "u": describe(u),
            "v": describe(v),
            "u_equals_v": u == v,
        } for u, v in pairs],
    }
    return True, {"group": args.group}, details


def _cmd_normalizer(args):
    _, group = _load_group(args.group, gamma.MAX_NORMALIZER_BASE)
    r = gamma.normalizer_in_full_symmetric(group)
    return r.passed, {"group": args.group}, r


def _cmd_uniqueness(args):
    r = reppoly.uniqueness_check(args.n)
    return r.passed, {"n": args.n}, r


def _cmd_hull(args):
    rows, scale = hull.polytope_from_document(_read_json(args.vertices))
    polytope = hull.facet_enumeration(rows, scale)
    details = hull.polytope_to_document(polytope)
    return True, {"vertices": args.vertices}, details


def _cmd_rep_polytope(args):
    if args.group.lower() in builtin_group_names():
        mgroup = reppoly.matrix_group_from_perm_group(named_group(
            args.group.lower(), hull.MAX_VERTICES))
    else:
        path = Path(args.group)
        if not path.is_file():
            raise PreconditionError(
                f"unknown group {args.group!r}: not a built-in name and not a file")
        mgroup = reppoly.matrix_group_from_document(
            _read_json(path)).matrix_group
    polytope = reppoly.representation_polytope(mgroup)
    details = hull.polytope_to_document(polytope)
    details["order"] = mgroup.order
    details["matrix_dim"] = mgroup.dim
    return True, {"group": args.group}, details


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Parsing
    keeps no state on it, so `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="birkhoffsym",
        description="Exact verification of the combinatorial symmetries of "
                    "doubly stochastic polytopes and representation polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action=argparse.BooleanOptionalAction,
                       default=True, help="emit a JSON report (default on)")
        return p

    p = add("verify-table", _cmd_verify_table,
            "check the facet-set intersection size table for B_n")
    p.add_argument("n", type=int)

    p = add("verify-transform", _cmd_verify_transform,
            "check sigma A_ij tau^-1 = A_(tau i, sigma j) and A_ij^-1 = A_ji")
    p.add_argument("n", type=int)

    p = add("verify-symmetry-group", _cmd_verify_symmetry_group,
            "hull + automorphism search + decomposition round-trip for B_n")
    p.add_argument("n", type=int)

    p = add("decompose", _cmd_decompose,
            "write a vertex bijection of B_n as (sigma, tau, epsilon)")
    p.add_argument("n", type=int)
    p.add_argument("alpha_positional", nargs="?", default=None,
                   metavar="alpha-file",
                   help="file of n! 0-based images, one per line")
    p.add_argument("--alpha", default=None,
                   help="file of n! 0-based images, one per line")
    p.add_argument("--identity", action="store_true",
                   help="decompose the identity bijection")

    p = add("cd-lattice", _cmd_cd_lattice,
            "measure-maximizing subgroup lattice with closure checks")
    p.add_argument("--group", required=True)
    p.add_argument("--bound", type=int, default=200)

    p = add("sn-cent-est", _cmd_sn_cent_est,
            "centralizer order estimate across all subgroups of S_n, n = 4, 5, 6")
    p.add_argument("n", type=int)

    p = add("wreath", _cmd_wreath,
            "order formula 2|G|^2/|Z(G)| and kernel check for Gamma(G)")
    p.add_argument("--group", required=True)

    p = add("regular-pairs", _cmd_regular_pairs,
            "commuting pairs of regular subgroups inside Gamma(G)")
    p.add_argument("--group", required=True)

    p = add("normalizer", _cmd_normalizer,
            "normalizer of Gamma(G) in the full symmetric group on G")
    p.add_argument("--group", required=True)

    p = add("uniqueness", _cmd_uniqueness,
            "compare catalog representation polytopes against B_n")
    p.add_argument("n", type=int)

    p = add("hull", _cmd_hull,
            "facet enumeration of a rational vertex set from a JSON file")
    p.add_argument("vertices", help="JSON file with a 'vertices' array")

    p = add("rep-polytope", _cmd_rep_polytope,
            "hull of a matrix group (built-in name or JSON generator file)")
    p.add_argument("--group", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        passed, inputs, details = args.handler(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal certificate failed: {exc}", file=sys.stderr)
        return 4
    runtime_ms = int((time.perf_counter() - start) * 1000)
    report = Report(command=args.command, inputs=inputs, passed=passed,
                    details=details, runtime_ms=runtime_ms)
    if args.json:
        print(render_report(report))
    else:
        print(("PASS" if passed else "FAIL") + f" {args.command}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
