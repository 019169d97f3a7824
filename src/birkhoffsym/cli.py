"""Command line front end.

Each subcommand runs exactly one library operation and prints a single
JSON report to stdout (diagnostics go to stderr).  Exit status: 0 when
the check passed, 1 when it ran and failed, 2 on usage errors, 3 on
violated preconditions or malformed inputs, 4 when an internal
certificate broke (`errors.InvariantError`: the program is at fault, not
the input), and 141 (128 + SIGPIPE) when stdout was closed before the
report was written; that exit prints nothing more.

`COMMANDS` is the one table of subcommands: each one's handler, help
text, positionals and options.  `read_argv` reads argv against it.  The
command word comes first; options are named in full (no abbreviations)
and take `--name value` or `--name=value`; flags take no value;
positionals go in order, with options before or after them; every
command takes `--json`/`--no-json`, the last one winning.  Integers are
decimal literals, read by `exact._integer` (no `+`, `_` or non-ASCII
digits).  `-h`/`--help` prints the command list, or a command's usage
line, to stdout and exits 0.  A usage error prints the usage line and
`birkhoffsym: error: <reason>` to stderr and exits 2.

Group arguments accept a built-in name (s3, s4, s5, c2, c3, c4, c6, v4,
d4, q8) or a path to a text file with one generator in cycle notation
per line.  Alpha files for `decompose` list n! 0-based vertex images,
one per line.  Vertex and matrix-group files are JSON documents; see the
README for their shapes.  Every input file is read by the one reader,
`_read_text`: its bytes decoded as UTF-8 whatever the locale, so bytes
that do not decode exit 3 as invalid input.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn, Optional, Sequence

from . import birkhoff, cd, gamma, hull, reppoly
from .errors import InvariantError, PreconditionError
from .exact import _integer, _integers
from .perm import (PermutationGroup, _semiregular_order, as_permutation,
                   builtin_group_names, cycle_string,
                   group_from_generator_lines, named_group)
from .reports import render_report


def _load_group(arg: str, max_order: int) -> tuple[str, PermutationGroup]:
    if arg.lower() in builtin_group_names():
        return arg.lower(), named_group(arg.lower(), max_order)
    _require_group_file(arg)
    return "G", group_from_generator_lines(_read_text(arg).splitlines(),
                                           max_order)


def _require_group_file(arg: str) -> None:
    if not os.path.isfile(arg):
        raise PreconditionError(
            f"unknown group {arg!r}: not a built-in name "
            f"({', '.join(builtin_group_names())}) and not a file")


def _subgroup_name(base_name: str, group: PermutationGroup,
                   members: frozenset[int]) -> str:
    """The name of the subgroup at the given positions of G; its element
    orders are read only when neither 1 nor G names it."""
    order = len(members)
    if order == 1:
        return "1"
    if order == group.order:
        return base_name.upper()
    orders = list(map(group.orders.__getitem__, members))
    if max(orders) == order:
        return f"C{order}"
    if order == 4:
        return "V4"
    if order == 6:
        return "S3"
    if order == 8:
        involutions = orders.count(2)
        if involutions == 5:
            return "D4"
        if involutions == 1:
            return "Q8"
    return f"order{order}"


def _read_text(path: str) -> str:
    """The text of an input file: its bytes decoded as strict UTF-8,
    whatever the locale, with each line ending read as "\n" as text mode
    reads it.  Bytes that do not decode raise `UnicodeDecodeError`, a
    `ValueError`."""
    with open(path, "rb") as f:
        text = f.read().decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_json(path: str):
    """The JSON document in a file; nesting too deep for the decoder, or
    an integer too long for `int`, is refused as malformed input."""
    try:
        return json.loads(_read_text(path), parse_int=_integer)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_alpha(path: str, n_points: int) -> tuple[int, ...]:
    lines = map(str.strip, _read_text(path).splitlines())
    images = _integers([s for s in lines if s and not s.startswith("#")])
    if len(images) != n_points:
        raise PreconditionError(
            f"alpha file lists {len(images)} images, expected {n_points}")
    return as_permutation(images)


def _cmd_verify_table(args):
    r = birkhoff.verify_intersection_table(args.n)
    return r["passed"], {"n": args.n}, r


def _cmd_verify_transform(args):
    r = birkhoff.verify_transformation_law(args.n)
    return r["passed"], {"n": args.n}, r


def _cmd_verify_symmetry_group(args):
    r = birkhoff.verify_symmetry_group(args.n)
    return r["passed"], {"n": args.n}, r


def _cmd_decompose(args):
    if not 3 <= args.n <= birkhoff.MAX_N:
        raise PreconditionError(
            f"decomposition supports 3 <= n <= {birkhoff.MAX_N}")
    n_points = math.factorial(args.n)
    # --alpha wins over the positional file when both are given
    path = args.alpha if args.alpha is not None else args.alpha_positional
    if args.identity and path is not None:
        raise PreconditionError(
            f"decompose takes --identity or the alpha file {path!r}, "
            "not both")
    if args.identity:
        alpha = tuple(range(n_points))
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
        "sigma": cycle_string(dec.sigma),
        "tau": cycle_string(dec.tau),
        "epsilon": dec.epsilon,
    }
    return True, inputs, details


def _cmd_cd_lattice(args):
    name, group = _load_group(args.group, args.bound)
    r = cd.cd_lattice(group, bound=args.bound)
    members = [{
        "name": _subgroup_name(name, group, sub),
        "order": len(sub),
        "generators": [cycle_string(group.elements[g])
                       for g in gens] or ["()"],
    } for sub, gens in r["lattice"]]
    details = dict(r, lattice=[m["name"] for m in members], members=members)
    return (r["closure_pass"] and r["subnormal_pass"], {"group": args.group},
            details)


def _cmd_sn_cent_est(args):
    r = cd.verify_centralizer_estimate(args.n)
    return r["passed"], {"n": args.n}, r


def _cmd_wreath(args):
    _, group = _load_group(args.group, gamma.MAX_GAMMA_BASE)
    r = gamma.verify_wreath_quotient(group)
    return r["passed"], {"group": args.group}, r


def _cmd_regular_pairs(args):
    # Gamma(G) is listed only for |G| <= MAX_GAMMA_BASE: refuse a larger G
    # while loading it, before its fibers are read
    _, group = _load_group(args.group, gamma.MAX_GAMMA_BASE)
    fibers = gamma.gamma_fibers(group)
    pairs = gamma.commuting_regular_pairs(fibers)

    def describe(u: tuple) -> dict:
        # u is regular: each element's order is its cycle through 0
        return {"order": len(u),
                "cyclic": max(map(_semiregular_order, u)) == len(u)}

    details = {
        "group_order": group.order,
        "gamma_order": sum(map(len, fibers)),
        "pair_count": len(pairs),
        "pairs": [{
            "u": describe(u),
            "v": describe(v),
            "u_equals_v": u == v,
        } for u, v in pairs],
    }
    return True, {"group": args.group}, details


def _cmd_normalizer(args):
    _, group = _load_group(args.group, gamma.MAX_GAMMA_BASE)
    r = gamma.normalizer_in_full_symmetric(group)
    return r["passed"], {"group": args.group}, r


def _cmd_uniqueness(args):
    r = reppoly.uniqueness_check(args.n)
    return r["passed"], {"n": args.n}, r


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
        _require_group_file(args.group)
        mgroup = reppoly.matrix_group_from_document(
            _read_json(args.group)).matrix_group
    polytope = reppoly.representation_polytope(mgroup)
    details = hull.polytope_to_document(polytope)
    details["order"] = mgroup.order
    details["matrix_dim"] = mgroup.dim
    return True, {"group": args.group}, details


class Arg(NamedTuple):
    """One argument of a command: the namespace attribute it sets, the
    name its usage shows (an option is `--dest SHOWN`), how a value is
    read (None for a flag, which takes no value and sets True) and the
    value when it is absent (REQUIRED: it must be given)."""
    dest: str
    shown: str
    read: Optional[Callable[[str], object]]
    default: object = None


REQUIRED = object()
DESCRIPTION = ("Exact verification of the combinatorial symmetries of doubly\n"
               "stochastic polytopes and representation polytopes.")
N = Arg("n", "n", _integer, REQUIRED)
GROUP = Arg("group", "GROUP", str, REQUIRED)


class Command(NamedTuple):
    """A subcommand: its handler, the help text `-h` lists, and its
    arguments."""
    handler: Callable
    help: str
    positionals: tuple[Arg, ...] = ()
    options: tuple[Arg, ...] = ()


COMMANDS = {
    "verify-table": Command(
        _cmd_verify_table,
        "check the facet-set intersection size table for B_n", (N,)),
    "verify-transform": Command(
        _cmd_verify_transform,
        "check sigma A_ij tau^-1 = A_(tau i, sigma j) and A_ij^-1 = A_ji", (N,)),
    "verify-symmetry-group": Command(
        _cmd_verify_symmetry_group,
        "hull + automorphism search + decomposition round-trip for B_n", (N,)),
    "decompose": Command(
        _cmd_decompose,
        "write a vertex bijection of B_n as (sigma, tau, epsilon)",
        (N, Arg("alpha_positional", "alpha-file", str)),
        (Arg("alpha", "ALPHA", str), Arg("identity", "", None, False))),
    "cd-lattice": Command(
        _cmd_cd_lattice,
        "measure-maximizing subgroup lattice with closure checks",
        options=(GROUP, Arg("bound", "BOUND", _integer, 200))),
    "sn-cent-est": Command(
        _cmd_sn_cent_est,
        "centralizer order estimate across all subgroups of S_n, n = 4 to 7",
        (N,)),
    "wreath": Command(
        _cmd_wreath,
        "order formula 2|G|^2/|Z(G)| and kernel check for Gamma(G)",
        options=(GROUP,)),
    "regular-pairs": Command(
        _cmd_regular_pairs,
        "commuting pairs of regular subgroups inside Gamma(G)",
        options=(GROUP,)),
    "normalizer": Command(
        _cmd_normalizer,
        "normalizer of Gamma(G) in the full symmetric group on G",
        options=(GROUP,)),
    "uniqueness": Command(
        _cmd_uniqueness,
        "compare catalog representation polytopes against B_n", (N,)),
    "hull": Command(
        _cmd_hull,
        "facet enumeration of a rational vertex set from a JSON file",
        (Arg("vertices", "vertices", str, REQUIRED),)),
    "rep-polytope": Command(
        _cmd_rep_polytope,
        "hull of a matrix group (built-in name or JSON generator file)",
        options=(GROUP,)),
}


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "usage: birkhoffsym [-h] <command> [<args>]"
    words = ["usage: birkhoffsym", name, "[-h] [--json | --no-json]"]
    for arg in COMMANDS[name].options:
        text = f"--{arg.dest} {arg.shown}" if arg.read else f"--{arg.dest}"
        words.append(text if arg.default is REQUIRED else f"[{text}]")
    for arg in COMMANDS[name].positionals:
        words.append(arg.shown if arg.default is REQUIRED else f"[{arg.shown}]")
    return " ".join(words)


def _usage_error(name: Optional[str], reason: str) -> NoReturn:
    print(_usage(name), f"birkhoffsym: error: {reason}", sep="\n",
          file=sys.stderr)
    raise SystemExit(2)


def _help(name: Optional[str]) -> NoReturn:
    if name is None:
        print(_usage(None), "", DESCRIPTION, "", "commands:",
              *(f"  {cmd:<23}{spec.help}" for cmd, spec in COMMANDS.items()),
              sep="\n")
    else:
        print(_usage(name), "", COMMANDS[name].help, sep="\n")
    raise SystemExit(0)


def _is_option(word: str) -> bool:
    """A word that names an option: a leading "-", unless the word is "-"
    alone or a negative number, which are values."""
    return word.startswith("-") and word != "-" and not word[1:].isdigit()


def _value(name: str, arg: Arg, label: str, text: str) -> object:
    try:
        return arg.read(text)
    except ValueError as exc:
        _usage_error(name, f"argument {label}: {exc}")


def read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace a handler reads: `command`, `handler`, `json` and
    one attribute per argument of the command, its default when absent.
    The grammar, help and usage errors are as the module docstring
    says: `-h` raises SystemExit(0), a usage error SystemExit(2)."""
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            _help(None)
        _usage_error(None, "the following arguments are required: command")
    name, *rest = argv
    spec = COMMANDS.get(name)
    if spec is None:
        _usage_error(None, f"unknown command {name!r} "
                           f"(choose from {', '.join(COMMANDS)})")
    values = {"json": True}
    values.update((arg.dest, arg.default)
                  for arg in spec.positionals + spec.options)
    flags = {"--json": ("json", True), "--no-json": ("json", False)}
    flags.update((f"--{arg.dest}", (arg.dest, True))
                 for arg in spec.options if arg.read is None)
    options = {f"--{arg.dest}": arg for arg in spec.options if arg.read}
    positionals = iter(spec.positionals)
    words = iter(rest)
    for word in words:
        if word in ("-h", "--help"):
            _help(name)
        if not _is_option(word):
            arg = next(positionals, None)
            if arg is None:
                _usage_error(name, f"unrecognized arguments: {word}")
            values[arg.dest] = _value(name, arg, arg.shown, word)
            continue
        key, eq, text = word.partition("=")
        if key in flags:
            if eq:
                _usage_error(name, f"argument {key}: takes no value")
            dest, value = flags[key]
            values[dest] = value
            continue
        if key not in options:
            _usage_error(name, f"unrecognized arguments: {word}")
        if not eq:
            text = next(words, None)
            if text is None or _is_option(text):
                _usage_error(name, f"argument {key}: expected one argument")
        values[options[key].dest] = _value(name, options[key], key, text)
    missing = [arg.shown for arg in spec.positionals
               if values[arg.dest] is REQUIRED]
    missing += [f"--{arg.dest}" for arg in spec.options
                if values[arg.dest] is REQUIRED]
    if missing:
        _usage_error(name, "the following arguments are required: "
                           + ", ".join(missing))
    # the handler is looked up by name on each call, so a wrapper rebound
    # on this module (bench/spans.py times each command that way) is the
    # one called
    return SimpleNamespace(command=name,
                           handler=globals()[spec.handler.__name__], **values)


CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a killed writer


def main(argv=None) -> int:
    """Run one command; its exit status is the module docstring's."""
    try:
        try:
            return _run(sys.argv[1:] if argv is None else argv)
        finally:
            # a closed stdout fails here, not at interpreter shutdown; the
            # error replaces a SystemExit from -h or a usage error
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: point it at the null device, so the flush at
        # interpreter shutdown finds no broken pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT


def _run(argv: Sequence[str]) -> int:
    args = read_argv(argv)
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
    if args.json:
        print(render_report({"command": args.command, "inputs": inputs,
                             "pass": passed, "details": details,
                             "runtime_ms": runtime_ms}))
    else:
        print(("PASS" if passed else "FAIL") + f" {args.command}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
