"""The command line as argparse read it, kept as a reference.

`build_parser` is the parser `cli.main` built before `cli.read_argv`
replaced it: the same commands, positionals, options and defaults, read
by argparse.  The tests hand both the same argv and compare the
namespaces, and both must refuse the same bad argv with exit 2.  The
intended differences are exact option names (argparse accepts an
unambiguous abbreviation) and decimal integers (argparse's `int` also
takes `+3`, `0_3` and non-ASCII digits).

`readme_examples` lists the argv of each `birkhoffsym ...` line in the
README's command-line block, so the docs are read by the same reader.
"""

import argparse
import shlex
from functools import lru_cache
from pathlib import Path

from birkhoffsym.cli import (_cmd_cd_lattice, _cmd_decompose, _cmd_hull,
                             _cmd_normalizer, _cmd_regular_pairs,
                             _cmd_rep_polytope, _cmd_sn_cent_est,
                             _cmd_uniqueness, _cmd_verify_symmetry_group,
                             _cmd_verify_table, _cmd_verify_transform,
                             _cmd_wreath)

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[str]]:
    """The argv of each `birkhoffsym` line in the README's first code
    block after the "## Command line" heading, comments dropped."""
    text = README.read_text().split("\n## Command line\n", 1)[1]
    block = text.split("```\n", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("birkhoffsym ")]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser `cli.main` used, kept verbatim; built once,
    since parsing keeps no state on it."""
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
