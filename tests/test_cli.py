"""Command line tests: exit codes, JSON report shape, file inputs, and
the console-script entry point.

The entry-point test runs the ``birkhoffsym`` script when one is on
``PATH`` (an installed package).  Otherwise it runs the target declared
under ``[project.scripts]`` in ``pyproject.toml`` the way the generated
wrapper runs it, so it also passes with a plain ``PYTHONPATH=src``."""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import cli, combiso, gamma, hull, perm, reppoly
from birkhoffsym.birkhoff import SymmetryDecomposition
from birkhoffsym.cli import main
from birkhoffsym.errors import PreconditionError
from birkhoffsym.exact import RationalMatrix
from birkhoffsym.hull import (facet_enumeration, polytope_from_document,
                              polytope_to_document)
from birkhoffsym.perm import parse_cycles
from birkhoffsym.reports import render_report

from hull_oracle import random_point_set
from law_oracle import symmetry_images
from report_oracle import dumps_report


@pytest.fixture(autouse=True)
def reports_as_json_dumps_writes_them(monkeypatch):
    """Every report a test here prints is compared, byte for byte, with
    the text `json.dumps` gives for it."""
    def render_checked(report):
        text = render_report(report)
        assert text == dumps_report(report)
        return text
    monkeypatch.setattr(cli, "render_report", render_checked)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_table_pass(capsys):
    code, doc = run_json(capsys, ["verify-table", "3"])
    assert code == 0
    assert doc["pass"] is True
    assert doc["command"] == "verify-table"
    assert doc["inputs"] == {"n": 3}
    assert doc["details"]["cases_checked"] == 81
    assert doc["details"]["failures"] == []
    assert isinstance(doc["runtime_ms"], int)


def test_verify_table_precondition(capsys):
    assert main(["verify-table", "2"]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["verify-table"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify-table", "three"])
    assert e.value.code == 2


def test_no_json_mode(capsys):
    code = main(["verify-table", "3", "--no-json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "PASS verify-table"


def test_decompose_identity(capsys):
    code, doc = run_json(capsys, ["decompose", "3", "--identity"])
    assert code == 0
    assert doc["details"] == {"sigma": "()", "tau": "()", "epsilon": 1}


def test_decompose_alpha_file(tmp_path, capsys):
    dec = SymmetryDecomposition(parse_cycles("(0 1)", 3), (0, 1, 2), 1)
    images = symmetry_images(3, dec)
    path = tmp_path / "alpha.txt"
    path.write_text("# vertex images\n" +
                    "\n".join(str(x) for x in images) + "\n")
    code, doc = run_json(capsys, ["decompose", "3", "--alpha", str(path)])
    assert code == 0
    assert doc["details"] == {"sigma": "(0 1)", "tau": "()", "epsilon": 1}
    # positional spelling is equivalent
    code2, doc2 = run_json(capsys, ["decompose", "3", str(path)])
    assert code2 == 0
    assert doc2["details"] == doc["details"]


def test_decompose_alpha_option_wins_over_the_positional_file(tmp_path,
                                                              capsys):
    option, positional = tmp_path / "option.txt", tmp_path / "positional.txt"
    for path, sigma in ((option, "(0 1)"), (positional, "(1 2)")):
        dec = SymmetryDecomposition(parse_cycles(sigma, 3), (0, 1, 2), 1)
        path.write_text("\n".join(map(str, symmetry_images(3, dec))))
    code, doc = run_json(capsys, ["decompose", "3", str(positional),
                                  "--alpha", str(option)])
    assert code == 0
    assert doc["inputs"] == {"n": 3, "alpha": str(option)}
    assert doc["details"] == {"sigma": "(0 1)", "tau": "()", "epsilon": 1}


def test_decompose_rejecting_alpha(tmp_path, capsys):
    path = tmp_path / "swap.txt"
    path.write_text("\n".join(map(str, [1, 0, 2, 3, 4, 5])))
    code, doc = run_json(capsys, ["decompose", "3", "--alpha", str(path)])
    assert code == 1
    assert doc["pass"] is False
    assert "error" in doc["details"]


def test_decompose_bad_alpha_length(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("0\n1\n2\n")
    assert main(["decompose", "3", "--alpha", str(path)]) == 3


@pytest.mark.parametrize("images, named", [
    ([0] * 120, "image '0' at position 1 repeats, point 1 is missing"),
    (list(range(119)) + [120],
     "image '120' at position 119 is out of range, point 119 is missing")],
    ids=["repeated", "out-of-range"])
def test_decompose_names_the_fault_of_an_alpha_that_is_no_bijection(
        tmp_path, capsys, images, named):
    # one repeated or out-of-range image and one missing point are named,
    # not the whole image list
    path = tmp_path / "alpha.txt"
    path.write_text("\n".join(map(str, images)))
    assert main(["decompose", "5", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"invalid input: not a permutation of 0..119: {named}\n"


def test_decompose_needs_alpha_or_identity(capsys):
    assert main(["decompose", "3"]) == 3


@pytest.mark.parametrize("argv", [
    ["decompose", "3", "--identity", "alpha.txt"],
    ["decompose", "3", "--alpha", "alpha.txt", "--identity"],
    ["decompose", "3", "positional.txt", "--alpha", "alpha.txt",
     "--identity"]], ids=["positional", "option", "both-files"])
def test_decompose_refuses_an_alpha_file_with_identity(tmp_path, capsys,
                                                       monkeypatch, argv):
    # the identity's decomposition used to be printed and the file never
    # read; the refusal names both inputs, the --alpha file winning
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alpha.txt").write_text("not read\n")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition violated: decompose takes "
                            "--identity or the alpha file 'alpha.txt', "
                            "not both\n")


def test_decompose_checks_n_before_building_alpha(capsys):
    # the identity on 40! vertices used to be built first: OverflowError
    assert main(["decompose", "40", "--identity"]) == 3
    assert "3 <= n <= 5" in capsys.readouterr().err


def test_cd_lattice_s4(capsys):
    code, doc = run_json(capsys, ["cd-lattice", "--group", "s4"])
    assert code == 0
    assert doc["details"]["lattice"] == ["1", "S4"]
    assert doc["details"]["max_measure"] == 24
    assert doc["details"]["subgroup_count"] == 30
    members = doc["details"]["members"]
    assert [m["order"] for m in members] == [1, 24]


def test_cd_lattice_s3_and_d4(capsys):
    code, doc = run_json(capsys, ["cd-lattice", "--group", "s3"])
    assert code == 0
    assert doc["details"]["lattice"] == ["C3"]
    code, doc = run_json(capsys, ["cd-lattice", "--group", "d4"])
    assert code == 0
    assert sorted(doc["details"]["lattice"]) == ["C2", "C4", "D4", "V4", "V4"]


def test_cd_lattice_of_the_trivial_group_file(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    path.write_text("()\n")
    code, doc = run_json(capsys, ["cd-lattice", "--group", str(path)])
    assert code == 0
    assert doc["details"]["lattice"] == ["1"]


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text("# one generator per line\n(0 1 2)\n")
    code, doc = run_json(capsys, ["normalizer", "--group", str(path)])
    assert code == 0
    assert doc["details"]["gamma_order"] == 6
    assert doc["details"]["normalizer_order"] == 6


def test_normalizer_d4_fails(capsys):
    # the first counterexample to N_Sym(G)(Gamma) = Aut(G) Gamma
    code, doc = run_json(capsys, ["normalizer", "--group", "d4"])
    assert code == 1
    assert doc["pass"] is False
    assert (doc["details"]["normalizer_order"],
            doc["details"]["aut_gamma_order"]) == (384, 128)
    assert main(["normalizer", "--group", "d4", "--no-json"]) == 1
    assert capsys.readouterr().out == "FAIL normalizer\n"


@pytest.mark.parametrize("name, order", [("q8", 384), ("s4", 1152),
                                         ("s5", 28800)])
def test_normalizer_passes(capsys, name, order):
    code, doc = run_json(capsys, ["normalizer", "--group", name])
    assert code == 0
    assert doc["details"]["normalizer_order"] == order
    assert doc["details"]["aut_gamma_order"] == order


@pytest.mark.parametrize("k, aut, order", [(4, 20_160, 322_560),
                                           (5, 9_999_360, 319_979_520)])
def test_normalizer_of_c2_power_is_affine(tmp_path, capsys, k, aut, order):
    # Gamma(C_2^k) = lambda(C_2^k), whose normalizer in Sym(C_2^k) is
    # AGL(k, 2): |Aut(C_2^k)| = |GL(k, 2)| is counted, never listed
    path = tmp_path / f"c2_{k}.txt"
    path.write_text("".join(f"({2 * i} {2 * i + 1})\n" for i in range(k)))
    code, doc = run_json(capsys, ["normalizer", "--group", str(path)])
    assert code == 0
    assert (doc["details"]["aut_order"], doc["details"]["normalizer_order"],
            doc["details"]["aut_gamma_order"]) == (aut, order, order)


def count_products(monkeypatch) -> list:
    """The list that every step `perm.saturate` takes, and every element
    of a coset it adds whole, is appended to."""
    products = []
    saturate = perm.saturate

    def counting(seeds, steps, cap=None, coset=None):
        def counted(step):
            def run(w):
                products.append(w)
                return step(w)
            return run

        def counted_coset(p):
            members = list(coset(p))
            products.extend(members)
            return members
        return saturate(seeds, [counted(step) for step in steps], cap,
                        coset and counted_coset)

    monkeypatch.setattr(perm, "saturate", counting)
    return products


def test_gamma_s4_closure_products_are_pinned(monkeypatch):
    # machine-independent gate: steps taken plus coset elements added to
    # close Gamma(S_4), 1 152 elements, for its order; the breadth-first
    # closure took 5 808 steps, one per (element, generator)
    s4 = perm.named_group("s4")
    products = count_products(monkeypatch)
    assert gamma.verify_wreath_quotient(s4)["actual_order"] == 1152
    assert len(products) == 148 + 1151


@pytest.mark.parametrize("command, bound", [
    ("regular-pairs", 120), ("wreath", 120), ("normalizer", 120),
    ("cd-lattice", 50)])
def test_group_file_closure_stops_at_the_bound(tmp_path, capsys, monkeypatch,
                                                command, bound):
    # S_9 has 362880 elements; each command refuses it at its own bound
    path = tmp_path / "s9.txt"
    path.write_text("(0 1)\n(0 1 2 3 4 5 6 7 8)\n")
    products = count_products(monkeypatch)
    argv = [command, "--group", str(path)]
    if command == "cd-lattice":
        argv += ["--bound", str(bound)]
    assert main(argv) == 3
    assert f"exceeds bound {bound}" in capsys.readouterr().err
    # breadth-first, so at most bound + 1 elements met both generators
    assert len(products) <= 2 * (bound + 1)


@pytest.mark.parametrize("command, name, bound", [
    ("rep-polytope", "s5", 30)])
def test_builtin_name_closure_stops_at_the_bound(capsys, monkeypatch,
                                                 command, name, bound):
    # a built-in name is closed only up to the command's bound as well;
    # for rep-polytope that is the polytope's element bound, so S_5 is
    # refused before its 120 elements and their matrices are built
    products = count_products(monkeypatch)
    assert main([command, "--group", name]) == 3
    assert f"closure exceeds bound {bound}" in capsys.readouterr().err
    assert len(products) <= 2 * (bound + 1)


def test_matrix_group_document_closure_stops_at_the_bound(tmp_path, capsys,
                                                          monkeypatch):
    # the permutation matrices of (0 1) and (0 1 2 3 4) generate S_5: the
    # closure stops past the polytope's 30 elements, not at 120
    gens = [[[int(p[j] == i) for j in range(5)] for i in range(5)]
            for p in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({"dim": 5, "generators": gens}))
    products = []
    mul = RationalMatrix.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(RationalMatrix, "__mul__", counting)
    assert main(["rep-polytope", "--group", str(path)]) == 3
    assert "closure exceeds bound 30" in capsys.readouterr().err
    assert len(products) <= 2 * (30 + 1)


@pytest.mark.parametrize("command, sizes", [
    ("regular-pairs", [24]), ("normalizer", [24]), ("wreath", [24]),
    ("regular-pairs s3", [6]), ("cd-lattice d4", [8]), ("cd-lattice q8", [8]),
    ("cd-lattice s5", [120])])
def test_gamma_commands_build_no_group_of_gamma(capsys, monkeypatch, command,
                                               sizes):
    # machine-independent gate: the only group built is G, S_4 unless the
    # command names another.  Gamma(G) is read by its fibers, or closed
    # into a bare set to count it; the regular subgroups the pair search
    # finds, and the members of the Chermak-Delgado lattice, are members
    # of their group, as tuples or positions
    name, _, group = command.partition(" ")
    built = []
    init = perm.PermutationGroup.__init__

    def counting(self, elements, generators):
        elements = list(elements)
        built.append(len(elements))
        init(self, elements, generators)

    monkeypatch.setattr(perm.PermutationGroup, "__init__", counting)
    assert main([name, "--group", group or "s4"]) == 0
    capsys.readouterr()
    assert built == sizes


def test_regular_pairs_refuses_d61_before_building_gamma(tmp_path, capsys,
                                                         monkeypatch):
    # D_61 has 122 elements, past the bound on |G| for Gamma(G): it is
    # refused while it is loaded, not after the fibers of Gamma(D_61)
    # (29 768 elements) have been listed
    path = tmp_path / "d61.txt"
    path.write_text("(" + " ".join(map(str, range(61))) + ")\n"
                    + "".join(f"({i} {61 - i})" for i in range(1, 31)) + "\n")

    def refuse(*args, **kwargs):
        raise AssertionError("gamma_fibers called")

    monkeypatch.setattr(gamma, "gamma_fibers", refuse)
    assert main(["regular-pairs", "--group", str(path)]) == 3
    assert (f"exceeds bound {gamma.MAX_GAMMA_BASE}"
            in capsys.readouterr().err)


def test_regular_pairs_missing_partner_is_a_broken_certificate(capsys,
                                                               monkeypatch):
    # a search that loses lambda(S_3) leaves rho(S_3) without its partner:
    # exit 4, not a KeyError traceback
    search = gamma._partnered_regular_subgroups

    def dropping(fibers):
        found = search(fibers)
        lost = next(f for f in found if f[0] != f[1])
        return [f for f in found if f is not lost]

    monkeypatch.setattr(gamma, "_partnered_regular_subgroups", dropping)
    assert main(["regular-pairs", "--group", "s3"]) == 4
    assert "partner" in capsys.readouterr().err


def test_group_file_degree_cap(tmp_path, capsys):
    # the point sets the degree; far past the cap, the image list alone
    # would not fit in memory (MemoryError before the cap existed)
    path = tmp_path / "wide.txt"
    path.write_text("(0 1000000000000000)\n")
    assert main(["cd-lattice", "--group", str(path)]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_sn_cent_est_s6_within_the_default_bound(capsys):
    code, doc = run_json(capsys, ["sn-cent-est", "6"])
    assert code == 0
    assert doc["details"]["subgroup_count"] == 1455
    assert doc["details"]["equality_orders"] == [1, 720]
    assert main(["sn-cent-est", "8"]) == 3


def test_unknown_group_name(capsys):
    assert main(["wreath", "--group", "zzz"]) == 3


def test_wreath_v4(capsys):
    code, doc = run_json(capsys, ["wreath", "--group", "v4"])
    assert code == 0
    d = doc["details"]
    assert d["elementary_abelian_2"] is True
    assert d["actual_order"] == 4
    assert d["formula_order"] == 8
    assert d["expected_order"] is None


def test_regular_pairs_s3(capsys):
    code, doc = run_json(capsys, ["regular-pairs", "--group", "s3"])
    assert code == 0
    d = doc["details"]
    assert d["gamma_order"] == 72
    assert d["pair_count"] == 7
    assert sum(1 for p in d["pairs"] if not p["u_equals_v"]) == 1
    assert all(p["u"]["cyclic"] for p in d["pairs"] if p["u_equals_v"])


def test_uniqueness_cli(capsys):
    code, doc = run_json(capsys, ["uniqueness", "3"])
    assert code == 0
    names = [e["name"] for e in doc["details"]["entries"]]
    assert "c6_exceptional" in names and "s3_standard" in names


LONG = "9" * 5000  # more digits than int() converts by default
LONG_SHOWN = "'999999999999999999999999'... (5000 characters)"
NOT_INTEGERS = [("x", "'x'"), ("1.0", "'1.0'"), (LONG, LONG_SHOWN)]
NOT_INTEGER_IDS = ["letter", "decimal", "5000-digits"]


def refused_naming(capsys, argv, path, text, shown):
    # exit 3, the offending token named (cut short), no Python internal
    path.write_text(text)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and shown in err, err
    assert "invalid literal" not in err and "Exceeds the limit" not in err


@pytest.mark.parametrize("token, shown", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_group_file_refuses_a_point_that_is_no_integer(tmp_path, capsys,
                                                       token, shown):
    path = tmp_path / "group.txt"
    refused_naming(capsys, ["cd-lattice", "--group", str(path)], path,
                   f"(0 1)\n(0 {token})\n", shown)


@pytest.mark.parametrize("token, shown", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_alpha_file_refuses_an_image_that_is_no_integer(tmp_path, capsys,
                                                        token, shown):
    path = tmp_path / "alpha.txt"
    refused_naming(capsys, ["decompose", "3", str(path)], path,
                   f"0\n1\n2\n3\n4\n{token}\n", shown)


@pytest.mark.parametrize("cell, shown", [
    ('"x"', "'x'"), ('"1.0"', "'1.0'"), (f'"{LONG}"', LONG_SHOWN),
    (LONG, LONG_SHOWN)], ids=NOT_INTEGER_IDS + ["5000-digit-number"])
def test_hull_cell_that_is_no_rational_is_refused(tmp_path, capsys, cell,
                                                  shown):
    path = tmp_path / "vertices.json"
    refused_naming(capsys, ["hull", str(path)], path,
                   f'{{"vertices": [["0"], [{cell}]]}}', shown)


@pytest.mark.parametrize("cell, shown", [
    ('"x"', "'x'"), ('"1/1.5"', "'1/1.5'"), (f'"{LONG}"', LONG_SHOWN),
    (LONG, LONG_SHOWN)], ids=NOT_INTEGER_IDS + ["5000-digit-number"])
def test_matrix_cell_that_is_no_rational_is_refused(tmp_path, capsys, cell,
                                                    shown):
    path = tmp_path / "group.json"
    refused_naming(capsys, ["rep-polytope", "--group", str(path)], path,
                   f'{{"dim": 1, "generators": [[[{cell}]]]}}', shown)


def test_hull_cli(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}))
    code, doc = run_json(capsys, ["hull", str(path)])
    assert code == 0
    d = doc["details"]
    assert d["n_facets"] == 4
    assert d["dim"] == 2
    assert d["inequality_convention"] == "normal.x <= offset"
    rows, scale = polytope_from_document(json.loads(path.read_text()))
    assert d == json.loads(json.dumps(
        polytope_to_document(facet_enumeration(rows, scale))))


def test_verify_symmetry_group_b5(capsys):
    code, doc = run_json(capsys, ["verify-symmetry-group", "5"])
    assert code == 0
    assert doc["pass"] is True
    d = doc["details"]
    assert d["n_vertices"] == 120
    assert d["aut_order"] == 28800 == d["expected_order"]
    assert d["n_facets"] == 25
    assert d["dim"] == 16
    assert d["facets_match_analytic"] is True
    assert d["roundtrip_failures"] == 0


def test_hull_cli_refuses_large_inputs(tmp_path, capsys):
    # the hull bounds stay on for vertex files: 31 points, or dimension 11
    many = tmp_path / "many.json"
    many.write_text(json.dumps(
        {"vertices": [[str(i), str(i * i)] for i in range(31)]}))
    assert main(["hull", str(many)]) == 3
    simplex = tmp_path / "simplex.json"
    simplex.write_text(json.dumps(
        {"vertices": [[str(int(i == j)) for j in range(11)]
                      for i in range(12)]}))
    assert main(["hull", str(simplex)]) == 3
    assert "exceeds hull bound 10" in capsys.readouterr().err


def test_hull_cli_refuses_a_facet_past_the_integer_output_limit(tmp_path,
                                                                 capsys):
    # a quadrilateral with coordinates +-1/q, six odd q of 1 500 digits:
    # the input is read and hulled, but a facet integer has more digits
    # than Python writes as text, so the document is refused as such
    rng = random.Random(1500)
    q = [rng.randrange(10 ** 1499, 10 ** 1500) | 1 for _ in range(6)]
    path = tmp_path / "quadrilateral.json"
    path.write_text(json.dumps({"vertices": [
        [f"1/{q[0]}", f"1/{q[1]}"], [f"-1/{q[2]}", f"1/{q[3]}"],
        [f"-1/{q[4]}", f"-1/{q[5]}"], [f"1/{q[0]}", f"-1/{q[1]}"]]}))
    assert main(["hull", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == ("precondition violated: a facet integer exceeds the "
                   "4300-digit limit of integer output\n")
    rows, scale = polytope_from_document(json.loads(path.read_text()))
    polytope = facet_enumeration(rows, scale)
    assert polytope.n_facets == 4
    with pytest.raises(PreconditionError, match="4300-digit limit"):
        polytope_to_document(polytope)


def test_hull_cli_refuses_too_many_points_before_reading_a_cell(tmp_path,
                                                                capsys):
    # the bound is checked on the row count, so a malformed last cell of
    # a 31-row document is never read
    path = tmp_path / "many.json"
    path.write_text(json.dumps(
        {"vertices": [[str(i), str(i * i)] for i in range(30)] + [["x", "1"]]}))
    assert main(["hull", str(path)]) == 3
    err = capsys.readouterr().err
    assert "31 points exceed hull bound 30" in err
    assert "not a rational literal" not in err


def spelled(x, rng):
    """The rational x as "p/q" text: reduced, unreduced, with a negative
    denominator, or as a plain JSON int when x is an integer."""
    p, q = x.numerator, x.denominator
    k = rng.choice((1, 2, 3, 7))
    return rng.choice([f"{p}/{q}" if q > 1 else str(p), f"{k * p}/{k * q}",
                       f"{-k * p}/{-k * q}"] + [p] * (q == 1))


def test_hull_document_does_not_depend_on_spelling(tmp_path, capsys):
    # the scale comes from the denominators as written, so 2/4, 3/-6, 1/2
    # and an unreduced integer such as 4/2 must all give the same bytes
    rng = random.Random(20261019)
    path = tmp_path / "points.json"
    cases = [[(Fraction(1, 2), Fraction(0)), (Fraction(-1, 3), Fraction(2)),
              (Fraction(0), Fraction(-5, 6)), (Fraction(1, 4), Fraction(1, 4))]]
    cases += [random_point_set(rng, 8, 3) for _ in range(25)]
    for pts in cases:
        outputs = set()
        for _ in range(5):
            path.write_text(json.dumps(
                {"vertices": [[spelled(x, rng) for x in p] for p in pts]}))
            assert main(["hull", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["runtime_ms"]
            outputs.add(json.dumps(doc, sort_keys=True))
        assert len(outputs) == 1, pts


def test_hull_cli_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["hull", str(missing)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hull", str(bad)]) == 3
    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"points": []}))
    assert main(["hull", str(nokey)]) == 3


def test_broken_certificates_exit_4(tmp_path, capsys, monkeypatch):
    square = tmp_path / "square.json"
    square.write_text(json.dumps(
        {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}))
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"vertices": [["0", "0"], ["1"]]}))
    dd, search = hull._dd_extreme_rays, combiso._search

    def one_ray_twice(ineqs):  # two facets with one inequality
        rays = dd(ineqs)
        return rays + rays[:1]

    def swapped_witness(plan, prefix=()):  # not a symmetry of B_3
        witness = search(plan, prefix)
        return witness and (witness[1], witness[0]) + witness[2:]

    monkeypatch.setattr(hull, "_dd_extreme_rays", one_ray_twice)
    assert main(["hull", str(square)]) == 4
    assert "internal certificate failed" in capsys.readouterr().err
    # bad input is still refused as such, before any certificate
    assert main(["hull", str(mixed)]) == 3
    assert "invalid input" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr(combiso, "_search", swapped_witness)
    assert main(["verify-symmetry-group", "3"]) == 4
    assert "does not preserve the incidence" in capsys.readouterr().err


def test_tags_that_do_not_generate_the_group_exit_4(capsys, monkeypatch):
    # a group whose generators give a proper subgroup has no table to read
    close = perm.closure

    def first_generator_only(generators, max_order=None):
        group = close(generators, max_order)
        return perm.PermutationGroup(group.elements, group.generators[:1])

    monkeypatch.setattr(perm, "closure", first_generator_only)
    assert main(["cd-lattice", "--group", "s3"]) == 4
    assert "do not generate" in capsys.readouterr().err


def test_a_group_element_off_the_vertices_exits_4(capsys, monkeypatch):
    # G acts transitively on its own hull's vertices, so an element that
    # fails its vertex certificate is a broken certificate, not bad input
    certify = reppoly.certify_vertices

    def last_fails(polytope):
        return certify(polytope)[:-1] + [False]

    monkeypatch.setattr(reppoly, "certify_vertices", last_fails)
    assert main(["rep-polytope", "--group", "s3"]) == 4
    assert ("internal certificate failed: an element vectorization is not "
            "a vertex") in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("hull", "5"),
    ("rep-polytope", "5"),
    ("rep-polytope", '{"dim": 2, "generators": [5]}'),
])
def test_json_of_the_wrong_shape_exits_3(tmp_path, capsys, command, text):
    # these raised TypeError past main's handler: traceback and exit 1
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [command, str(path)] if command == "hull" else [
        command, "--group", str(path)]
    assert main(argv) == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hull", "rep-polytope"])
def test_json_nested_too_deeply_exits_3(tmp_path, capsys, command):
    # the decoder's RecursionError went past main's handler: traceback, exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, str(path)] if command == "hull" else [
        command, "--group", str(path)]
    assert main(argv) == 3
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hull", "rep-polytope"])
def test_json_nested_too_deeply_names_the_path_as_typed(tmp_path, capsys,
                                                        monkeypatch, command):
    # rep-polytope printed pathlib's normal form, "deep.json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, "./deep.json"] if command == "hull" else [
        command, "--group", "./deep.json"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "invalid input: ./deep.json: JSON nested too deeply\n")


# Each input file reader: the command line that reads a file at the path.
READERS = {
    "group file": lambda path: ["wreath", "--group", path],
    "alpha file": lambda path: ["decompose", "3", path],
    "vertex document": lambda path: ["hull", path],
    "matrix-group document": lambda path: ["rep-polytope", "--group", path],
}
GROUP_READERS = ["group file", "matrix-group document"]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_undecodable_input_exits_3(tmp_path, capsys, reader):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\n")
    assert main(READERS[reader](str(path))) == 3
    assert capsys.readouterr().err.startswith(
        "invalid input: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("reader", sorted(set(READERS) - set(GROUP_READERS)))
def test_a_directory_is_invalid_input(tmp_path, capsys, reader):
    assert main(READERS[reader](str(tmp_path))) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid input: [Errno 21] Is a directory"), err


def unknown_group(arg):
    return (f"precondition violated: unknown group {arg!r}: not a built-in "
            f"name ({', '.join(perm.builtin_group_names())}) and not a "
            "file\n")


@pytest.mark.parametrize("reader", GROUP_READERS)
def test_a_group_argument_that_is_no_name_and_no_file_is_refused(
        tmp_path, capsys, reader):
    # the same text from either reader, the built-in names listed; a
    # directory, or a file named with a trailing slash, is not a file
    path = tmp_path / "c3.txt"
    path.write_text("(0 1 2)\n")
    for arg in ("nope", str(tmp_path), str(path) + "/"):
        assert main(READERS[reader](arg)) == 3
        assert capsys.readouterr().err == unknown_group(arg)


@pytest.mark.parametrize("reader", sorted(set(READERS) - set(GROUP_READERS)))
def test_a_file_named_with_a_trailing_slash_is_invalid_input(tmp_path, capsys,
                                                             reader):
    path = tmp_path / "input"
    path.write_text("0\n")
    assert main(READERS[reader](str(path) + "/")) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid input: [Errno 20] Not a directory"), err


@given(st.text(alphabet="0a#\r\n é— \U0001d54a", max_size=40))
@settings(max_examples=200, deadline=None)
def test_an_input_file_reads_as_utf_8_text_mode_reads_it(tmp_path_factory,
                                                         text):
    # line endings included: "\r\n" and "\r" read as "\n"
    path = tmp_path_factory.getbasetemp() / "text_mode_input"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as f:
        assert cli._read_text(str(path)) == f.read()


def test_a_crlf_input_file_is_read_as_its_lf_form(tmp_path, capsys):
    # a report, and the place a JSON error names, are those of the file
    # with "\n" line endings
    texts = {"group.txt": "# S3\n(0 1)\n(0 1 2)\n",
             "doc.json": '{\n  "points": [\n    [0, 1],\n    x\n  ]\n}\n'}
    outputs = []
    for ending in ("\n", "\r\n"):
        for name, text in texts.items():
            (tmp_path / name).write_bytes(text.replace("\n", ending).encode())
        group = main(["wreath", "--group", str(tmp_path / "group.txt")])
        out = capsys.readouterr().out
        doc = main(["hull", str(tmp_path / "doc.json")])
        outputs.append((group, json.loads(out)["details"], doc,
                        capsys.readouterr().err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert outputs[0][3].startswith("invalid input: Expecting value: line 4")


# Files with UTF-8 text outside ASCII, each named by a command line.
NON_ASCII_INPUTS = {
    "s3.txt": "# S₃ — a copy\n(0 1)\n(0 1 2)\n",
    "alpha.txt": "# S₃ — the identity\n0\n1\n2\n3\n4\n5\n",
    "rot6.json": json.dumps({"name": "Drehung ∘ à 6",
                             "dim": 2, "order": 6,
                             "generators": [[["0", "-1"], ["1", "1"]]]},
                            ensure_ascii=False),
}


def run_cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "birkhoffsym.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    report = json.loads(proc.stdout) if proc.returncode == 0 else None
    if report is not None:
        del report["runtime_ms"]
    return proc.returncode, report, proc.stderr


def test_input_files_read_alike_under_an_ascii_locale(tmp_path):
    # the text layer decoded with the locale's encoding, so under the C
    # locale with UTF-8 mode off a non-ASCII comment was invalid input
    for name, text in NON_ASCII_INPUTS.items():
        (tmp_path / name).write_bytes(text.encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    default = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    ascii_locale = dict(default, LC_ALL="C", PYTHONUTF8="0")
    encoding = subprocess.run(
        [sys.executable, "-c",
         "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, text=True, env=ascii_locale, timeout=120)
    if "utf" in encoding.stdout.lower().replace("-", ""):
        pytest.skip("the C locale reads UTF-8 on this platform")
    for argv in (["wreath", "--group", "s3.txt"],
                 ["decompose", "3", "alpha.txt"],
                 ["rep-polytope", "--group", "rot6.json"]):
        argv = [str(tmp_path / w) if w in NON_ASCII_INPUTS else w
                for w in argv]
        expected = run_cli(argv, default)
        assert expected[0] == 0, expected[2]
        assert run_cli(argv, ascii_locale) == expected


def test_rep_polytope_builtin(capsys):
    code, doc = run_json(capsys, ["rep-polytope", "--group", "c4"])
    assert code == 0
    d = doc["details"]
    assert d["order"] == 4
    assert d["matrix_dim"] == 4
    assert d["n_facets"] == 4


def test_rep_polytope_document(tmp_path, capsys):
    doc_in = {
        "name": "rot6",
        "dim": 2,
        "order": 6,
        "generators": [[["0", "-1"], ["1", "1"]]],
    }
    path = tmp_path / "rot6.json"
    path.write_text(json.dumps(doc_in))
    code, doc = run_json(capsys, ["rep-polytope", "--group", str(path)])
    assert code == 0
    assert doc["details"]["order"] == 6
    assert doc["details"]["matrix_dim"] == 2


def test_matrix_group_document_of_dimension_0(tmp_path, capsys):
    # refused by name, not by an error from inside the closure
    path = tmp_path / "dim0.json"
    for dim in (0, -1):
        path.write_text(json.dumps({"dim": dim, "generators": [[]]}))
        assert main(["rep-polytope", "--group", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"'dim' must be at least 1, got {dim}" in err
        assert "range()" not in err


@pytest.mark.parametrize("cell, field, value, what", [
    ("1", "order", True, "an integer"),
    ("1", "order", 1.0, "an integer"),
    ("-1", "order", "2", "an integer"),
    ("1", "expect_equivalent", 1, "a boolean"),
    ("1", "expect_equivalent", "true", "a boolean"),
    ("1", "name", 7, "a string"),
])
def test_matrix_group_document_fields_are_typed(tmp_path, capsys, cell,
                                                field, value, what):
    # the declared order used to be only compared with the closure's, so
    # true and 1.0 passed for the group {1} and "2" was refused as
    # "closure has order 2, document declares 2"
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"dim": 1, "generators": [[[cell]]],
                                field: value}))
    assert main(["rep-polytope", "--group", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"invalid input: '{field}' must be {what}" in err
    assert "declares" not in err


@pytest.mark.parametrize("cell", [1.0, True])
def test_rep_polytope_takes_only_integers_and_rationals(tmp_path, capsys, cell):
    doc_in = {"dim": 2, "generators": [[["0", "-1"], [cell, "1"]]]}
    path = tmp_path / "rot6.json"
    path.write_text(json.dumps(doc_in))
    assert main(["rep-polytope", "--group", str(path)]) == 3
    assert "not a rational literal" in capsys.readouterr().err


def test_rep_polytope_unknown_group(capsys):
    assert main(["rep-polytope", "--group", "nope"]) == 3


def test_reports_deterministic(capsys):
    _, doc1 = run_json(capsys, ["verify-symmetry-group", "3"])
    _, doc2 = run_json(capsys, ["verify-symmetry-group", "3"])
    doc1.pop("runtime_ms")
    doc2.pop("runtime_ms")
    assert doc1 == doc2


# sha256 of each group command's `details`, as JSON with sorted keys, and
# its exit status: a change to how groups are held must print the same
# reports
REPORT_DIGESTS = {
    "regular-pairs --group s3": (
        0, "6586a6e29245d7a9d5371507065b5c9b649424042d1c4ad3647e7ce793894037"),
    "regular-pairs --group s4": (
        0, "3e88fb3188973ea654198514e1bc88b402f97e893df7b939fdd0386e04ee2c0f"),
    "regular-pairs --group c2": (
        0, "1f504108eca2c0667cb5eaff8689a3afe971f49a177bdb7f23dd02dbf0eb1487"),
    "regular-pairs --group c3": (
        0, "4e837a5d19c1b72624aeb017aadd6fedb66efcf7cab60d2422dac914f05545ee"),
    "regular-pairs --group c4": (
        0, "a734ee74c14eecb3b292f93c02bab7f36a6657a8677966f712d3cfa5f95c5965"),
    "regular-pairs --group c6": (
        0, "c61648d273f2519e1b25247fa698faf4303a62773b99dc09dbe56a194a12e68c"),
    "regular-pairs --group v4": (
        0, "e09f905602eca04bf4c23c1523edac21908856a4c2e9959b248f7b59ae72ef01"),
    "regular-pairs --group d4": (
        0, "aadb0c40243358c5b8c2ce35fe4307d26e7b0718b442ac72b2914aed7df113b8"),
    "regular-pairs --group q8": (
        0, "aadb0c40243358c5b8c2ce35fe4307d26e7b0718b442ac72b2914aed7df113b8"),
    "wreath --group s3": (
        0, "f6c8148a0a316411430be9d07c0bf1e9798ba6204b51fe0e5c296027df221db3"),
    "wreath --group s4": (
        0, "62d78c17a821463a2f258cc0f68cc601db937c73c577012594de5e8c8bed210d"),
    "wreath --group d4": (
        0, "e6d5cfc5e9c666287ead1a2864d7b522b73e2aea199d8ea6b22be5ed81216896"),
    "wreath --group v4": (
        0, "ff3ecdd7398e7ea570253bcefb195e41f2b7b80ccb2bf44ca57b013d18e93b75"),
    "wreath --group c6": (
        0, "49b84155b567ae75a340d417bb0de2394ed442bd48cbe82e169639585a4a5039"),
    "normalizer --group s3": (
        0, "ffca8731f44d5135ceeaadfd06bcde4cfa5b7c6c78463345a162feef06a724fe"),
    "normalizer --group d4": (
        1, "effcb413f741bec2cafc83a79b447e3ae11831c94d9cbfb4b2fc44d71c4e5e14"),
    "normalizer --group q8": (
        0, "65018f9f7a0475c30870010927dd6fab4b0549626da7e0ea2c5d7a4fda609664"),
    "normalizer --group c2": (
        0, "e50044e0eb59bbae58bf447a2d0a7087defd6bc2cf022a53f2a607517be420aa"),
    "normalizer --group c3": (
        0, "9c4e29f331eb4b3f04c1765774f8b1893f0e654bfb96444cd4f898f0d9cd7f79"),
    "normalizer --group c4": (
        0, "2a5cfde7a5ee429da4bb23cf4f24203aaf6a548ec05e16573d3cf964d914dbb2"),
    "normalizer --group c6": (
        0, "8bca5de8b85c7b66260ca5bffa0d34a69fabe051899e24cdf35ade924b74ffbd"),
    "normalizer --group v4": (
        0, "786b3290bc8012e7a7fffefcb4183660476dfafe908da9195218d88928beebc9"),
    "normalizer --group s4": (
        0, "e6c82b6b745a6b801875607b38df8530cca9012c9b0fadf18297787a0ff6bbdd"),
    "normalizer --group s5": (
        0, "bccbc6a7dab07ca10d9bbf4b4d58f38836775068cf192010b24656e727cf01c1"),
    "cd-lattice --group s4": (
        0, "856267034304181d5501c36ecee6973774055a6d30a8d653c5d20d2b609a7218"),
    "cd-lattice --group d4": (
        0, "e7cfe76690eacad021a27832b807c8d01b09ceacbf317292ad13fd38ca835b1f"),
    "cd-lattice --group q8": (
        0, "f41d889d5a0f69f9b3e6a32a7550ab80b31a695b9fc45e97489f0b223a6cd484"),
    "cd-lattice --group c2": (
        0, "ff67066048d89d35e3adb691d880c6582ddfd0f6fa6a3178a0eeeccb21be8ec8"),
    "cd-lattice --group c3": (
        0, "350db4becf4c4a87cf8d82f6ec7e6558dabb080eec46576cb27169d895f00367"),
    "cd-lattice --group c4": (
        0, "9400ae93c5738004e8f99609269b900871cb1e1c928b8547efe520c11828947d"),
    "cd-lattice --group c6": (
        0, "faa0eba15a2362dd98dc2e351ddeeb08f2fb3226b66a364b5bfa6a6b6d5402a1"),
    "cd-lattice --group v4": (
        0, "64e23de5f418971b708533b87ccc32b3a1db36104612c374bd61e6adee4b04e1"),
    "cd-lattice --group s3": (
        0, "6e09bfb21f1ff57c148cd6dcd99bee99dea7c8bb0b61e00c3bc13ce191728358"),
    "cd-lattice --group s5": (
        0, "593f58ea28362259b3dc8e55ab62995878dcf64ec362c3b5711c47ddddeafbd7"),
    "cd-lattice --group s3xs3.txt": (
        0, "b5833c53fecc065c551b9277594661d2c245452798ef8771aef3fab0274b6671"),
    "cd-lattice --group d4xc2.txt": (
        0, "3a1cdcc000cdaaa6830bcd5df2a7f620e23db285a87e6da05db840fb4e132670"),
    "regular-pairs --group trivial.txt": (
        0, "0ada2bd4a22784315af053628d7245d97f57433a934e71be82d195054f73629f"),
    "normalizer --group trivial.txt": (
        0, "89892550cea069353b5916871a301ebe2bafea4c210e5b0257d6fa70cf61cf06"),
    "sn-cent-est 4": (
        0, "4f2515634c0eda6c8295e117e065c18da557c7e83f742a6477001478e4a9df11"),
    "sn-cent-est 5": (
        0, "cb2d7ea0a27e0336f2904f4ce34c02b0b6cdf29895032f95e19ba7477cde1a2e"),
    "verify-symmetry-group 3": (
        0, "24171a12a344f2bd19fbbfeb0b2b9a28e200fe5a3078263f3fe966c04ff40c69"),
    "verify-symmetry-group 4": (
        0, "8f94cc5a8bc0b3c8295e47b585befa64873222fceb00191f0026b23af66a0d2e"),
    "decompose 4 --identity": (
        0, "ff533f94de2680d795f218697d75ff328fb6e6f235b7ffeef8d2b83bfd6f2728"),
}

# Generator files that pinned commands name, written under tmp_path:
# S_3 x S_3 (lattice ["order9"]), D_4 x C_2 (lattice ["V4", "order8",
# "order8", "order8", "G"]) and the trivial group
GROUP_FILES = {
    "s3xs3.txt": "(0 1)\n(0 1 2)\n(3 4)\n(3 4 5)\n",
    "d4xc2.txt": "(0 1 2 3)\n(0 2)\n(4 5)\n",
    "trivial.txt": "()\n",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_group_reports_are_pinned(capsys, tmp_path, argv):
    words = argv.split()
    for i, word in enumerate(words):
        if word in GROUP_FILES:
            words[i] = str(tmp_path / word)
            (tmp_path / word).write_text(GROUP_FILES[word])
    code, doc = run_json(capsys, words)
    text = json.dumps(doc["details"], sort_keys=True)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == \
        REPORT_DIGESTS[argv]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script_command(name):
    """The command that runs console script ``name``: the script itself
    when it is on ``PATH``, else a Python process running the body of the
    wrapper an installer generates for the ``[project.scripts]`` entry."""
    script = shutil.which(name)
    if script is not None:
        return [script]
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    ep = EntryPoint(name=name, value=value, group="console_scripts")
    body = (f"import sys; from {ep.module} import {ep.attr}; "
            f"sys.argv[0] = {name!r}; sys.exit({ep.attr}())")
    return [sys.executable, "-c", body]


def test_installed_entry_point():
    """Runs ``birkhoffsym verify-table 3`` through the console script.

    Installed, this is the script on ``PATH``.  Without an install it is
    the declared ``[project.scripts]`` target, imported and called with no
    arguments so that it parses ``sys.argv`` and its return value becomes
    the exit code; a target that does not exist fails the test."""
    proc = subprocess.run(
        console_script_command("birkhoffsym") + ["verify-table", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "birkhoffsym.cli", "verify-table", "4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("argv", [["normalizer", "--group", "s3"],
                                  ["normalizer", "--group", "s3", "--no-json"],
                                  ["-h"]])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # stdout is a pipe whose read end is closed before the process starts:
    # the report cannot be written, and the process says nothing of it.
    # Block-buffered, the write fails at the last flush; unbuffered, at
    # the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "birkhoffsym.cli", *argv], env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.CLOSED_STDOUT, "")
    assert cli.CLOSED_STDOUT == 141


def test_verify_transform_b5(capsys):
    code, doc = run_json(capsys, ["verify-transform", "5"])
    assert code == 0
    d = doc["details"]
    assert d["passed"] is True and d["failures"] == []
    assert d["translation_cases"] == 360000
    assert d["inversion_cases"] == 25
    assert d["generator_cases"] == 100


def test_one_process_answers_like_fresh_processes(tmp_path, capsys,
                                                   monkeypatch):
    """Reading argv and writing the report carry nothing from one call to
    the next."""
    monkeypatch.setenv("COLUMNS", "80")
    dec = SymmetryDecomposition(parse_cycles("(0 2)", 3),
                                parse_cycles("(1 2)", 3), -1)
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("\n".join(map(str, symmetry_images(3, dec))))
    runs = [["decompose", "3", "--identity"], ["decompose", "3", str(alpha)],
            ["decompose", "--identity"], ["verify-table", "3"]]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0]
    for argv, (code, out, err) in zip(runs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "birkhoffsym.cli"] + argv,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert proc.stderr == err
        if out:
            want, got = json.loads(proc.stdout), json.loads(out)
            want.pop("runtime_ms")
            got.pop("runtime_ms")
            assert got == want
        else:
            assert proc.stdout == ""
