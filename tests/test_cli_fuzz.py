"""Fuzzing the command line's input readers.

Each example writes one input file and runs `cli.main` on it in this
process, one call after another.  Whatever the file holds, the command must end with a documented exit status (0 pass,
1 fail, 2 usage, 3 refused input) and print no traceback, and a refusal
must not be a Python internal error passed off as invalid input.  The
readers: the cycle-notation group file, the `decompose` alpha file, the
`hull` vertex document and the `rep-polytope` matrix-group document."""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym import perm
from birkhoffsym.cli import main

FUZZ = settings(max_examples=60, deadline=None)
PYTHON_INTERNALS = ("range()", "object of type", "argument of type",
                    "invalid literal", "Exceeds the limit")


def run_on_file(tmp_path_factory, argv_of, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv_of(str(path)))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 3:
        # a refusal names the input, not a Python internal that leaked
        # through as "invalid input"
        assert not any(leak in err.getvalue() for leak in PYTHON_INTERNALS), \
            err.getvalue()
    if code in (0, 1):
        assert "pass" in json.loads(out.getvalue())


def _lines(line):
    return st.lists(line, max_size=8).map("\n".join)


# --- cycle notation ----------------------------------------------------------

_point = st.one_of(st.integers(-2, 9),
                   st.sampled_from([4095, 4096, 10 ** 30]))
_cycle = st.lists(_point, max_size=5).map(
    lambda ps: "(" + " ".join(map(str, ps)) + ")")
_group_line = st.one_of(
    st.lists(_cycle, min_size=1, max_size=3).map("".join),
    st.sampled_from(["()", "", "# a comment", "(0,1)", "(0 1", "0 1)"]),
    st.text(alphabet="()0123456789 ,-#x", max_size=12))


@FUZZ
@given(_lines(_group_line))
def test_group_file_reader(tmp_path_factory, text):
    # the table's ceiling lowered to 24 keeps each example small; patched
    # here, as hypothesis runs every example within one call of the test
    with mock.patch.object(perm, "MAX_TABLE_ORDER", 24):
        run_on_file(tmp_path_factory,
                    lambda p: ["cd-lattice", "--group", p], text)


# --- alpha files -------------------------------------------------------------

_alpha_line = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["", "# images", " 3 ", "1.0", "+2", "0x1", "9" * 5000]),
    st.text(alphabet="0123456789 -#x+.", max_size=6))


@FUZZ
@given(st.one_of(st.permutations(range(6)).map(lambda p: "\n".join(map(str, p))),
                 _lines(_alpha_line)))
def test_alpha_file_reader(tmp_path_factory, text):
    run_on_file(tmp_path_factory, lambda p: ["decompose", "3", p], text)


# --- JSON documents ----------------------------------------------------------

_entry = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2/0", "x", "", " 2 ",
                     "1e3", "9" * 5000]),
    st.integers(-3, 3), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False))
_json_value = st.recursive(
    _entry,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(["vertices", "dim", "generators",
                                         "order", "name"]), kids, max_size=3)),
    max_leaves=20)
_nested = st.integers(1, 50_000).map(lambda d: "[" * d + "]" * d)
_raw_text = st.one_of(st.text(max_size=20), _nested,
                      _nested.map(lambda s: '{"vertices": ' + s + "}"))


def _rows(dim, max_rows):
    cell = st.one_of(st.integers(-1, 1), _entry)
    return st.lists(st.lists(cell, min_size=dim, max_size=dim),
                    max_size=max_rows)


_vertex_document = st.integers(0, 3).flatmap(
    lambda d: _rows(d, 8).map(lambda rows: {"vertices": rows}))
_matrix_document = st.integers(-1, 3).flatmap(
    lambda d: st.fixed_dictionaries(
        {"dim": st.just(d),
         "generators": st.lists(_rows(max(d, 0), max(d, 0) + 1), max_size=2)},
        optional={"order": st.integers(0, 8), "name": st.text(max_size=4)}))


@FUZZ
@given(st.one_of(_vertex_document.map(json.dumps), _json_value.map(json.dumps),
                 _raw_text))
def test_hull_document_reader(tmp_path_factory, text):
    run_on_file(tmp_path_factory, lambda p: ["hull", p], text)


@FUZZ
@given(st.one_of(_matrix_document.map(json.dumps), _json_value.map(json.dumps),
                 _raw_text))
def test_matrix_group_document_reader(tmp_path_factory, text):
    run_on_file(tmp_path_factory, lambda p: ["rep-polytope", "--group", p],
                text)
