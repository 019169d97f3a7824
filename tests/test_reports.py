"""`reports.render_report` against `json.dumps`, byte for byte, on
random nested documents: string keys with escapes and non-ASCII
characters, integers past 2^64, booleans, None, empty and nested lists,
tuples and dicts, and report dataclasses.  The writer has no float form,
takes only string keys and refuses any type a report cannot hold."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoffsym.birkhoff import LawReport, SymmetryDecomposition
from birkhoffsym.perm import parse_cycles
from birkhoffsym.reports import Report, render_report

from report_oracle import dumps_report

_text = st.text(alphabet=st.characters(), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\r", "\x00\x1f\x7f", "é", "∑", "\U0001f600",
     "\ud800", "a/b"])
_int = st.integers() | st.sampled_from([2 ** 64, -2 ** 64 - 1, 10 ** 40, 0])
_scalar = _text | _int | st.booleans() | st.none()
_law = st.builds(LawReport, n=_int, passed=st.booleans(),
                 generator_cases=_int, translation_cases=_int,
                 inversion_cases=_int, failures=st.lists(_text, max_size=3))


def _containers(kids):
    return (st.lists(kids, max_size=5)
            | st.lists(kids, max_size=5).map(tuple)
            | st.lists(_text, max_size=6) | st.lists(_int, max_size=6)
            | st.dictionaries(_text, kids, max_size=5))


_document = st.recursive(_scalar | _law, _containers, max_leaves=30)


def _report(details, inputs=None) -> Report:
    return Report(command="c", inputs={"n": 3} if inputs is None else inputs,
                  passed=True, details=details, runtime_ms=7)


@settings(max_examples=300, deadline=None)
@given(_document, st.dictionaries(_text, _scalar, max_size=3))
def test_render_report_writes_what_json_dumps_writes(details, inputs):
    report = _report(details, inputs)
    assert render_report(report) == dumps_report(report)


def test_report_dataclasses_are_written_as_their_fields():
    dec = SymmetryDecomposition(parse_cycles("(0 1)", 3),
                                parse_cycles("(1 2)", 3), -1)
    law = LawReport(n=3, passed=False, generator_cases=36,
                    translation_cases=2916, inversion_cases=9,
                    failures=["sigma=(0 1)"])
    report = _report({"law": law, "list": [law, law]})
    assert render_report(report) == dumps_report(report)
    assert '"translation_cases": 2916' in render_report(report)
    # a decomposition's fields are image tuples, written as lists
    decomposed = render_report(_report(dec))
    assert decomposed == dumps_report(_report(dec))
    assert json.loads(decomposed)["details"] == {
        "sigma": [1, 0, 2], "tau": [0, 2, 1], "epsilon": -1}


@pytest.mark.parametrize("value", [1.0, float("nan"), {1, 2}, Fraction(1, 2),
                                   Report, int, b"bytes", frozenset()],
                         ids=repr)
def test_render_report_refuses_what_a_report_cannot_hold(value):
    for details in (value, [value], [1, value], {"k": value}):
        with pytest.raises(TypeError):
            render_report(_report(details))


@pytest.mark.parametrize("key", [1, True, None, 1.5], ids=repr)
def test_render_report_refuses_a_key_that_is_no_string(key):
    with pytest.raises(TypeError):
        render_report(_report({key: 0}))
