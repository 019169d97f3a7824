"""Uniform result reporting for the command line tools.

Every command emits one Report on stdout: the command name, its inputs,
a boolean pass flag (serialized under the key "pass"), a details payload
carrying the op-specific findings (counterexamples included whenever
pass is false), and the wall-clock runtime.  Serialization is
deterministic: keys are sorted and every exact value has a canonical
text form, so two runs differ at most in runtime_ms.

`render_report` writes the text of `json.dumps(doc, sort_keys=True,
indent=2, default=_fields)` byte for byte, but by its own recursive
writer: with `indent` set, `json.dumps` runs the pure-Python encoder,
while a list of strings or of integers, the bulk of a report, is written
here by one C-level `map` of the `json` module's string encoder or of
`int.__repr__`.  A report holds strings, integers, booleans, None,
lists, tuples, dicts with string keys and report dataclasses; anything
else, a float included, raises TypeError.
"""

from __future__ import annotations

import dataclasses
from json.encoder import encode_basestring_ascii
from typing import Any


@dataclasses.dataclass
class Report:
    command: str
    inputs: dict
    passed: bool
    details: object
    runtime_ms: int


def _fields(value: Any) -> dict:
    """A report dataclass as its fields; any other type has no JSON form.
    The commands hand over strings, integers, booleans, None, lists,
    tuples, dicts and report dataclasses; exact values arrive already
    formatted."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append the text of `value` to `out`; `indent` is a newline and the
    spaces of the value's own line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:
            text = encode_basestring_ascii if str in kinds else int.__repr__
            out += ("[", inner, ("," + inner).join(map(text, value)),
                    indent, "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out += (indent, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out += (indent, "}")
    else:
        _write(_fields(value), indent, out)


def render_report(report: Report) -> str:
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "pass": report.passed,
        "details": report.details,
        "runtime_ms": report.runtime_ms,
    }
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)
