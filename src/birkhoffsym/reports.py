"""Uniform result reporting for the command line tools.

Every command emits one report on stdout, a dict: the command name
("command"), its inputs ("inputs"), a boolean pass flag ("pass"), a
details payload carrying the op-specific findings ("details",
counterexamples included whenever pass is false), and the wall-clock
runtime ("runtime_ms").  Serialization is deterministic: keys are
sorted and every exact value has a canonical text form, so two runs
differ at most in runtime_ms.

`render_report` writes the text of `json.dumps(doc, sort_keys=True,
indent=2)` byte for byte, but by its own recursive writer: with `indent`
set, `json.dumps` runs the pure-Python encoder, while a list of strings
or of integers, the bulk of a report, is written here by one C-level
`map` of the `json` module's string encoder or of `int.__repr__`.  A
report holds strings, integers, booleans, None, lists, tuples (a
NamedTuple among them, written as an array) and dicts with string keys;
anything else, a float included, raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any


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
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(doc: dict) -> str:
    """The report document as JSON text, keys sorted, indent 2."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)
