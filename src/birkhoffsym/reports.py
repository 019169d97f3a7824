"""Uniform result reporting for the command line tools.

Every command emits one Report on stdout: the command name, its inputs,
a boolean pass flag (serialized under the key "pass"), a details payload
carrying the op-specific findings (counterexamples included whenever
pass is false), and the wall-clock runtime.  Serialization is
deterministic: keys are sorted and every exact value has a canonical
text form, so two runs differ at most in runtime_ms.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any


@dataclasses.dataclass
class Report:
    command: str
    inputs: dict
    passed: bool
    details: object
    runtime_ms: int


def _fields(value: Any) -> dict:
    """`json.dumps` hook for what it cannot encode itself: a report
    dataclass becomes its fields; any other type has no JSON form.  The
    commands hand over strings, integers, booleans, None, lists, tuples,
    dicts and report dataclasses; exact values arrive already formatted."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(report: Report) -> str:
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "pass": report.passed,
        "details": report.details,
        "runtime_ms": report.runtime_ms,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_fields)
