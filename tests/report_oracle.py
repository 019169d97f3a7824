"""A report as `json.dumps` writes it, the reference for
`reports.render_report`: the same document, keys sorted, indent 2,
report dataclasses turned into their fields by `reports._fields`."""

import json

from birkhoffsym.reports import Report, _fields


def dumps_report(report: Report) -> str:
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "pass": report.passed,
        "details": report.details,
        "runtime_ms": report.runtime_ms,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_fields)
