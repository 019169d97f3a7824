"""A report as `json.dumps` writes it, the reference for
`reports.render_report`: the same document, keys sorted, indent 2."""

import json


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
