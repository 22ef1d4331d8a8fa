"""Structured results for comparison runs: a verdict record per checked
statement, a JSON document shape shared by every subcommand, CSV export of
dimension tables, and the exit-code rules scripts rely on.

Determinism contract: the JSON document is byte-identical across repeated
runs and across worker counts, so it holds no timing and payloads may not
contain floats.

Handlers build parameters and payloads JSON-ready (str-keyed dicts, lists,
str, int, bool and None), and the document passes them through as they are.
`render_json` is the one gate: it writes exactly the bytes of the json
module's dump with sorted keys and a two-space indent, plus a newline,
without json's pure-Python indenting encoder, and raises TypeError on
anything else (a float, a tuple, a non-str key).
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring_ascii as _quote

AGREE = "agree"
DISAGREE = "disagree"
OUTSIDE = "outside-hypothesis"
ERROR = "error"

_STATUSES = (AGREE, DISAGREE, OUTSIDE, ERROR)


def verdict(subject: str, parameters: dict, status: str, payload: dict) -> dict:
    """The record of one checked statement, as the document holds it; the
    payload is the caller's own dict, not a copy."""
    if status not in _STATUSES:
        raise ValueError(f"unknown status {status!r}")
    return {"subject": subject, "parameters": parameters, "status": status,
            "payload": payload}


def report_document(command: str, parameters: dict, verdicts) -> dict:
    from . import __version__

    return {
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "verdicts": list(verdicts),
    }


def render_json(document: dict) -> str:
    out: list[str] = []
    _render(document, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of value to out; indent is the newline and
    spaces that start each line at value's own depth."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif kind in (dict, list) and not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be strings")
        inner, sep = indent + "  ", "{"
        for k in sorted(value):
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _render(value[k], inner, out)
            sep = ","
        out.append(indent + "}")
    elif kind is list and all(type(x) is int for x in value):
        inner = indent + "  "
        out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{indent}]")
    elif kind is list:
        inner, sep = indent + "  ", "["
        for x in value:
            out.append(sep + inner)
            _render(x, inner, out)
            sep = ","
        out.append(indent + "]")
    else:
        raise TypeError(f"cannot render {kind.__name__} as JSON")


def exit_code(verdicts) -> int:
    """0 when every comparison agrees (pure evaluations count as agreeing);
    2 when any comparison disagreed, including a failed comparison attached
    to an outside-hypothesis verdict; 1 when a run errored out."""
    code = 0
    for v in verdicts:
        if v["status"] == DISAGREE:
            return 2
        if v["status"] == OUTSIDE and v["payload"].get("comparison_agrees") is False:
            return 2
        if v["status"] == ERROR:
            code = 1
    return code


def dimension_rows(record: dict) -> list[dict]:
    """Flat CSV rows for a verdict's dimension table.  Each payload table row
    carries degree or multidegree plus a dimension; parameters are repeated
    on every row."""
    rows = []
    for entry in record["payload"].get("dimension_table", ()):
        row = {"subject": record["subject"], "status": record["status"]}
        for k, v in record["parameters"].items():
            row[str(k)] = _compact(v) if isinstance(v, (list, tuple)) else v
        if "series" in entry:
            row["series"] = entry["series"]
        if "degree" in entry:
            row["degree"] = entry["degree"]
        if "multidegree" in entry:
            row["multidegree"] = _compact(entry["multidegree"])
        row["dimension"] = entry["dimension"]
        rows.append(row)
    return rows


def write_csv(path: str, verdicts) -> None:
    rows = []
    for v in verdicts:
        rows.extend(dimension_rows(v))
    lead = ["subject", "status"]
    tail = ["series", "degree", "multidegree", "dimension"]
    param_cols = sorted(
        {k for row in rows for k in row} - set(lead) - set(tail)
    )
    columns = lead + param_cols + [c for c in tail if any(c in r for r in rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def human_lines(verdicts) -> list[str]:
    """One aligned line per verdict for terminal output."""
    lines = []
    for v in verdicts:
        params = " ".join(f"{k}={_compact(val)}" for k, val in v["parameters"].items())
        status, payload = v["status"], v["payload"]
        note = ""
        if status == DISAGREE and "witness" in payload:
            note = f"  witness: {json.dumps(payload['witness'], sort_keys=True)}"
        elif status == OUTSIDE and "comparison_agrees" in payload:
            note = f"  comparison_agrees: {payload['comparison_agrees']}"
        elif status == ERROR and "message" in payload:
            note = f"  message: {payload['message']}"
        lines.append(f"[{status:>18}] {v['subject']}  {params}{note}")
    return lines


def _compact(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(x) for x in value)
    return str(value)
