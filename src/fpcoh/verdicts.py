"""Structured results for comparison runs: a verdict record per checked
statement, a JSON document shape shared by every subcommand, CSV export of
dimension tables, and the exit-code rules scripts rely on.

Determinism contract: the JSON document is byte-identical across repeated
runs and across worker counts, so it holds no timing and payloads may not
contain floats.

Handlers build parameters and payloads JSON-ready (str-keyed dicts, lists,
str, int, bool and None), and the document passes them through as they are.
`_render` is the one encoder and the one gate: it writes exactly the bytes
of the json module's dump with sorted keys and a two-space indent, plus a
newline, without json's pure-Python indenting encoder, and raises TypeError
on anything else (a float, a tuple, a non-str key).  A dict is written
from a `_plan`, which checks its keys: the sorted keys, each with the text
before its value.  A list of records reuses the last record's plan while
the keys match, so thousands of same-keyed records sort, quote and check
their keys once.  An int, a str or a list of ints is written in place, as
its own piece after its key's head.  `render_json` joins the pieces into
one string; `write_json` streams them to the report file, writing the
buffer out between list items once it holds `_BUFFER_PIECES` pieces, so a
report of any size holds one buffer of text at a time.
`write_value` streams one value the same way, its lines starting at a given
depth: a sweep spills each verdict so, and reports a `sweep.Spilled` record
of it, which stdout reads by key and whose `blocks()` yield that text.

Both reports are written to a temporary file in the target's directory and
renamed over the target after the last piece, so a failed render or write
leaves an earlier report whole and no temporary file behind.  A target that
exists but is not a regular file (a FIFO, a terminal) is written in place,
and a symlink is followed to the file it names.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import stat
from json.encoder import encode_basestring_ascii as _quote

AGREE = "agree"
DISAGREE = "disagree"
OUTSIDE = "outside-hypothesis"
ERROR = "error"

_STATUSES = (AGREE, DISAGREE, OUTSIDE, ERROR)

# Pieces `write_json` holds before it writes them out, a few hundred kB of
# text.  Keep it small: with 16 384 pieces `sweep-mixed` peaked at 33.9 MB,
# against 32.5 MB with this bound and 34.5 MB with the whole document held.
_BUFFER_PIECES = 4096

_ITEM = "\n    "  # where a verdict's lines start in the report document

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
    """The report document as one string."""
    out: list[str] = []
    _render_document(document, out, None)
    return "".join(out)


def write_json(document: dict, path: str) -> None:
    """Stream the report document to path (see the module docstring)."""
    with _replacing(path) as fh:
        _stream(fh, lambda out, flush: _render_document(document, out, flush))


def write_reports(ns, parameters: dict, verdicts: list) -> None:
    """The `--json` and `--csv` reports ns asks for; a lost spilled text
    raises before any is opened.  Closes the spill files' descriptors."""
    spilled = [v for v in verdicts if hasattr(v, "blocks")]
    try:
        if lost := next((v.lost for v in spilled if v.lost), None):
            raise lost
        if ns.json is not None:
            write_json(report_document(ns.command, parameters, verdicts), ns.json)
        if ns.csv is not None:
            write_csv(ns.csv, verdicts)
    finally:
        for fd in {v.fd for v in spilled if not v.lost}:
            os.close(fd)


def write_value(value, indent: str, fh) -> int:
    """Stream value's JSON text to fh as a document holds it where its lines
    start with indent, through the same bounded buffer as `write_json`.
    Returns the characters written, each one byte: the text is ASCII."""
    return _stream(fh, lambda out, flush: _render(value, indent, out, flush))


def _stream(fh, render) -> int:
    out: list[str] = []
    written = 0

    def flush() -> None:
        nonlocal written
        written += fh.write("".join(out))
        out.clear()

    render(out, flush)
    flush()
    return written


def _render_document(document: dict, out: list[str], flush) -> None:
    _render(document, "\n", out, flush)
    out.append("\n")


def _render(value, indent: str, out: list[str], flush) -> None:
    """Append the JSON text of value to out; indent is the newline and
    spaces that start each line at value's own depth.  flush, when given,
    empties out into the report; it runs between list items once out holds
    `_BUFFER_PIECES` pieces, and after each block of a spilled verdict."""
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
        _fields(value, _plan(value, indent), out, flush)
    elif kind is list and set(map(type, value)) == {int}:
        inner = indent + "  "
        out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{indent}]")
    elif kind is list:
        inner, keys = indent + "  ", None
        sep, comma = "[" + inner, "," + inner
        for x in value:
            out.append(sep)
            sep = comma
            if type(x) is dict and x:  # the last record's plan serves while the keys match
                if x.keys() != keys:
                    keys, plan = x.keys(), _plan(x, inner)
                _fields(x, plan, out, flush)
            else:
                _render(x, inner, out, flush)
            if flush and len(out) >= _BUFFER_PIECES:
                flush()
        out.append(indent + "]")
    elif hasattr(value, "blocks"):  # a spilled verdict, copied from its file
        for block in value.blocks():
            out.append(block.decode("ascii"))
            if flush:
                flush()
    else:
        raise TypeError(f"cannot render {kind.__name__} as JSON")


def _fields(value: dict, plan: tuple, out: list[str], flush) -> None:
    """Append the JSON text of the dict value as its `_plan` says."""
    heads, inner, close, open_ints, comma, shut = plan
    for k, head in heads:
        out.append(head)
        v = value[k]
        if (kind := type(v)) is int:
            out.append(int.__repr__(v))
        elif kind is str:
            out.append(_quote(v))
        elif kind is list and v and set(map(type, v)) == {int}:
            out.append(f"{open_ints}{comma.join(map(int.__repr__, v))}{shut}")
        else:
            _render(v, inner, out, flush)
    out.append(close)


def _plan(value: dict, indent: str) -> tuple:
    """How a dict with value's keys is written at indent: the head of each
    field (separator, line start, key) in sorted key order, and the text
    around an int list value."""
    if not all(isinstance(k, str) for k in value):
        raise TypeError("JSON object keys must be strings")
    inner = indent + "  "
    return ([(k, f"{',' if n else '{'}{inner}{_quote(k)}: ") for n, k in enumerate(sorted(value))],
            inner, indent + "}", f"[{inner}  ", f",{inner}  ", inner + "]")


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


def dimension_rows(record: dict):
    """Flat CSV rows for a verdict's dimension table, one at a time.  Each
    payload table row carries degree or multidegree plus a dimension;
    parameters are repeated on every row."""
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
        yield row


def table_keys(v: dict) -> set:
    """The keys v's dimension-table entries hold, all `write_csv` reads of a
    verdict to pick its columns."""
    return set().union(*v["payload"].get("dimension_table", ()))


def write_csv(path: str, verdicts: list) -> None:
    """Write every verdict's dimension rows to path, through the same
    temporary file and rename as `write_json`.  The columns are those some
    row has: subject and status, the parameters in sorted order, then the
    table's own columns, read off `table_keys` or a spilled verdict's
    `table`; a spilled text is read back only for its rows."""
    lead, tail = ("subject", "status"), ("series", "degree", "multidegree", "dimension")
    params, entries = set(), set()  # the keys rows take
    for v in verdicts:
        if keys := v.table if hasattr(v, "blocks") else table_keys(v):
            params.update(map(str, v["parameters"]))
            entries.update(keys)
    columns = [*lead, *sorted(params.difference(lead, tail)),
               *(c for c in tail if c in params or c in entries)]
    with _replacing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for v in verdicts:  # one whole verdict held at a time
            if hasattr(v, "blocks") and v.table:
                v = json.loads(b"".join(v.blocks()))
            writer.writerows(dimension_rows(v))


def same_file(a: str, b: str) -> bool:
    """Whether reports at paths a and b would replace one regular file or
    make one at a path not yet there (a FIFO takes both, in place)."""
    try:
        return os.path.samefile(a, b) and stat.S_ISREG(os.stat(a).st_mode)
    except OSError:  # a path not yet there
        return not os.path.exists(a) and os.path.realpath(a) == os.path.realpath(b)


@contextlib.contextmanager
def _replacing(path: str, newline: str | None = None):
    """A text file that takes path's place when the block ends without an
    error, and is removed on any error, leaving path as it was."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # no earlier report to keep
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    target = os.path.realpath(path) if os.path.islink(path) else path  # keep the link
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:  # the mode open(path, "w") gives, umask applied
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the report, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", newline=newline) as fh:
            if mode is not None:  # a replaced report keeps its permission bits
                os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


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
