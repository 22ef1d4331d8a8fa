"""The report writer: `write_json` streams exactly `render_json`'s bytes
through a temporary file and a rename, in bounded memory."""

import argparse
import errno
import json
import os
import stat
import threading
import tracemalloc

import pytest

from fpcoh import verdicts
from fpcoh.sweep import Spilled
from fpcoh.verdicts import (
    AGREE,
    ERROR,
    render_json,
    report_document,
    table_keys,
    verdict,
    write_csv,
    write_json,
    write_reports,
    write_value,
)
from helpers import json_documents

_DOCUMENT = {"command": "char nim", "verdicts": [{"coeff": k, "exponents": [k, 1]}
                                                 for k in range(40)]}


def _oracle(document) -> bytes:
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()


def test_write_json_matches_json_dumps_at_every_flush_boundary(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "report.json"

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(json_documents(hypothesis.strategies))
    def check(document):
        for pieces in (1, 2, 3):
            monkeypatch.setattr(verdicts, "_BUFFER_PIECES", pieces)
            write_json(document, str(path))
            assert path.read_bytes() == _oracle(document)

    check()
    assert list(tmp_path.iterdir()) == [path]


def test_write_value_writes_a_value_as_a_document_holds_it_at_its_depth(tmp_path,
                                                                         monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "value.json"

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(json_documents(hypothesis.strategies))
    def check(value):
        for pieces in (1, 2, 3):
            monkeypatch.setattr(verdicts, "_BUFFER_PIECES", pieces)
            for indent in ("\n", "\n    "):
                with open(path, "w", encoding="ascii") as fh:
                    assert write_value(value, indent, fh) is None
                    written = fh.tell()
                text = json.dumps(value, sort_keys=True, indent=2).replace("\n", indent)
                assert path.read_text() == text
                assert written == len(text) == path.stat().st_size

    check()


def test_a_float_after_several_buffers_leaves_the_earlier_report(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    flushes = []
    write_value = verdicts.write_value

    class Counting:  # the report file, counting the buffers written to it
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            flushes.append(len(text))
            return self.fh.write(text)

    monkeypatch.setattr(verdicts, "write_value",
                        lambda value, indent, fh: write_value(value, indent, Counting(fh)))
    records = [{"coeff": k, "exponents": [k, 1]} for k in range(3 * verdicts._BUFFER_PIECES)]
    with pytest.raises(TypeError):
        write_json({"verdicts": records + [{"coeff": 0.5}]}, str(path))
    assert len(flushes) > 1  # the float came after more than one buffer
    assert path.read_text() == "earlier report\n"
    assert list(tmp_path.iterdir()) == [path]


def test_repeated_record_shapes_pass_the_gate_in_every_record(tmp_path, monkeypatch):
    # records share a shape, their keys in another order each; one record,
    # the k-th, holds what the shape's plan has not seen
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "report.json"
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                       st.lists(st.integers(), max_size=3))
    plants = {"float": 0.5, "tuple": (1, 2), "non-str key": None,  # refused
              "bool in an int list": [1, True], "nested dict": {"b": [2], "a": 1}}

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True),
                      st.sampled_from(sorted(plants)), st.data())
    def check(keys, plant, data):
        records = [{key: data.draw(leaves) for key in data.draw(st.permutations(keys))}
                   for _ in range(data.draw(st.integers(1, 6)))]
        k, key = data.draw(st.integers(0, len(records) - 1)), data.draw(st.sampled_from(keys))
        if plant == "non-str key":
            records[k] = {(1 if x == key else x): v for x, v in records[k].items()}
        else:
            records[k][key] = plants[plant]
        document = {"verdicts": records}
        for pieces in (1, 2, 3):
            monkeypatch.setattr(verdicts, "_BUFFER_PIECES", pieces)
            path.write_text("earlier report\n")
            if plant in ("float", "tuple", "non-str key"):
                with pytest.raises(TypeError):
                    write_json(document, str(path))
                assert path.read_text() == "earlier report\n"
            else:
                write_json(document, str(path))
                assert path.read_bytes() == _oracle(document)
            assert list(tmp_path.iterdir()) == [path]

    check()


def test_a_report_keeps_the_mode_open_would_give_it(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    path.chmod(0o640)
    write_json(_DOCUMENT, str(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == _oracle(_DOCUMENT)
    opened, new = tmp_path / "opened.json", tmp_path / "new.json"
    opened.write_text("")
    write_json(_DOCUMENT, str(new))
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode)


def test_a_symlinked_report_keeps_its_link(tmp_path):
    reports = tmp_path / "reports"
    reports.mkdir()
    real, dangling = reports / "real.json", reports / "later.json"
    real.write_text("earlier report\n")
    for target in (real, dangling):
        link = tmp_path / f"link-{target.name}"
        link.symlink_to(target)
        write_json(_DOCUMENT, str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == _oracle(_DOCUMENT)
    assert sorted(p.name for p in reports.iterdir()) == ["later.json", "real.json"]


def test_a_fifo_receives_the_report_in_place(tmp_path, monkeypatch):
    monkeypatch.setattr(verdicts, "_BUFFER_PIECES", 2)  # many writes into the pipe
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    write_json(_DOCUMENT, str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [_oracle(_DOCUMENT)]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_write_json_holds_one_buffer_not_the_document(tmp_path):
    # string records: tracemalloc slows each allocation tenfold, and a string
    # renders in two pieces where a dict takes a dozen allocations
    document = {"verdicts": [f"record {k:06d} " + "t" * 80 for k in range(200_000)]}
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        write_json(document, str(path))
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = render_json(document)
        _, whole = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert text.encode() == path.read_bytes()
    assert size > 20_000_000
    assert streamed < size // 10, (streamed, size)
    assert whole > size, (whole, size)


def test_write_json_holds_one_buffer_of_dict_records(tmp_path):
    # a record is six pieces (its line start, each key's head and value, its
    # close), so a buffer holds 682 of these 16 384 records; joined into one
    # piece each it would hold 2048, and the peak would read about 0.46 of
    # the file size against 0.17
    document = {"verdicts": [{"coeff": k, "exponents": [k % 7, 1, 2]} for k in range(16_384)]}
    path = tmp_path / "records.json"
    tracemalloc.start()
    try:
        write_json(document, str(path))
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == _oracle(document)
    assert streamed < size // 4, (streamed, size)


def _spill(document: dict, path) -> dict:
    """document with each verdict but the last spilled to path as a sweep
    spills it, the record keeping only the subject, parameters and status."""
    spans, end = [], 0
    with open(path, "w", encoding="ascii") as fh:
        for v in document["verdicts"][:-1]:
            write_value(v, verdicts._ITEM, fh)
            start, end = end, fh.tell()
            spans.append((start, end, table_keys(v)))
    fd = os.open(path, os.O_RDONLY)
    records = [Spilled(verdict(v["subject"], v["parameters"], v["status"], {}), fd, *span)
               for v, span in zip(document["verdicts"], spans)]
    return {**document, "verdicts": records + document["verdicts"][-1:]}


def test_a_spilled_verdict_renders_as_the_whole_verdict(tmp_path, monkeypatch):
    table = [{"series": "h1", "multidegree": [k, 1], "dimension": k} for k in range(2000)]
    whole = {"command": "sweep", "parameters": {"rows": 4}, "verdicts": [
        verdict("big", {"n": 3}, AGREE, {"summary": "s", "dimension_table": table}),  # 4 blocks
        verdict("empty", {"n": 4}, AGREE, {}),
        verdict("row", {"argv": ["char"]}, ERROR, {"message": "usage error"}),
        verdict("kept", {"n": 5}, AGREE, {"dimension_table": table[:2]}),  # not spilled
    ]}
    spilled = _spill(whole, tmp_path / "verdicts.spill")
    assert os.path.getsize(tmp_path / "verdicts.spill") > 3 << 16
    assert render_json(spilled) == render_json(whole) == _oracle(whole).decode()
    path = tmp_path / "report.json"
    for pieces in (1, 2, 3):
        monkeypatch.setattr(verdicts, "_BUFFER_PIECES", pieces)
        write_json(spilled, str(path))
        assert path.read_bytes() == _oracle(whole)
    write_csv(str(tmp_path / "whole.csv"), whole["verdicts"])
    ns = argparse.Namespace(command="sweep", json=str(path), csv=str(tmp_path / "spilled.csv"))
    write_reports(ns, whole["parameters"], spilled["verdicts"])
    assert path.read_bytes() == _oracle(report_document("sweep", {"rows": 4}, whole["verdicts"]))
    assert (tmp_path / "spilled.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    with pytest.raises(OSError) as closed:  # the reports closed the spill file
        os.fstat(spilled["verdicts"][0].fd)
    assert closed.value.errno == errno.EBADF


def test_a_lost_spilled_text_leaves_the_reports_as_they_were(tmp_path):
    report = tmp_path / "report.json"
    report.write_text("earlier report\n")
    lost = OSError(errno.ENOSPC, "No space left on device", str(report))
    records = [verdict("nim-character", {"m": 1}, AGREE, {"summary": "1"})]
    ns = argparse.Namespace(command="sweep", json=str(report), csv=str(tmp_path / "r.csv"))
    with pytest.raises(OSError) as raised:
        write_reports(ns, {"rows": 1}, [Spilled(v, lost=lost) for v in records])
    assert raised.value is lost
    assert report.read_text() == "earlier report\n"
    assert list(tmp_path.iterdir()) == [report]
