"""The benchmark pins the sha256 of every job's --json document and of every
sweep row's verdict (perfbench/pins.json, written by perfbench/pin.py).  Here
each job and row runs in-process and must give its pinned bytes and keep the
exit-code contract, so a change to any report byte fails in tier-1 instead
of only in a benchmark run."""

import json
from pathlib import Path

from fpcoh import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_job_and_row_gives_its_pinned_bytes(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    pins = json.loads((PERFBENCH / "pins.json").read_text())
    singles, rows = workloads.every_job_and_row()
    assert {" ".join(argv) for argv in singles} == set(pins["jobs"])
    assert {workloads.row_key(row) for row in rows} == set(pins["rows"])
    out = tmp_path / "out.json"
    for argv in singles:
        key = " ".join(argv)
        assert cli.main(list(argv) + ["--json", str(out)]) == 0, key
        assert run.sha256(out.read_bytes()) == pins["jobs"][key], key
    for row in rows:
        key = workloads.row_key(row)
        code = cli.main(workloads.row_argv(row) + ["--json", str(out)])
        (verdict,) = json.loads(out.read_text())["verdicts"]
        assert code == run.verdict_exit(verdict) == workloads.row_expected_exit(row), key
        assert run.verdict_digest(verdict) == pins["rows"][key], key
    capsys.readouterr()
