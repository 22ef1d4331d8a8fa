"""End-to-end CLI behaviour: exit codes, report documents, sweeps."""

import argparse
import builtins
import contextlib
import csv
import errno
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import fpcoh.sweep
import fpcoh.verdicts
from fpcoh import cli, linalg
from fpcoh.characters import LaurentPolynomial
from fpcoh.sweep import Spilled
from fpcoh.verdicts import (
    AGREE,
    DISAGREE,
    ERROR,
    OUTSIDE,
    dimension_rows,
    exit_code,
    human_lines,
    render_json,
    report_document,
    verdict,
    write_csv,
)
from helpers import assert_json_ready, str_length_summary


def test_homology_run(capsys):
    code = cli.main(["complex", "homology", "--weights", "1,1,1,1", "--prime", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[             agree] homology" in out
    assert "1 + t + t^2 + t^3" in out


def test_homology_summary_text():
    assert cli._homology_summary((1, 0, 2)) == "1 + 2*t^2"
    assert cli._homology_summary((0, 1, 0, 3)) == "t + 3*t^3"
    assert cli._homology_summary((0, 0)) == "0"
    assert cli._homology_summary(()) == "0"


def test_theorem_multiple_primes(capsys):
    code = cli.main(["complex", "theorem", "--d", "4", "--primes", "2,3,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("all-ones-homology-formula") == 3


def test_window_theorem_agreement(capsys):
    code = cli.main([
        "incidence", "chars", "--n", "3", "--d", "2", "--e", "1",
        "--prime", "2", "--compare", "h1-theorem",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "h1-window-theorem" in out
    assert "agree" in out


def test_outside_hypothesis_without_comparison_exits_zero(capsys):
    # d < p, so the window formula is not even evaluated
    code = cli.main([
        "incidence", "chars", "--n", "3", "--d", "1", "--e", "1",
        "--prime", "2", "--compare", "h1-theorem",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "outside-hypothesis" in out
    assert "comparison_agrees" not in out


def test_filtration_negative_control_exits_two(capsys):
    # a - b = 0 < p - 1: outside the hypothesis AND the characters differ
    code = cli.main([
        "det", "filtration", "--n", "3", "--a", "1", "--b", "1",
        "--i", "0", "--prime", "2", "--compare",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "outside-hypothesis" in out
    assert "comparison_agrees: False" in out


def test_filtration_in_hypothesis_agrees():
    code = cli.main([
        "det", "filtration", "--n", "3", "--a", "2", "--b", "1",
        "--i", "1", "--prime", "2", "--compare",
    ])
    assert code == 0


@pytest.mark.parametrize("flags", [
    ["--n", "3", "--a", "3", "--b", "1", "--i", "2", "--prime", "2"],
    ["--n", "3", "--a", "3", "--b", "1", "--i", "2", "--prime", "2", "--classical"],
    ["--n", "3", "--a", "2", "--b", "1", "--i", "5", "--prime", "2", "--classical"],
])
def test_filtration_compare_beyond_min_bidegree_is_a_parameter_error(flags, capsys, tmp_path):
    # the two-row Schur target holds only for i <= min(a, b)
    report = tmp_path / "report.json"
    code = cli.main(["det", "filtration", *flags, "--compare", "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error" in captured.err
    assert "min(--a, --b)" in captured.err
    assert captured.out == ""
    assert not report.exists()
    assert cli.main(["det", "filtration", *flags]) == 0  # the quotient itself is fine


# Each check is forced to disagree by corrupting one input it reads; the
# witness is the one the check's rule picks from that corrupted data.


def _single_verdict(argv, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main([*argv, "--json", str(report)])
    capsys.readouterr()
    (verdict,) = json.loads(report.read_text())["verdicts"]
    return code, verdict


def test_involution_rank_mismatch_witness(tmp_path, capsys, monkeypatch):
    from fpcoh import complexes

    exact = complexes.min_power_exceeding
    monkeypatch.setattr(complexes, "min_power_exceeding", lambda p, b: exact(p, b) + 1)
    code, verdict = _single_verdict(
        ["complex", "involution", "--w0", "1", "--d", "2", "--primes", "2"], tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == DISAGREE
    assert verdict["payload"]["witness"] == {"degree": 1, "direct": 0, "shifted": 1}


def test_involution_smith_mismatch_witness(tmp_path, capsys, monkeypatch):
    from fpcoh import complexes

    monkeypatch.setattr(complexes, "smith_invariants", lambda rows: (rows[0][0],))
    code, verdict = _single_verdict(
        ["complex", "involution", "--w0", "1", "--d", "2", "--primes", "2"], tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == DISAGREE
    assert verdict["payload"]["agree_ranks"] is True
    assert verdict["payload"]["witness"] == {"smith_direct": [[2], [3]],
                                             "smith_negated": [[-4], [-3]]}


def test_ses_check_failing_row_witness(tmp_path, capsys, monkeypatch):
    from fpcoh import complexes

    exact = complexes.homology_dims

    def inflated(cx):  # the whole complex only, not its two sides or the contraction
        h = exact(cx)
        if cx.d < 3:
            return h
        return tuple(c + 10 for c in h)

    monkeypatch.setattr(complexes, "homology_dims", inflated)
    code, verdict = _single_verdict(
        ["complex", "ses-check", "--weights", "1,1,1,1", "--split", "1", "--prime", "2"],
        tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == DISAGREE
    assert verdict["payload"]["witness"] == {"degree": 0, "homology": 11, "bound": 1,
                                             "ok": False}


def test_periodicity_first_differing_degree_witness(tmp_path, capsys, monkeypatch):
    from fpcoh import complexes

    exact = complexes.homology_dims

    def shifted_up(cx):
        h = exact(cx)
        if cx.weights[0] == 1:
            return h
        return tuple(c + 1 for c in h)

    monkeypatch.setattr(complexes, "homology_dims", shifted_up)
    code, verdict = _single_verdict(
        ["stable", "periodicity", "--w0", "1", "--d", "3", "--prime", "2", "--r", "2"],
        tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == DISAGREE
    assert verdict["payload"]["witness"] == {"degree": 0, "base": 1, "shifted": 2}


@pytest.mark.parametrize("prime, status, extra", [
    ("2", DISAGREE, {"witness": {"missing_monomial": [[2, 0, 0], [1, 0, 0]]}}),
    ("5", OUTSIDE, {"comparison_agrees": False}),  # a - b = 1 < p - 1
])
def test_lead_terms_missing_monomial(prime, status, extra, tmp_path, capsys, monkeypatch):
    from fpcoh import determinantal

    exact = determinantal.enumerate_pssyt
    monkeypatch.setattr(determinantal, "enumerate_pssyt",
                        lambda *args: list(exact(*args)) + [((1, 1), (1,))])
    code, verdict = _single_verdict(
        ["det", "lead-terms", "--n", "3", "--a", "2", "--b", "1", "--prime", prime],
        tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == status
    assert verdict["payload"]["missing"] == [[[2, 0, 0], [1, 0, 0]]]
    payload = verdict["payload"]
    assert {k: payload[k] for k in ("witness", "comparison_agrees") if k in payload} == extra


@pytest.mark.parametrize("n, a, b, p", [(3, 3, 1, 2), (4, 4, 2, 3)])
def test_lead_terms_missing_list_is_sorted_as_xy_pairs(n, a, b, p, tmp_path, capsys,
                                                       monkeypatch):
    # with no leading monomials every tableau monomial is missing; the list
    # keeps the order of the (x, y) exponent pairs
    from fpcoh import determinantal
    from fpcoh.combinatorics import enumerate_pssyt

    monkeypatch.setattr(determinantal, "leading_monomials", lambda slc: set())
    pairs = sorted(
        (tuple(u.count(k) for k in range(1, n + 1)),
         tuple(v.count(k) for k in range(1, n + 1)))
        for u, v in enumerate_pssyt(n, a, b, p)
    )
    want = [[list(x), list(y)] for x, y in pairs]
    code, verdict = _single_verdict(
        ["det", "lead-terms", "--n", str(n), "--a", str(a), "--b", str(b),
         "--prime", str(p)], tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == DISAGREE
    assert len(want) > 1
    assert verdict["payload"]["missing"] == want
    assert verdict["payload"]["witness"] == {"missing_monomial": want[0]}
    assert verdict["payload"]["pivot_count"] == 0


def run_module(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "fpcoh", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)


def test_python_dash_m_fpcoh_help_exits_zero():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fpcoh")


def test_importing_the_package_root_loads_no_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys, fpcoh; print(fpcoh.__version__, "
             "sorted(m for m in ('numpy', 'fpcoh.complexes', 'fpcoh.cli') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.1.0 []\n"


def test_a_single_command_never_loads_the_sweep_module(tmp_path):
    # compiling fpcoh.sweep would raise a single command's peak RSS
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys\nfrom fpcoh import cli\ncode = cli.main(sys.argv[1:])\n"
             "print(code, 'fpcoh.sweep' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe, "char", "nim", "--m", "1", "--n", "2",
                           "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


def test_json_and_csv_naming_one_file_are_refused(tmp_path, capsys, monkeypatch):
    argv = ["char", "nim", "--m", "1", "--n", "2"]
    report, ran = tmp_path / "r.out", []
    monkeypatch.setattr(cli, "_cmd_char_nim", lambda ns: ran.append(ns))
    for other in (report, tmp_path / "sub" / ".." / "r.out"):  # a path not yet there
        assert cli.main([*argv, "--json", str(report), "--csv", str(other)]) == 1
        assert capsys.readouterr().err == f"fpcoh: --json and --csv both name {other}\n"
    report.write_text("earlier report\n")
    link = tmp_path / "link.out"
    link.symlink_to(report)
    assert cli.main([*argv, "--json", str(report), "--csv", str(link)]) == 1
    assert capsys.readouterr().err == f"fpcoh: --json and --csv both name {link}\n"
    assert ran == [] and report.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out", "r.out"]
    monkeypatch.undo()  # a target written in place takes both reports, as before
    assert cli.main([*argv, "--json", os.devnull, "--csv", os.devnull]) == 0


def test_python_dash_m_fpcoh_usage_error_exits_one():
    done = run_module("det", "filtration", "--n", "3")
    assert done.returncode == 1
    assert "error: the following arguments are required" in done.stderr


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["complex", "homology", "--weights", "1,1"])
    assert exc.value.code == 1
    for weights in ("1,x", "1,,2", "1,2,", ","):  # an empty field is not skipped
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["complex", "homology", "--weights", weights, "--prime", "2"])
        assert exc.value.code == 1
        assert f"expected comma-separated integers, got {weights!r}" in capsys.readouterr().err


def test_regime_error_exits_one(capsys):
    code = cli.main([
        "incidence", "chars", "--n", "3", "--d", "2", "--e", "-3", "--prime", "2",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "unsupported regime" in err


def test_parameter_error_exits_one(capsys):
    code = cli.main([
        "incidence", "chars", "--n", "3", "--d", "2", "--e", "2",
        "--prime", "3", "--compare", "char2",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "parameter error" in err


def test_compare_char2_off_prime_two_is_refused_before_computing(capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("h_characters ran before the refusal")

    monkeypatch.setattr(cli, "h_characters", computed)
    code = cli.main([
        "incidence", "chars", "--n", "3", "--d", "2", "--e", "1",
        "--prime", "3", "--compare", "char2",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "fpcoh: parameter error: --compare char2 requires --prime 2\n"
    assert captured.out == ""


def test_oversized_complex_exits_one_at_once(tmp_path, capsys):
    path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["complex", "theorem", "--d", "40", "--primes", "2", "--json", str(path)])
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert code == 1
    assert "parameter error" in err and "over the budget" in err
    assert out == "" and not path.exists()


_PERIODICITY = ["stable", "periodicity", "--w0", "2", "--d", "3", "--prime", "2"]


@pytest.mark.parametrize("r", ["20000", "1000000000"])
def test_huge_period_exits_one_at_once(r, tmp_path, capsys):
    # 2^20000 has 6021 digits, past the 4300 Python writes an int with
    path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main(_PERIODICITY + ["--r", r, "--json", str(path)])
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert code == 1
    assert "parameter error" in err and "more than 13000 bits" in err
    assert out == "" and not path.exists()


def test_long_period_below_the_bound_writes_its_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(_PERIODICITY + ["--r", "12000", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    (verdict,) = json.loads(path.read_text())["verdicts"]
    assert verdict["status"] == AGREE
    assert verdict["payload"]["q"] == 2**12000


def test_sweep_with_a_huge_period_row_writes_its_report(tmp_path, capsys):
    config = {"runs": [{"command": "stable periodicity", "w0": 2, "d": 3, "prime": 2,
                        "r": [2, 20000]}]}
    cfg = tmp_path / "periods.json"
    cfg.write_text(json.dumps(config))
    path = tmp_path / "report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1", "--json", str(path)])
    capsys.readouterr()
    assert code == 1
    small, huge = json.loads(path.read_text())["verdicts"]
    assert small["status"] == AGREE and small["payload"]["q"] == 4
    assert huge["status"] == ERROR
    assert "more than 13000 bits" in huge["payload"]["message"]


def test_failed_render_leaves_an_existing_report_whole(tmp_path, capsys, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")

    def fail(document, out, flush):
        raise RuntimeError("render failed")

    monkeypatch.setattr(fpcoh.verdicts, "_render_document", fail)
    with pytest.raises(RuntimeError, match="render failed"):
        cli.main(["char", "nim", "--m", "1", "--n", "2", "--json", str(path)])
    capsys.readouterr()
    assert path.read_text() == "earlier report\n"
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def test_json_document_shape(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main([
        "complex", "homology", "--weights", "2,1,1", "--prime", "3",
        "--json", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"version", "command", "parameters", "verdicts"}
    assert doc["command"] == "complex homology"
    assert doc["parameters"] == {"weights": [2, 1, 1], "prime": 3}
    (verdict,) = doc["verdicts"]
    assert set(verdict) == {"subject", "parameters", "status", "payload"}
    assert "seconds" not in json.dumps(doc)


def test_json_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        cli.main([
            "incidence", "chars", "--n", "3", "--d", "3", "--e", "2",
            "--prime", "2", "--json", str(p),
        ])
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_columns(tmp_path, capsys):
    path = tmp_path / "dims.csv"
    code = cli.main([
        "stable", "hook", "--w0", "1", "--d", "3", "--prime", "3",
        "--csv", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "subject,status,d,prime,w0,series,degree,dimension"
    assert len(lines) == 1 + 4  # one row per cohomological degree
    assert lines[1].startswith("stable-hook-cohomology,agree,3,3,1,")


def test_csv_multidegree_column(tmp_path, capsys):
    path = tmp_path / "chars.csv"
    cli.main([
        "char", "schur", "--a", "2", "--b", "0", "--n", "2",
        "--csv", str(path),
    ])
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "subject,status,a,b,n,series,multidegree,dimension"
    assert '"2,0"' in lines[1] or "2,0" in lines[1]


@pytest.mark.parametrize("argv", [
    ["--json=", "char", "nim", "--m", "1", "--n", "2"],
    ["char", "nim", "--m", "1", "--n", "2", "--json="],
    ["char", "nim", "--m", "1", "--n", "2", "--json=--"],
    ["char", "nim", "--m", "1", "--n", "2", "--csv="],
    ["--csv=--", "char", "nim", "--m", "1", "--n", "2"],
])
def test_an_empty_report_path_is_refused_before_the_handler(argv, tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_cmd_char_nim", lambda ns: pytest.fail("handler ran"))
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    flag = next(a for a in argv if a.startswith("--json") or a.startswith("--csv"))
    assert captured.out == ""
    assert captured.err == f"fpcoh: {flag.partition('=')[0]} needs a file path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--json", "--csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_report_path_exits_one_with_one_line(flag, where, tmp_path, capsys):
    target = tmp_path / "reports"
    if where == "directory":
        target.mkdir()
    else:
        target = target / "r.report"
    code = cli.main(["char", "nim", "--m", "1", "--n", "2", flag, str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert "nim-character" in captured.out  # the verdict still prints
    (line,) = captured.err.splitlines()
    assert line.startswith("fpcoh: cannot write report: ")
    assert line.endswith(f": '{target}'")  # the report, not a temporary file
    assert [p.name for p in tmp_path.rglob("*")] == (["reports"] if where == "directory"
                                                     else [])


def test_sweep_expansion_row_major():
    rows = cli.expand_config({
        "runs": [
            {
                "command": "complex theorem",
                "d": [2, 3],
                "primes": ["2,3", "5"],
            }
        ]
    })
    assert rows == [
        ["complex", "theorem", "--d=2", "--primes=2,3"],
        ["complex", "theorem", "--d=2", "--primes=5"],
        ["complex", "theorem", "--d=3", "--primes=2,3"],
        ["complex", "theorem", "--d=3", "--primes=5"],
    ]


def test_sweep_expansion_flags_and_errors():
    rows = cli.expand_config({
        "runs": [
            {
                "command": "det filtration",
                "n": 2, "a": 2, "b": 1, "i": 1, "prime": 2,
                "compare": True,
                "classical": False,
            }
        ]
    })
    assert rows == [[
        "det", "filtration", "--n=2", "--a=2", "--b=1",
        "--i=1", "--prime=2", "--compare",
    ]]
    with pytest.raises(ValueError):
        cli.expand_config({"runs": [{"d": 2}]})
    with pytest.raises(ValueError):
        cli.expand_config({"runs": [{"command": "sweep", "config": "x"}]})
    with pytest.raises(ValueError):
        cli.expand_config({"runs": [{"command": "char nim", "m": []}]})
    with pytest.raises(ValueError):
        cli.expand_config({"notruns": []})
    for config in ({"runs": {"command": "char nim"}}, {"runs": [1]},
                   {"runs": [{"command": ""}]}, {"runs": [{"command": "  "}]}):
        with pytest.raises(ValueError):
            cli.expand_config(config)
    for key in ("json", "csv"):
        with pytest.raises(ValueError, match="report flag of the sweep"):
            cli.expand_config({"runs": [{"command": "char nim", "m": 1, "n": 2,
                                         key: "row.out"}]})


def _write_sweep_config(tmp_path):
    config = {
        "runs": [
            {"command": "complex theorem", "d": [2, 3, 4], "primes": "2,3"},
            {
                "command": "incidence chars",
                "n": 3, "d": [2, 3], "e": 2, "prime": 2,
                "compare": "char2",
            },
        ]
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_runs_and_is_deterministic_across_workers(tmp_path, capsys):
    cfg = _write_sweep_config(tmp_path)
    out_seq = tmp_path / "seq.json"
    out_par = tmp_path / "par.json"
    code1 = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                      "--json", str(out_seq)])
    code2 = cli.main(["sweep", "--config", str(cfg), "--parallel", "8",
                      "--json", str(out_par)])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert out_seq.read_bytes() == out_par.read_bytes()
    doc = json.loads(out_seq.read_text())
    # 3 theorem rows x 2 primes + 2 incidence rows
    assert len(doc["verdicts"]) == 3 * 2 + 2
    assert doc["verdicts"][0]["parameters"] == {"d": 2, "prime": 2}
    assert doc["verdicts"][-1]["parameters"]["d"] == 3


def test_sweep_without_a_known_cpu_count_runs_every_row(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    config = {"runs": [{"command": "char nim", "m": [1, 2], "n": 2}]}
    cfg = tmp_path / "cpus.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "cpus-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    verdicts = json.loads(out_path.read_text())["verdicts"]
    assert [v["parameters"] for v in verdicts] == [{"m": 1, "n": 2}, {"m": 2, "n": 2}]


def test_sweep_workers_default_to_the_affinity_mask(tmp_path, capsys, monkeypatch):
    # one CPU allowed on a host of many: one worker, so the rows run in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: pytest.fail("pool started"))
    config = {"runs": [{"command": "char nim", "m": [1, 2, 3], "n": 2}]}
    cfg = tmp_path / "affinity.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.count("nim-character") == 3


def test_sweep_row_failure_becomes_error_verdict(tmp_path, capsys):
    config = {"runs": [
        {"command": "incidence chars", "n": 3, "d": 2, "e": -5, "prime": 2},
        {"command": "complex theorem", "d": 2, "primes": "2"},
    ]}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1"])
    out = capsys.readouterr().out
    assert code == 1  # error row, but no disagreement
    assert "sweep-row" in out
    assert "[             agree]" in out


def test_sweep_keeps_negative_leading_weight(tmp_path, capsys):
    config = {"runs": [
        {"command": "complex homology", "weights": "-9,1,1,1,1,1,1", "prime": 3},
    ]}
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "negative-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    (verdict,) = json.loads(out_path.read_text())["verdicts"]
    assert verdict["status"] == AGREE
    assert verdict["parameters"]["weights"] == [-9, 1, 1, 1, 1, 1, 1]


def test_sweep_survives_a_row_that_raises(tmp_path, capsys, monkeypatch):
    def broken(ns):
        raise AssertionError("differential square is nonzero at degree 2")

    monkeypatch.setattr(cli, "_cmd_complex_homology", broken)
    config = {"runs": [
        {"command": "complex theorem", "d": 2, "primes": "2"},
        {"command": "complex homology", "weights": "1,1,1", "prime": 2},
        {"command": "char nim", "m": 1, "n": 2},
    ]}
    cfg = tmp_path / "raising.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "raising-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(out_path)])
    capsys.readouterr()
    assert code == 1
    verdicts = json.loads(out_path.read_text())["verdicts"]
    assert [v["status"] for v in verdicts] == [AGREE, ERROR, AGREE]
    assert verdicts[1]["payload"]["message"].startswith("AssertionError: ")


def test_internal_failure_becomes_error_verdict(tmp_path, capsys, monkeypatch):
    from fpcoh.combinatorics import binom_int

    monkeypatch.setattr(
        "fpcoh.complexes.binom_int",
        lambda m, k: binom_int(m, k) + ((m, k) == (4, 2)),
    )
    out_path = tmp_path / "crash.json"
    code = cli.main(["complex", "homology", "--weights", "2,1,1,1",
                     "--prime", "3", "--json", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.out
    assert "AssertionError: differential square" in captured.err
    verdicts = json.loads(out_path.read_text())["verdicts"]
    assert len(verdicts) == 1
    assert verdicts[0]["status"] == ERROR
    assert verdicts[0]["payload"]["message"] == (
        "AssertionError: differential square is nonzero at degree 2"
    )


def test_killed_pool_worker_costs_only_its_rows(tmp_path, capsys, monkeypatch):
    def killed(m, n):
        time.sleep(0.5)  # the other worker finishes its rows first
        os._exit(3)

    monkeypatch.setattr(cli, "nim_poly", killed)  # forked workers inherit it
    config = {"runs": [
        {"command": "complex theorem", "d": [1, 2, 3, 4], "primes": "2"},
        {"command": "char nim", "m": 1, "n": 2},
    ]}
    cfg = tmp_path / "killed.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "killed-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "2",
                     "--json", str(out_path)])
    capsys.readouterr()
    assert code == 1
    document = json.loads(out_path.read_text())
    assert document["parameters"]["rows"] == 5
    verdicts = document["verdicts"]
    assert len(verdicts) == 5
    assert [v["subject"] for v in verdicts[:4]] == ["all-ones-homology-formula"] * 4
    assert [v["status"] for v in verdicts[:4]] == [AGREE] * 4
    assert verdicts[4]["subject"] == "sweep-row"
    assert verdicts[4]["status"] == ERROR
    assert verdicts[4]["parameters"]["argv"] == ["char", "nim", "--m=1", "--n=2"]
    assert verdicts[4]["payload"]["message"].startswith("BrokenProcessPool: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["killed-report.json", "killed.json"]


def _mixed_grid(tmp_path):
    """71 rows of every kind: agreeing, erroring (a < b), and a failed
    comparison outside its hypothesis (the negative control, exit 2); the
    theorem rows give two verdicts each."""
    config = {"runs": [
        {"command": "complex theorem", "d": [1, 2, 3, 4, 5, 6], "primes": "2,3"},
        {"command": "char schur", "a": list(range(10)), "b": [0, 1, 2, 3], "n": 2},
        {"command": "char nim", "m": [1, 2, 3, 4, 5, 6], "n": [2, 3]},
        {"command": "incidence chars", "n": 3, "d": [1, 2], "e": [0, 1, 2], "prime": 2},
        {"command": "complex homology", "weights": ["1,1,1", "2,1,1", "-9,1,1"],
         "prime": [2, 3]},
        {"command": "det filtration", "n": 3, "a": 1, "b": 1, "i": 0, "prime": 2,
         "compare": True},
    ]}
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(config))
    return cfg, len(cli.expand_config(config))


def test_sweep_json_is_byte_identical_across_chunked_worker_counts(tmp_path, capsys):
    cfg, rows = _mixed_grid(tmp_path)
    assert rows == 71  # over 8 rows per future at 2 and 3 workers
    documents, tables, codes, outputs = [], [], [], []
    for workers in ("1", "2", "3"):
        out_path = tmp_path / f"mixed-{workers}.json"
        csv_path = tmp_path / f"mixed-{workers}.csv"
        codes.append(cli.main(["sweep", "--config", str(cfg), "--parallel", workers,
                               "--json", str(out_path), "--csv", str(csv_path)]))
        outputs.append(capsys.readouterr())
        documents.append(out_path.read_bytes())
        tables.append(csv_path.read_bytes())
        # without a report, and with the CSV alone, whose spill files sit beside it
        csv_alone = tmp_path / f"alone-{workers}.csv"
        for report in ([], ["--csv", str(csv_alone)]):
            codes.append(cli.main(["sweep", "--config", str(cfg), "--parallel", workers,
                                   *report]))
            outputs.append(capsys.readouterr())
        tables.append(csv_alone.read_bytes())
    assert codes == [2] * 9
    assert documents[0] == documents[1] == documents[2]
    assert all(table == tables[0] for table in tables)
    assert all(output == outputs[0] for output in outputs)  # stdout and stderr
    lines = outputs[0].out.splitlines()
    assert sum(line.startswith("[") for line in lines) == rows + 6 and outputs[0].err == ""
    verdicts = json.loads(documents[0])["verdicts"]
    statuses = {v["status"] for v in verdicts}
    assert statuses == {AGREE, ERROR, OUTSIDE}
    assert len(verdicts) == rows + 6  # the theorem rows give two verdicts each


def test_killed_worker_loses_its_whole_chunk_in_grid_order(tmp_path, capsys, monkeypatch):
    nim_poly = cli.nim_poly

    def killed(m, n):
        if m == 5:
            time.sleep(0.5)  # the other worker finishes every other chunk first
            os._exit(3)
        return nim_poly(m, n)

    config = {"runs": [
        {"command": "complex theorem", "d": [1, 2, 3, 4, 5, 6], "primes": "2"},
        {"command": "char schur", "a": [2, 3, 4, 5, 6, 7, 8, 9], "b": [0, 1, 2], "n": 2},
        {"command": "char nim", "m": [1, 2, 3, 4, 5, 6, 7, 8], "n": 2},
    ]}
    cfg = tmp_path / "chunks.json"
    cfg.write_text(json.dumps(config))
    rows = cli.expand_config(config)
    assert len(rows) == 38
    reference = tmp_path / "reference.json"
    assert cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(reference)]) == 0
    monkeypatch.setattr(cli, "nim_poly", killed)  # forked workers inherit it
    out_path = tmp_path / "chunks-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "2",
                     "--json", str(out_path)])
    capsys.readouterr()
    assert code == 1
    verdicts = json.loads(out_path.read_text())["verdicts"]
    expected = json.loads(reference.read_text())["verdicts"]
    assert len(verdicts) == len(rows)
    # 2 workers make 16 chunks; the row with m = 5 is row 34, in the chunk
    # of rows 2, 18 and 34, whose verdicts never came back
    count = 16
    lost = set(range(34 % count, len(rows), count))
    assert lost == {2, 18, 34}
    for i, (argv, got, want) in enumerate(zip(rows, verdicts, expected)):
        if i in lost:
            assert got["subject"] == "sweep-row"
            assert got["status"] == ERROR
            assert got["parameters"]["argv"] == argv
            assert got["payload"]["message"].startswith("BrokenProcessPool: ")
        else:
            assert got == want, i
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chunks-report.json", "chunks.json", "reference.json"]


def test_an_in_process_sweep_holds_about_one_row(tmp_path, capsys):
    # rows of identical size, each a few hundred kB of verdict; q >= 20
    # truncates nothing, so only the parameters differ
    config = {"runs": [{"command": "char schur", "a": 10, "b": 5, "n": 4,
                        "q": list(range(20, 40))}]}
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    cli.build_parser()  # built once per process, as the sweep's own parse does
    tracemalloc.start()
    try:
        row = cli._run_row(["char", "schur", "--a=10", "--b=5", "--n=4", "--q=20"])
        _, one_row = tracemalloc.get_traced_memory()
        del row
        tracemalloc.reset_peak()
        code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                         "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")])
        _, sweep = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "r.json").stat().st_size > 20 * 180_000
    assert sweep < 4 * one_row, (sweep, one_row)  # twenty rows held would be 20x


def test_pool_workers_return_only_what_the_parent_prints(tmp_path, capsys, monkeypatch):
    futures = []

    class Recording(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    def keys(value) -> set:
        if isinstance(value, dict):
            return set(value).union(*map(keys, value.values()))
        if isinstance(value, (list, tuple)):
            return set().union(*map(keys, value))
        return set()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    cfg, _ = _mixed_grid(tmp_path)
    heavy = {"character", "dimension_table", "h0", "h1", "quotient", "target"}
    report = tmp_path / "r.json"
    for extra in ([], ["--json", str(report), "--csv", str(tmp_path / "r.csv")]):
        futures.clear()
        assert cli.main(["sweep", "--config", str(cfg), "--parallel", "2", *extra]) == 2
        assert len(futures) == 16
        returned = keys([future.result() for future in futures])
        assert not returned & heavy
        assert returned >= {"subject", "parameters", "status", "payload", "summary"}
    capsys.readouterr()
    assert keys(json.loads(report.read_text())) >= heavy  # what the workers kept back


def _small_grid(tmp_path):
    config = {"runs": [
        {"command": "complex theorem", "d": [1, 2, 3], "primes": "2"},
        {"command": "char nim", "m": [1, 2, 3], "n": 2},
        {"command": "incidence chars", "n": 3, "d": 2, "e": [0, 1], "prime": 2},
    ]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    return cfg


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_leaves_only_its_reports(workers, tmp_path, capsys, monkeypatch):
    cfg = _small_grid(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--parallel", workers,
            "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "r.csv", "r.json"]

    def broken(ns):
        raise AssertionError("a row that raises")

    monkeypatch.setattr(cli, "_cmd_char_nim", broken)  # forked workers inherit it
    assert cli.main(argv) == 1
    capsys.readouterr()
    statuses = [v["status"] for v in json.loads((tmp_path / "r.json").read_text())["verdicts"]]
    assert statuses == [AGREE] * 3 + [ERROR] * 3 + [AGREE] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "r.csv", "r.json"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_full_disk_loses_the_report_not_the_rows(workers, tmp_path, capsys, monkeypatch):
    cfg = _small_grid(tmp_path)
    sweep = ["sweep", "--config", str(cfg), "--parallel", workers]
    assert cli.main(sweep) == 0
    lines = capsys.readouterr().out
    write_value, calls = fpcoh.sweep.write_value, []

    def full(value, indent, fh):
        calls.append(indent)
        if len(calls) == 3:  # the third verdict each process spills
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_value(value, indent, fh)

    monkeypatch.setattr(fpcoh.sweep, "write_value", full)  # forked workers inherit it
    report = tmp_path / "r.json"
    assert cli.main([*sweep, "--json", str(report), "--csv", str(tmp_path / "r.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == lines
    assert captured.err == ("fpcoh: cannot write report: "
                            f"[Errno 28] No space left on device: '{report}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


@pytest.mark.parametrize("how", ["path", "symlink"])
@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_a_sweep_refuses_a_report_over_its_own_config(flag, how, tmp_path, capsys,
                                                      monkeypatch):
    cfg = _small_grid(tmp_path)
    config = cfg.read_bytes()
    target = tmp_path / "link.json"
    if how == "symlink":
        target.symlink_to(cfg)
    else:
        target = cfg
    ran = []
    monkeypatch.setattr(cli, "_run_row", lambda argv: ran.append(argv) or [])
    assert cli.main(["sweep", "--config", str(cfg), "--parallel", "1", flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and ran == []
    assert captured.err == f"fpcoh: parameter error: {flag} names the sweep config {cfg}\n"
    assert cfg.read_bytes() == config


def test_a_sweep_copies_a_large_verdict_in_blocks(tmp_path, capsys, monkeypatch):
    config = {"runs": [{"command": "char schur", "a": 10, "b": 5, "n": 4},  # 186 kB
                       {"command": "char nim", "m": [1, 2], "n": 2}]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    reads = []
    pread = os.pread

    def counted(fd, count, offset):
        reads.append(count)
        return pread(fd, count, offset)

    monkeypatch.setattr(os, "pread", counted)
    report = tmp_path / "r.json"
    assert cli.main(["sweep", "--config", str(cfg), "--parallel", "2",
                     "--json", str(report)]) == 0
    capsys.readouterr()
    text = report.read_text()
    assert text == _oracle(json.loads(text))
    assert reads[:3] == [1 << 16] * 3 and len(reads) == 4 + 2  # the big verdict in blocks


@pytest.mark.parametrize("flag", ["--json", "--csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_a_sweep_with_an_unwritable_report_prints_its_lines_then_one_error(
        flag, where, tmp_path, capsys):
    cfg = _small_grid(tmp_path)
    sweep = ["sweep", "--config", str(cfg), "--parallel", "2"]
    assert cli.main(sweep) == 0
    lines = capsys.readouterr().out
    target = tmp_path / "reports"
    if where == "directory":
        target.mkdir()
    else:
        target = target / "r.report"
    assert cli.main([*sweep, flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == lines
    (line,) = captured.err.splitlines()
    reason = ("[Errno 21] Is a directory" if where == "directory"
              else "[Errno 2] No such file or directory")
    assert line == f"fpcoh: cannot write report: {reason}: '{target}'"
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["grid.json", "reports"] if where == "directory" else ["grid.json"])


def test_a_sweep_into_a_fifo_spills_to_the_temporary_directory(tmp_path, capsys,
                                                                monkeypatch):
    # a FIFO is written in place and has no directory of its own for spill files
    cfg = _small_grid(tmp_path)
    spills = tmp_path / "tmp"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    sweep = ["sweep", "--config", str(cfg), "--parallel", "2"]
    assert cli.main([*sweep, "--json", str(tmp_path / "r.json")]) == 0
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    made, os_open = [], os.open

    def recorded(path, *args, **kwargs):
        made.append(os.path.dirname(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorded)
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert cli.main([*sweep, "--json", str(fifo)]) == 0
    reader.join(timeout=10)
    capsys.readouterr()
    assert received == [(tmp_path / "r.json").read_bytes()]
    assert made == [str(spills)] * 2  # a spill file per worker, made once and read as made
    # no room for the spill files: the rows still print, and no report is written
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert cli.main([*sweep, "--json", str(fifo)]) == 1
    with open(fifo, "wb"):  # lets the reader finish
        pass
    reader.join(timeout=10)
    assert received[1:] == [b""]
    captured = capsys.readouterr()
    assert captured.out.count("[             agree]") == 8
    assert captured.err == ("fpcoh: cannot write report: "
                            f"[Errno 2] No such file or directory: '{fifo}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "r.json",
                                                          "report.fifo", "tmp"]
    assert list(spills.iterdir()) == []


def test_a_sweep_holds_a_spill_file_per_worker_not_per_chunk(tmp_path, capsys):
    # 24 chunks at 3 workers under a limit of 24 descriptors: one descriptor
    # held per chunk runs out, one per worker does not
    config = {"runs": [{"command": "char nim", "m": [1, 2, 3, 4, 5, 6, 7, 8], "n": [2, 3, 4]}]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    sweep = ["sweep", "--config", str(cfg), "--parallel", "3"]
    assert cli.main([*sweep, "--json", str(tmp_path / "free.json"),
                     "--csv", str(tmp_path / "free.csv")]) == 0
    lines = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_NOFILE,"
             " (24, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
             "from fpcoh import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", probe, *sweep,
                           "--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == lines
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "free.json").read_bytes()
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "free.csv", "free.json", "grid.json", "r.csv", "r.json"]


def test_a_pool_short_of_descriptors_exits_one_at_once(tmp_path):
    # under a limit of 16 descriptors the pool starts some workers and fails
    # on the next; the ones started must not keep the sweep from exiting
    config = {"runs": [{"command": "char nim", "m": [1, 2, 3, 4, 5, 6], "n": [1, 2, 3, 4]}]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_NOFILE,"
             " (16, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
             "from fpcoh import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    child = subprocess.Popen([sys.executable, "-c", probe, "sweep", "--config", str(cfg),
                              "--parallel", "3"], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    try:
        out, err = child.communicate(timeout=30)
    finally:  # the workers of a sweep that hangs hold its pipes open
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    assert (child.returncode, err) == (1, "fpcoh: OSError: [Errno 24] Too many open files\n")
    assert out.startswith("[             error] sweep  ") and out.count("\n") == 1


def _slow_sweep(tmp_path):
    """A `--parallel 2 --json` sweep in a process group of its own, once
    both workers run rows: each row marks its worker's pid, then sleeps."""
    out, marks = tmp_path / "out", tmp_path / "marks"
    out.mkdir()
    marks.mkdir()
    config = {"runs": [{"command": "char nim", "m": [1, 2, 3, 4, 5, 6, 7, 8], "n": [2, 3, 4]}]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import os, sys, time\n"
             "from fpcoh import cli\n"
             "nim = cli._cmd_char_nim\n"
             "def slow(ns):\n"
             "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
             "    time.sleep(0.5)\n"
             "    return nim(ns)\n"
             "cli._cmd_char_nim = slow\n"
             "sys.exit(cli.main(sys.argv[2:]))\n")
    child = subprocess.Popen([sys.executable, "-c", probe, str(marks), "sweep", "--config",
                              str(cfg), "--parallel", "2", "--json", str(out / "r.json")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    deadline = time.monotonic() + 30
    while len(list(marks.iterdir())) < 2 and child.poll() is None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert list(out.iterdir()) == []  # each spill file lost its name when its worker opened it
    return child, out


def _group_gone(pgid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


@pytest.mark.parametrize("how", ["sigint-to-group", "sigterm-to-parent"])
def test_a_stopped_sweep_leaves_no_worker_and_no_spill_file(how, tmp_path):
    # a pool's shutdown waits for every queued chunk, and a parent that
    # SIGTERM kills outright orphans its workers and their spill files
    child, out = _slow_sweep(tmp_path)
    try:
        if how == "sigint-to-group":
            os.killpg(child.pid, signal.SIGINT)
        else:
            os.kill(child.pid, signal.SIGTERM)
        start = time.monotonic()
        child.communicate(timeout=30)
        assert time.monotonic() - start < 1
        assert child.returncode == -signal.SIGINT  # SIGTERM ends a run as ^C does
        assert list(out.iterdir()) == []
        assert _group_gone(child.pid, 2 if how == "sigterm-to-parent" else 0.1)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)


def test_main_restores_sigterm_and_runs_off_the_main_thread(capsys):
    # main makes SIGTERM raise for its run only, and only the main thread may
    # set a handler
    argv, codes = ["char", "nim", "--m", "1", "--n", "2"], []
    before = signal.getsignal(signal.SIGTERM)
    assert cli.main(argv) == 0
    assert signal.getsignal(signal.SIGTERM) is before
    thread = threading.Thread(target=lambda: codes.append(cli.main(argv)))
    thread.start()
    thread.join()
    assert codes == [0]
    assert capsys.readouterr().out.count("[             agree] nim-character") == 2
    assert signal.getsignal(signal.SIGTERM) is before


def test_a_broken_pool_ends_a_worker_that_is_running_a_row(tmp_path):
    # the pool ends its other workers with SIGTERM once one dies; a worker
    # that raised on it, as `cli.main` makes the parent do, would go on to
    # run the chunks still queued
    config = {"runs": [{"command": "char nim", "m": [1, 2, 3, 4], "n": 2}]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import os, sys, time\n"
             "from fpcoh import cli\n"
             "def dying(m, n):\n"
             "    time.sleep(0.5 if m == 1 else 60)  # the other row is running by then\n"
             "    os._exit(3)\n"
             "cli.nim_poly = dying\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    child = subprocess.Popen([sys.executable, "-c", probe, "sweep", "--config", str(cfg),
                              "--parallel", "2"], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src), start_new_session=True)
    try:
        out, err = child.communicate(timeout=20)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    assert (child.returncode, err) == (1, "")
    assert out.count("message: BrokenProcessPool: ") == 4


def test_sigterm_while_a_report_is_written_leaves_the_target_as_it_was(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import os, signal, sys\n"
             "from fpcoh import cli, verdicts\n"
             "render = verdicts._render_document\n"
             "def stopped(document, out, flush):\n"
             "    render(document, out, flush)\n"
             "    flush()\n"
             "    os.kill(os.getpid(), signal.SIGTERM)\n"
             "verdicts._render_document = stopped\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    report = tmp_path / "r.json"
    report.write_text("earlier report\n")
    done = subprocess.run([sys.executable, "-c", probe, "char", "nim", "--m", "3", "--n", "2",
                           "--json", str(report)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert report.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    assert done.returncode == -signal.SIGINT  # SIGTERM ends a run as ^C does
    assert done.stdout.startswith("[             agree] nim-character")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("step", ["make", "read"])
def test_a_spill_file_that_will_not_open_names_the_report(step, workers, tmp_path, capsys,
                                                          monkeypatch, tmp_path_factory):
    cfg = _small_grid(tmp_path)
    sweep = ["sweep", "--config", str(cfg), "--parallel", workers]
    assert cli.main(sweep) == 0
    lines = capsys.readouterr().out
    # the parent makes each spill file, and its writer (a forked worker at
    # --parallel 2) opens it by name; the log counts the failures of both
    log = tmp_path_factory.mktemp("opened") / "opened.log"
    last = f".{int(workers) - 1}.spill"
    os_open, builtin_open = os.open, builtins.open

    def failed(path):  # the last spill file runs out of descriptors
        with builtin_open(log, "a") as fh:
            fh.write(f"{path}\n")
        return OSError(errno.EMFILE, "Too many open files")

    def limited(path, how, *args, **kwargs):
        if str(path).endswith(last) and how == os.O_RDONLY | os.O_CREAT | os.O_EXCL:
            raise failed(path)
        return os_open(path, how, *args, **kwargs)

    def limited_writer(path, mode="r", *args, **kwargs):
        if str(path).endswith(last) and mode == "r+":
            raise failed(path)
        return builtin_open(path, mode, *args, **kwargs)

    if step == "make":
        monkeypatch.setattr(os, "open", limited)
    else:
        monkeypatch.setattr(builtins, "open", limited_writer)
    report = tmp_path / "r.json"
    assert cli.main([*sweep, "--json", str(report), "--csv", str(tmp_path / "r.csv")]) == 1
    captured = capsys.readouterr()
    opened = log.read_text().splitlines() if log.exists() else []
    assert len(opened) == 1
    assert captured.out == lines
    assert captured.err == ("fpcoh: cannot write report: "
                            f"[Errno 24] Too many open files: '{report}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


def test_sweep_rows_build_no_parser(tmp_path, capsys, monkeypatch):
    cli.build_parser()  # the one build of this process
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    config = {"runs": [
        {"command": "complex theorem", "d": [1, 2, 3], "primes": "2"},
        {"command": "char nim", "m": [1, 2], "n": 2},
        {"command": "char schur", "a": 3, "b": 1, "n": 2},
    ]}
    cfg = tmp_path / "rows.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[             agree]") == 6
    assert added == []


def test_a_sweep_worker_takes_an_involution_z_side_once(monkeypatch):
    # two rows at one (w0, d) and two primes in one chunk: 2d Smith calls
    # and two builds over Z in all, not per row
    from fpcoh import complexes

    smith_calls, z_builds = [], []
    smith, build = complexes.smith_invariants, complexes.build_complex
    monkeypatch.setattr(complexes, "smith_invariants",
                        lambda rows: smith_calls.append(1) or smith(rows))
    monkeypatch.setattr(complexes, "build_complex",
                        lambda w, p=None: (p is None and z_builds.append(w)) or build(w, p))
    rows = [["complex", "involution", "--w0=2", "--d=5", f"--primes={p}"] for p in (2, 3)]
    records, failed = fpcoh.sweep._run_chunk(rows, False)
    assert failed is None
    assert [r["status"] for ((r, _),) in records] == [AGREE, AGREE]
    assert len(smith_calls) == 10
    assert z_builds == [(2, 1, 1, 1, 1, 1), (-12, 1, 1, 1, 1, 1)]


def test_a_well_formed_command_builds_no_parser(capsys, monkeypatch):
    cli.build_parser.cache_clear()  # so a parse through argparse would build one
    made, added = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counted_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add)
    assert cli.main(["char", "nim", "--m", "1", "--n", "2"]) == 0
    assert "nim-character" in capsys.readouterr().out
    assert made == [] and added == []
    with pytest.raises(SystemExit) as exc:  # a usage error goes to argparse
        cli.main(["char", "nim", "--m", "1"])
    assert exc.value.code == 1
    assert "the following arguments are required: --n" in capsys.readouterr().err
    assert made and added


_H = ["--weights", "1,1", "--prime", "2"]
# (argv, whether it is read from `_LEAVES` without argparse)
_PARSER_CASES = [
    (["complx", "homology", *_H], False),  # a bad group
    (["complex", "homolgy", *_H], False),  # a bad action
    (["complex", "homology", "--weights", "1,1"], False),  # a missing flag
    (["complex", "homology", "--weights", "1,1", "--prime", "two"], False),  # a bad int
    (["complex", "homology", *_H, "extra"], False),  # an unknown trailing word
    (["incidence", "chars", "--n", "3", "--d", "2", "--e", "1", "--prime", "2",
      "--compare", "bogus"], False),
    (["--js", "r.json", "complex", "homology", *_H], False),
    (["--json=r.json", "complex", "homology", *_H], True),
    (["--csv", "complex", "homology", *_H], False),  # --csv takes the group word
    (["--json", "-x", "complex", "homology", *_H], False),
    (["--json", "r.json", "--csv", "r.csv", "complex", "homology", *_H], True),
    (["complex", "homology", *_H, "--json", "r.json"], True),
    ([], False),
    (["complex"], False),
    (["complex homology", *_H], False),
    (["sweep", "--config", "c.json"], False),
    (["-h"], False),
    (["complex", "-h"], False),
    (["complex", "homology", "-h"], False),
    (["det", "filtration", "--help"], False),
    (["complex", "homology", *_H, "--prime", "3"], True),  # the last value wins
    (["complex", "homology", "--weights=-9,1,1", "--prime", "2"], True),
    (["complex", "homology", "--weights", "-9,1,1", "--prime", "2"], False),
    (["complex", "homology", "--wei", "1,1", "--prime", "2"], False),  # an abbreviation
    (["complex", "homology", *_H, "--"], False),
    (["--json=--", "complex", "homology", *_H], False),  # argparse drops the "--"
    (["--json", "r.json", "--json", "s.json", "complex", "homology", *_H, "--json=t.json"],
     True),
    (["incidence", "chars", "--n", "3", "--d", "2", "--e", "1", "--prime", "2",
      "--no-symmetry=1"], False),  # a switch given a value
    (["det", "filtration", "--n", "3", "--a", "2", "--b", "1", "--i", "1", "--prime", "2",
      "--classical", "--classical"], True),
]


def _parse_with(parser, argv, capsys):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    try:
        ns, code = parser.parse_args(argv), None
    except SystemExit as exc:
        ns, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, ns


def _benchmark_argvs(monkeypatch) -> list[list[str]]:
    """Every job and sweep row of the benchmark, and every job behind a
    leading `--json r.json`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    singles, rows = workloads.every_job_and_row()
    return ([list(argv) for argv in singles] + [workloads.row_argv(row) for row in rows]
            + [["--json", "r.json", *argv] for argv in singles])


def test_a_table_read_parses_as_the_whole_tree(monkeypatch, capsys):
    cases = [(argv, True) for argv in _benchmark_argvs(monkeypatch)]
    for argv, fast in cases + _PARSER_CASES:
        ns = cli._namespace(argv)
        assert (ns is not None) == fast, argv
        full = _parse_with(cli.build_parser(), argv, capsys)
        if fast:
            assert full == (None, "", "", ns), argv


def test_a_table_read_agrees_with_argparse_on_drawn_argvs(capsys):
    """Drawn near-valid argvs: a table read is either declined or exactly
    what the whole tree parses, with argparse printing nothing."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    junk = st.sampled_from(["", "0", "-1", "-9,1,1", "1,,2", "two", " 3", "2=3", "r.json",
                            "bogus", "--", "-h", "-x", *cli._COMPARE_SUBJECTS])
    names = sorted({f for _, flags in cli._LEAVES.values() for f in flags} | {"json", "csv"})
    # an exact flag name, an abbreviation of one, or a name no parser knows
    names = st.sampled_from(names).flatmap(lambda f: st.sampled_from([f, f, f[:-1], f + "x"]))
    stray = st.one_of(junk, st.sampled_from(["-h", "--help", "--", "sweep", "complex"]),
                      st.builds("--{}".format, names),
                      st.builds("--{}={}".format, names, junk))
    report = st.sampled_from([["--json", "r.json"], ["--csv", "r.csv"], ["--json=r.json"],
                              ["--csv=r.csv"], ["--json", "-x"], ["--js", "r.json"], ["--csv"]])
    # draws lean to the ends of a range, so a branch is taken at a middle value
    rarely, sometimes = (st.integers(0, n).map(lambda k: k == 2) for n in (19, 3))
    read = []

    def good(settings):
        if "choices" in settings:
            return st.sampled_from(settings["choices"])
        if settings["type"] is cli._int_list:
            return st.lists(st.integers(-3, 5), min_size=1, max_size=4).map(
                lambda xs: ",".join(map(str, xs)))
        return st.integers(-2, 9).map(str)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(sorted(cli._LEAVES)))
        argv = [t for pair in data.draw(st.lists(report, max_size=2)) for t in pair]
        argv += command.split()
        for flag, kind in cli._LEAVES[command][1].items():
            settings = cli._settings(kind)
            if data.draw(rarely):  # a flag left out
                continue
            if settings.get("action") == "store_true":
                argv.append(f"--{flag}=1" if data.draw(sometimes) else f"--{flag}")
                continue
            for _ in range(1 + data.draw(sometimes)):  # given twice, the last value wins
                value = data.draw(junk if data.draw(rarely) else good(settings))
                argv += data.draw(st.sampled_from([[f"--{flag}={value}"], [f"--{flag}", value]]))
        for token in data.draw(st.lists(stray, max_size=2)) * data.draw(sometimes):
            argv.insert(data.draw(st.integers(0, len(argv))), token)
        ns = cli._namespace(argv)
        if ns is not None:
            read.append(argv)
            assert cli.build_parser().parse_args(argv) == ns, argv
            assert capsys.readouterr() == ("", ""), argv

    check()
    assert len(read) >= 120  # the draws do reach well-formed argvs


def test_every_benchmark_command_line_is_a_table_read(monkeypatch):
    for argv in _benchmark_argvs(monkeypatch):
        assert cli._namespace(argv) is not None, argv


def _patched_nim(ns):
    params = {"m": ns.m, "n": ns.n}
    return params, [verdict("patched-nim", params, AGREE, {})]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_handler_rebound_after_the_parser_is_built_runs(workers, tmp_path, capsys,
                                                        monkeypatch):
    cli.build_parser()
    monkeypatch.setattr(cli, "_cmd_char_nim", _patched_nim)
    assert cli.main(["char", "nim", "--m", "1", "--n", "2"]) == 0
    assert "patched-nim" in capsys.readouterr().out
    config = {"runs": [{"command": "char nim", "m": [1, 2], "n": 2}]}
    cfg = tmp_path / "rebound.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "rebound-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", workers,
                     "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    verdicts = json.loads(out_path.read_text())["verdicts"]
    assert [v["subject"] for v in verdicts] == ["patched-nim"] * 2


@pytest.mark.parametrize("argv", [
    ["--parallel", "4", "incidence", "chars", "--n", "3", "--d", "2", "--e", "1",
     "--prime", "2"],
    ["complex", "homology", "--weights", "1,1", "--prime", "2", "--parallel", "0"],
    ["char", "nim", "--m", "1", "--n", "2", "--parallel", "2"],
])
def test_parallel_outside_sweep_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: fpcoh" in captured.err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sweep_parallel_below_one_is_a_usage_error(count, tmp_path, capsys):
    cfg = _write_sweep_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(cfg), "--parallel", count])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --parallel: expected an integer >= 1, got '{count}'" in captured.err


def test_empty_sweep_is_a_parameter_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="no rows"):
        cli.expand_config({"runs": []})
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"runs": []}))
    out_path = tmp_path / "empty-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "parameter error: sweep config expands to no rows" in captured.err
    assert not out_path.exists()


def test_missing_sweep_config_is_a_parameter_error(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["sweep", "--config", str(tmp_path / "missing.json"),
                     "--parallel", "1", "--json", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "parameter error: cannot read sweep config" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", [
    ["complex", "homology", "--weights", "1,1", "--prime", "0"],
    ["complex", "theorem", "--d", "2", "--primes", "0"],
    ["stable", "hook", "--w0", "1", "--d", "2", "--prime", "0"],
    # d + e = -1: the scan meets no block, so no matrix would check the prime
    ["incidence", "chars", "--n", "3", "--d", "0", "--e", "-1", "--prime", "4"],
    ["incidence", "chars", "--n", "3", "--d", "0", "--e", "-1", "--prime", "1"],
    # checked before the shift q, a power of p, is sought
    ["complex", "involution", "--w0", "1", "--d", "2", "--primes", "1"],
])
def test_prime_zero_is_a_parameter_error(command, capsys):
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert f"parameter error: modulus {command[-1]} is not prime" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["det", "lead-terms", "--n", "0", "--a", "3", "--b", "1", "--prime", "2"],
    ["det", "filtration", "--n", "0", "--a", "3", "--b", "1", "--i", "0", "--prime", "2"],
])
def test_zero_variables_is_a_parameter_error(command, capsys, tmp_path):
    report = tmp_path / "report.json"
    code = cli.main([*command, "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error: need at least one variable" in captured.err
    assert captured.out == ""
    assert not report.exists()
    one_variable = [*command[:3], "1", *command[4:]]
    assert cli.main(one_variable) == 0


@pytest.mark.parametrize("a, b", [(1, 3), (2, -1)])
@pytest.mark.parametrize("extra", [[], ["--q", "2"]])
def test_schur_shape_needs_a_at_least_b(extra, a, b, capsys):
    code = cli.main(["char", "schur", "--a", str(a), "--b", str(b), "--n", "3", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, message", [
    (["--q", "0", "--n", "3"], "q must be positive"),
    (["--q", "0", "--n", "0"], "q must be positive"),
    (["--n", "0"], "need at least one variable"),
    (["--q", "2", "--n", "0"], "need at least one variable"),
])
def test_schur_bad_q_or_n_is_a_parameter_error(extra, message, capsys, tmp_path):
    report = tmp_path / "report.json"
    code = cli.main(["char", "schur", "--a", "2", "--b", "1", *extra, "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"fpcoh: parameter error: {message}\n"
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("command, message", [
    (["stable", "periodicity", "--w0", "1", "--d", "-1", "--prime", "2", "--r", "1"],
     "need w0 >= 1 and d >= 0"),
    (["stable", "periodicity", "--w0", "0", "--d", "2", "--prime", "2", "--r", "2"],
     "need w0 >= 1 and d >= 0"),
    (["stable", "periodicity", "--w0", "-3", "--d", "2", "--prime", "2", "--r", "2"],
     "need w0 >= 1 and d >= 0"),
    (["complex", "involution", "--w0", "1", "--d", "0", "--primes", "2"], "d = 0"),
    (["complex", "involution", "--w0", "1", "--d", "-1", "--primes", "2"], "d = -1"),
    (["complex", "theorem", "--d", "-1", "--primes", "2"], "need d >= 0, got d = -1"),
    (["complex", "involution", "--w0", "-100", "--d", "3", "--primes", "2"],
     "need w0 >= 0, got w0 = -100"),
], ids=["periodicity-d--1", "periodicity-w0-0", "periodicity-w0--3", "involution-d-0",
        "involution-d--1", "theorem-d--1", "involution-w0--100"])
def test_vacuous_hook_is_a_parameter_error(command, message, capsys, tmp_path):
    report = tmp_path / "report.json"
    code = cli.main([*command, "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error" in captured.err and message in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("command", [
    ["complex", "theorem", "--d", "3", "--primes", ","],
    ["complex", "involution", "--w0", "1", "--d", "3", "--primes", ","],
])
def test_empty_prime_list_exits_one(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 1
    assert "expected comma-separated integers" in capsys.readouterr().err


def test_exit_code_rules():
    mk = lambda status, payload=None: verdict("s", {}, status, payload or {})
    assert exit_code([]) == 0
    assert exit_code([mk(AGREE)]) == 0
    assert exit_code([mk(OUTSIDE)]) == 0
    assert exit_code([mk(OUTSIDE, {"comparison_agrees": True})]) == 0
    assert exit_code([mk(OUTSIDE, {"comparison_agrees": False})]) == 2
    assert exit_code([mk(ERROR)]) == 1
    assert exit_code([mk(ERROR), mk(DISAGREE)]) == 2
    assert exit_code([mk(AGREE), mk(ERROR)]) == 1


def test_verdict_validation_and_serialization():
    with pytest.raises(ValueError):
        verdict("s", {}, "maybe", {})
    payload = {"table": [{"degree": 1, "dimension": 3}]}
    d = verdict("s", {"p": 2}, AGREE, payload)
    assert d == {"subject": "s", "parameters": {"p": 2}, "status": AGREE,
                 "payload": {"table": [{"degree": 1, "dimension": 3}]}}
    assert d["payload"] is payload  # passed through, not copied


def test_render_json_stable():
    doc = report_document("char nim", {"m": 1, "n": 2},
                          [verdict("nim-character", {"m": 1}, AGREE, {})])
    text = render_json(doc)
    assert text.endswith("\n")
    assert text == render_json(json.loads(text))  # round trip is stable


def _oracle(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def test_render_json_matches_json_dumps_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=2**64), st.integers(max_value=-2**64),
        st.text(), st.text(alphabet=st.characters(max_codepoint=0x9f)),
        st.text(alphabet="é€😀\x00\x1f\x7f\\\"\n\t\u2028"),
    )
    documents = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(st.integers(), max_size=5),
            st.dictionaries(st.text(max_size=4), inner, max_size=5),
        ),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(documents)
    def check(document):
        assert render_json(document) == _oracle(document)

    check()


def test_render_json_matches_json_dumps_on_reports(tmp_path, capsys):
    out_path = tmp_path / "classical.json"
    assert cli.main(["det", "filtration", "--n", "6", "--a", "5", "--b", "4",
                     "--i", "2", "--prime", "2", "--classical", "--compare",
                     "--json", str(out_path)]) == 0
    text = out_path.read_text()
    assert len(text) > 1_000_000
    assert text == _oracle(json.loads(text))
    cfg, _ = _mixed_grid(tmp_path)
    out_path = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--config", str(cfg), "--parallel", "2",
                     "--json", str(out_path)]) == 2
    capsys.readouterr()
    text = out_path.read_text()
    assert text == _oracle(json.loads(text))


@pytest.mark.parametrize("document", [
    {"x": 1.5}, {"x": [1, 2.0]}, {"x": (1, 2)}, {1: "x"}, {"x": {(1, 2): 3}},
    {"x": object()},
])
def test_render_json_refuses_what_jsonable_never_produces(document):
    with pytest.raises(TypeError):
        render_json(document)


# One argv per leaf command, with the options that change a payload's shape.
_EVERY_LEAF = [
    ["complex", "homology", "--weights", "2,1,1", "--prime", "3"],
    ["complex", "theorem", "--d", "3", "--primes", "2,3"],
    ["complex", "involution", "--w0", "1", "--d", "2", "--primes", "2,3"],
    ["complex", "ses-check", "--weights", "2,1,1,1", "--split", "1", "--prime", "3"],
    ["stable", "hook", "--w0", "1", "--d", "3", "--prime", "3"],
    ["stable", "periodicity", "--w0", "2", "--d", "3", "--prime", "2", "--r", "2"],
    ["incidence", "chars", "--n", "3", "--d", "2", "--e", "1", "--prime", "2",
     "--compare", "h1-theorem"],
    ["incidence", "chars", "--n", "3", "--d", "2", "--e", "1", "--prime", "2",
     "--no-symmetry"],
    ["det", "filtration", "--n", "3", "--a", "2", "--b", "1", "--i", "1", "--prime", "2",
     "--compare"],
    ["det", "filtration", "--n", "3", "--a", "1", "--b", "1", "--i", "0", "--prime", "2",
     "--classical", "--compare"],
    ["det", "lead-terms", "--n", "3", "--a", "3", "--b", "1", "--prime", "2"],
    ["char", "nim", "--m", "2", "--n", "3"],
    ["char", "schur", "--a", "4", "--b", "2", "--n", "3", "--q", "3"],
]


def _checked_documents(monkeypatch) -> list:
    """Route the report writer's render through a check that the document is
    JSON-ready and renders as json.dumps does; returns the documents it saw."""
    seen = []
    render = fpcoh.verdicts._render_document

    def checked(document, out, flush):
        whole = {**document, "verdicts": [  # a spilled verdict as its text holds it
            json.loads(b"".join(v.blocks())) if type(v) is Spilled else v
            for v in document["verdicts"]]}
        assert_json_ready(whole)
        render(document, out, None)  # the writer writes out after this returns
        text = "".join(out)
        assert text == _oracle(whole)
        seen.append(document)

    monkeypatch.setattr(fpcoh.verdicts, "_render_document", checked)
    return seen


def _collected_csv(records) -> bytes:
    """The CSV of every row collected first, its columns read off the rows:
    the oracle for the streamed `write_csv`."""
    rows = [row for v in records for row in dimension_rows(v)]
    lead, tail = ["subject", "status"], ["series", "degree", "multidegree", "dimension"]
    params = sorted({k for row in rows for k in row} - set(lead) - set(tail))
    columns = lead + params + [c for c in tail if any(c in row for row in rows)]
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode()


def test_streamed_csv_matches_collected_rows(tmp_path, capsys):
    cfg, _ = _mixed_grid(tmp_path)
    for k, argv in enumerate(_EVERY_LEAF + [["sweep", "--config", str(cfg),
                                             "--parallel", "1"]]):
        json_path, csv_path = tmp_path / f"{k}.json", tmp_path / f"{k}.csv"
        cli.main([*argv, "--json", str(json_path), "--csv", str(csv_path)])
        records = json.loads(json_path.read_text())["verdicts"]
        assert csv_path.read_bytes() == _collected_csv(records), argv
    capsys.readouterr()
    # a parameter named like a table column, and a verdict without a table
    records = [verdict("s", {"degree": 3, "w": [1, 2]}, AGREE,
                       {"dimension_table": [{"multidegree": [1, 0], "dimension": 2}]}),
               verdict("t", {"z": 1}, AGREE, {})]
    csv_path = tmp_path / "named.csv"
    write_csv(str(csv_path), records)
    assert csv_path.read_bytes() == _collected_csv(records)


@pytest.mark.parametrize("argv", _EVERY_LEAF, ids=lambda argv: "-".join(
    argv[:2] + [a[2:] for a in argv if a in ("--no-symmetry", "--classical", "--compare")]))
def test_every_leaf_builds_a_json_ready_document(argv, tmp_path, capsys, monkeypatch):
    seen = _checked_documents(monkeypatch)
    assert cli.main([*argv, "--json", str(tmp_path / "report.json")]) in (0, 2)
    capsys.readouterr()
    assert len(seen) == 1 and seen[0]["verdicts"]


def test_sweep_and_disagreement_documents_are_json_ready(tmp_path, capsys, monkeypatch):
    seen = _checked_documents(monkeypatch)
    swept = []  # a sweep renders each verdict on its own, at the list's depth
    write_value = fpcoh.sweep.write_value

    def checked(value, indent, fh):
        assert_json_ready(value)
        text = io.StringIO()
        write_value(value, indent, text)
        assert text.getvalue() == _oracle(value)[:-1].replace("\n", indent)
        if indent == fpcoh.sweep._ITEM:
            swept.append(value)
        return write_value(value, indent, fh)

    monkeypatch.setattr(fpcoh.sweep, "write_value", checked)
    config = {"runs": [
        {"command": "char nim", "m": 1},  # no --n: a usage-error row
        {"command": "incidence chars", "n": 3, "d": 2, "e": -5, "prime": 2},
        {"command": "char schur", "a": [2, 3], "b": 1, "n": 2},
    ]}
    cfg = tmp_path / "rows.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(tmp_path / "sweep.json")]) == 1
    statuses = [v["status"] for v in swept]
    assert statuses == [ERROR, ERROR, AGREE, AGREE]
    (document,) = seen  # the sweep's one document holds its small records
    assert all(type(v) is Spilled and set(v["payload"]) <= set(fpcoh.sweep._PRINTED)
               for v in document["verdicts"])
    seen.clear()

    exact = cli.h1_window_char
    monkeypatch.setattr(cli, "h1_window_char",
                        lambda *args: exact(*args) + LaurentPolynomial(3, {(1, 0, 0): 1}))
    assert cli.main(["incidence", "chars", "--n", "3", "--d", "2", "--e", "1",
                     "--prime", "2", "--compare", "h1-theorem",
                     "--json", str(tmp_path / "disagree.json")]) == 2
    capsys.readouterr()
    (verdict,) = seen[0]["verdicts"]
    assert verdict["status"] == DISAGREE
    assert verdict["payload"]["witness"]["exponents"] == [1, 0, 0]


def _shortest_terms(nvars: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree at most 2, shortest printed first: the
    constant, then t1 ... t9, then t10 ..., then squares and products."""
    unit = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    vectors = {tuple(map(sum, zip(a, b))) for a in unit for b in unit} | set(unit)
    vectors.add((0,) * nvars)
    return sorted(vectors, key=lambda e: (len(str(LaurentPolynomial(nvars, {e: 1}))), e))


def test_char_summary_decides_by_term_count_as_str_length_did(monkeypatch):
    rng = random.Random(13)
    pool = _shortest_terms(24)
    cases = []
    for count in list(range(1, 41)) + [24, 24, 25, 25]:
        for coeffs in ((1,), (1, -1), (1, -1, 2)):
            terms = {e: rng.choice(coeffs) for e in pool[:count]}
            cases.append((LaurentPolynomial(24, terms), count))
    expected = [str_length_summary(f) for f, _ in cases]
    # at most 22 of these terms fit in 120 characters: 1 + t1 + ... + t21
    fits = {count for (_, count), text in zip(cases, expected) if not text.startswith("<")}
    assert max(fits) == 22
    for (f, count), text in zip(cases, expected):
        if count < 25:
            assert cli._char_summary(f, count) == text
    with monkeypatch.context() as m:
        m.setattr(LaurentPolynomial, "__str__", lambda self: pytest.fail("formatted"))
        for (f, count), text in zip(cases, expected):
            if count >= 25:
                assert cli._char_summary(f, count) == text


def test_huge_prime_is_refused_without_trial_division(capsys, monkeypatch):
    prime = linalg.is_prime

    def bounded(p):
        assert p < 2**31, "trial division of a huge modulus"
        return prime(p)

    monkeypatch.setattr(linalg, "is_prime", bounded)
    linalg.check_modulus.cache_clear()
    try:
        code = cli.main(["complex", "homology", "--weights", "1,1",
                         "--prime", str(2**61 - 1)])
    finally:
        linalg.check_modulus.cache_clear()
    captured = capsys.readouterr()
    assert code == 1
    assert "modulus must be below 2**31" in captured.err
    assert captured.out == ""


def test_human_lines_witness_note():
    v = verdict("s", {"d": 2}, DISAGREE, {"witness": {"degree": 1}})
    (line,) = human_lines([v])
    assert "witness" in line
    assert '"degree": 1' in line


def test_human_lines_error_message(tmp_path, capsys):
    v = verdict("s", {"d": 2}, ERROR, {"message": "modulus 0 is not prime"})
    (line,) = human_lines([v])
    assert line.endswith("  message: modulus 0 is not prime")
    config = {"runs": [{"command": "complex homology", "weights": "1,1", "prime": 0}]}
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(config))
    out_path = tmp_path / "zero-report.json"
    code = cli.main(["sweep", "--config", str(cfg), "--parallel", "1",
                     "--json", str(out_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines() == [
        "[             error] sweep-row  argv=complex,homology,--weights=1,1,--prime=0"
        "  message: modulus 0 is not prime"
    ]
    (record,) = json.loads(out_path.read_text())["verdicts"]
    assert record["payload"] == {"message": "modulus 0 is not prime"}


def _readme_blocks():
    """The fenced blocks of README.md as (info string, lines) pairs."""
    blocks, current = [], None
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            if current is None:
                current = (line[3:].strip(), [])
            else:
                blocks.append(current)
                current = None
        elif current is not None:
            current[1].append(line)
    return blocks


def test_readme_commands_exit_as_documented(tmp_path, capsys, monkeypatch):
    blocks = _readme_blocks()
    lines = [line for _, block in blocks for line in block]
    commands = [line.split()[1:] for line in lines if line.startswith("fpcoh ")]
    (control,) = [line.split(";")[0].split()[2:] for line in lines
                  if line.startswith("$ fpcoh ")]
    (grid,) = ["\n".join(block) for info, block in blocks if info == "json"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(grid)
    assert len(commands) == 14 and commands[-1][0] == "sweep"
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert cli.main(control) == 2
    capsys.readouterr()
    verdicts = json.loads((tmp_path / "report.json").read_text())["verdicts"]
    assert len(verdicts) == 3 * 2 + 2  # theorem rows check two primes each
