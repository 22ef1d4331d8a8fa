"""End-to-end CLI behaviour: exit codes, report documents, sweeps."""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from fpcoh import cli
from fpcoh.verdicts import (
    AGREE,
    DISAGREE,
    ERROR,
    OUTSIDE,
    Verdict,
    _jsonable,
    exit_code,
    human_lines,
    render_json,
    report_document,
)


def test_homology_run(capsys):
    code = cli.main(["complex", "homology", "--weights", "1,1,1,1", "--prime", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[             agree] homology" in out
    assert "1 + t + t^2 + t^3" in out


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

    monkeypatch.setattr(complexes, "smith_invariants", lambda m: (m.entry(0, 0),))
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
        return complexes.PoincarePolynomial(tuple(c + 10 for c in h.coefficients))

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
        return complexes.PoincarePolynomial(tuple(c + 1 for c in h.coefficients))

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
    from fpcoh.combinatorics import TwoRowTableau

    exact = determinantal.enumerate_pssyt
    monkeypatch.setattr(determinantal, "enumerate_pssyt",
                        lambda *args: exact(*args) + [TwoRowTableau((1, 1), (1,))])
    code, verdict = _single_verdict(
        ["det", "lead-terms", "--n", "3", "--a", "2", "--b", "1", "--prime", prime],
        tmp_path, capsys)
    assert code == 2
    assert verdict["status"] == status
    assert verdict["payload"]["missing"] == [[[2, 0, 0], [1, 0, 0]]]
    payload = verdict["payload"]
    assert {k: payload[k] for k in ("witness", "comparison_agrees") if k in payload} == extra


def run_module(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "fpcoh", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)


def test_python_dash_m_fpcoh_help_exits_zero():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fpcoh")


def test_python_dash_m_fpcoh_usage_error_exits_one():
    done = run_module("det", "filtration", "--n", "3")
    assert done.returncode == 1
    assert "error: the following arguments are required" in done.stderr


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["complex", "homology", "--weights", "1,1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["complex", "homology", "--weights", "1,x", "--prime", "2"])
    assert exc.value.code == 1


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


def test_oversized_complex_exits_one_at_once(tmp_path, capsys):
    path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["complex", "theorem", "--d", "40", "--primes", "2", "--json", str(path)])
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert code == 1
    assert "parameter error" in err and "over the budget" in err
    assert out == "" and not path.exists()


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
    documents, codes = [], []
    for workers in ("1", "2", "3"):
        out_path = tmp_path / f"mixed-{workers}.json"
        codes.append(cli.main(["sweep", "--config", str(cfg), "--parallel", workers,
                               "--json", str(out_path)]))
        documents.append(out_path.read_bytes())
    capsys.readouterr()
    assert codes == [2, 2, 2]
    assert documents[0] == documents[1] == documents[2]
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


def _patched_nim(ns):
    params = {"m": ns.m, "n": ns.n}
    return params, [Verdict("patched-nim", params, AGREE)]


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


@pytest.mark.parametrize("command", [
    ["complex", "homology", "--weights", "1,1", "--prime", "0"],
    ["complex", "theorem", "--d", "2", "--primes", "0"],
    ["stable", "hook", "--w0", "1", "--d", "2", "--prime", "0"],
    # d + e = -1: the scan meets no block, so no matrix would check the prime
    ["incidence", "chars", "--n", "3", "--d", "0", "--e", "-1", "--prime", "4"],
    ["incidence", "chars", "--n", "3", "--d", "0", "--e", "-1", "--prime", "1"],
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


@pytest.mark.parametrize("command, message", [
    (["stable", "periodicity", "--w0", "1", "--d", "-1", "--prime", "2", "--r", "1"],
     "need w0 >= 1 and d >= 0"),
    (["stable", "periodicity", "--w0", "0", "--d", "2", "--prime", "2", "--r", "2"],
     "need w0 >= 1 and d >= 0"),
    (["stable", "periodicity", "--w0", "-3", "--d", "2", "--prime", "2", "--r", "2"],
     "need w0 >= 1 and d >= 0"),
    (["complex", "involution", "--w0", "1", "--d", "0", "--primes", "2"], "d = 0"),
    (["complex", "involution", "--w0", "1", "--d", "-1", "--primes", "2"], "d = -1"),
], ids=["periodicity-d--1", "periodicity-w0-0", "periodicity-w0--3", "involution-d-0",
        "involution-d--1"])
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
    mk = lambda status, payload=None: Verdict("s", {}, status, payload or {})
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
        Verdict("s", {}, "maybe")
    v = Verdict("s", {"p": 2}, AGREE, {"table": {(1, 2): 3}}, seconds=1.5)
    d = v.to_json_dict()
    assert d["payload"] == {"table": {"1,2": 3}}
    assert "seconds" not in d
    with pytest.raises(TypeError):
        _jsonable(1.5)
    with pytest.raises(TypeError):
        _jsonable({"x": object()})
    assert _jsonable({"k": (True, None, 3)}) == {"k": [True, None, 3]}


def test_render_json_stable():
    doc = report_document("char nim", {"m": 1, "n": 2},
                          [Verdict("nim-character", {"m": 1}, AGREE)])
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


def test_human_lines_witness_note():
    v = Verdict("s", {"d": 2}, DISAGREE, {"witness": {"degree": 1}})
    (line,) = human_lines([v])
    assert "witness" in line
    assert '"degree": 1' in line


def test_human_lines_error_message(tmp_path, capsys):
    v = Verdict("s", {"d": 2}, ERROR, {"message": "modulus 0 is not prime"})
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
    (verdict,) = json.loads(out_path.read_text())["verdicts"]
    assert verdict["payload"] == {"message": "modulus 0 is not prime"}
