"""End-to-end CLI behaviour: exit codes, report documents, sweeps."""

import json
import os
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


@pytest.mark.parametrize("command", [
    ["complex", "homology", "--weights", "1,1", "--prime", "0"],
    ["complex", "theorem", "--d", "2", "--primes", "0"],
    ["stable", "hook", "--w0", "1", "--d", "2", "--prime", "0"],
])
def test_prime_zero_is_a_parameter_error(command, capsys):
    code = cli.main(command)
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error: modulus 0 is not prime" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--q", "2"]])
def test_schur_shape_needs_a_at_least_b(extra, capsys):
    code = cli.main(["char", "schur", "--a", "1", "--b", "3", "--n", "3", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "parameter error" in captured.err
    assert captured.out == ""


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
