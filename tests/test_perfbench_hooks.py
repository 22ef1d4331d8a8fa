"""The benchmark's tracer (perfbench/tracer.py) wraps fpcoh entry points by
name; installing it here fails as soon as one of them is renamed or deleted,
instead of failing only in a traced benchmark run."""

from pathlib import Path

import pytest

from fpcoh import characters, cli, determinantal, incidence, linalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    def entry_points():
        return (cli.main, cli._cmd_sweep, linalg.matmul_mod, linalg.rref_with_order,
                linalg.PrimeFieldMatrix.__dict__["rank"],
                characters.LaurentPolynomial.__dict__["frobenius"],
                characters.LaurentPolynomial.__dict__["__radd__"],
                incidence.block_basis, determinantal.leading_monomials)

    before = entry_points()
    t = tracer.Tracer()
    try:
        t.install()
        during = entry_points()
    finally:
        t.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, entry_points()))


def test_tracer_keeps_the_lead_term_slice(monkeypatch, capsys):
    # the slice hook reads the slice's blocks, their echelon matrices and its
    # dimension; a change to any of them shows here, not only in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    n, a, b, p = 3, 3, 1, 2
    t = tracer.Tracer()
    try:
        t.install()
        code = cli.main(["det", "lead-terms", "--n", str(n), "--a", str(a),
                         "--b", str(b), "--prime", str(p)])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.layer_metrics()
    slc = determinantal.ideal_power_slice(n, a, b, b, True, p)
    dimension = len(determinantal.leading_monomials(slc))  # one per echelon row
    assert metrics["determinantal.gen_rows"] == dimension > 0
    assert metrics["determinantal.slice_dim"] == dimension
    assert metrics["determinantal.slices"] == 1


def test_tracer_counts_one_homology_build(monkeypatch, capsys):
    # the build hook reads the returned complex's d; the homology hook wraps
    # homology_dims where cli imported it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        code = cli.main(["complex", "homology", "--weights", "1,1,1,1", "--prime", "2"])
    finally:
        t.uninstall()
    assert "1 + t + t^2 + t^3" in capsys.readouterr().out
    assert code == 0
    metrics = t.layer_metrics()
    assert metrics["complexes.build_calls"] == 1
    assert metrics["complexes.cells"] == 2**3
    assert metrics["complexes.homology_s"] > 0


def test_tracer_counts_the_involution_smith_calls(monkeypatch, capsys):
    # the Smith hook wraps smith_invariants where complexes imported it: one
    # call per differential of the direct and the negated complex over Z,
    # whose F_p ranks are read off them; only the shifted one is built over Z/p
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        code = cli.main(["complex", "involution", "--w0", "2", "--d", "3", "--primes", "3"])
    finally:
        t.uninstall()
    assert "agree" in capsys.readouterr().out
    assert code == 0
    metrics = t.layer_metrics()
    assert metrics["linalg.smith_calls"] == 6
    assert metrics["complexes.build_calls"] == 3


def test_an_involution_over_several_primes_takes_the_z_side_once(monkeypatch, capsys):
    # the Smith invariants over Z do not depend on p: 2 * d calls and two Z
    # builds for the whole command, and one F_p build, the shifted, per prime
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        code = cli.main(["complex", "involution", "--w0", "2", "--d", "9", "--primes", "2,3,5"])
    finally:
        t.uninstall()
    assert capsys.readouterr().out.count("agree") == 3
    assert code == 0
    metrics = t.layer_metrics()
    assert metrics["linalg.smith_calls"] == 18
    assert metrics["complexes.build_calls"] == 3 + 2


@pytest.mark.parametrize("flags, blocks, bases", [([], 3, 6), (["--no-symmetry"], 10, 20)])
def test_tracer_counts_the_incidence_blocks(flags, blocks, bases, monkeypatch, capsys):
    # the omega and basis hooks wrap omega_block and block_basis where
    # h_characters calls them: one omega block per scanned multidegree (one
    # per S_n orbit by default), and two bases per block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        code = cli.main(["incidence", "chars", "--n", "3", "--d", "2", "--e", "1",
                         "--prime", "2", *flags])
    finally:
        t.uninstall()
    assert "h0 = t1*t2*t3; h1 = t1*t2*t3" in capsys.readouterr().out
    assert code == 0
    metrics = t.layer_metrics()
    assert metrics["incidence.blocks"] == blocks
    assert metrics["incidence.basis_builds"] == bases
    assert metrics["incidence.chars_s"] > 0
