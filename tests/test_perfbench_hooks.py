"""The benchmark's tracer (perfbench/tracer.py) wraps fpcoh entry points by
name; installing it here fails as soon as one of them is renamed or deleted,
instead of failing only in a traced benchmark run."""

from pathlib import Path

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
