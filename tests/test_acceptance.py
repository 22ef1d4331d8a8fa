"""Acceptance gate: thirteen numbered criteria, each printing one PASS/FAIL
line (run with -s to see them on success).  Every assertion is exact integer
arithmetic; the numbered runtime budgets are asserted where stated."""

import functools
import json
import os
import random
import tempfile
import time

import numpy as np

from fpcoh import cli
from fpcoh.characters import h, nim_poly, schur2, schur2_trunc
from fpcoh.combinatorics import TwoRowTableau, enumerate_pssyt, enumerate_ssyt
from fpcoh.complexes import (
    build_complex,
    check_involution,
    homology_dims,
    poincare_formula_all_ones,
    stable_hook_cohomology,
)
from fpcoh.determinantal import (
    check_lead_terms,
    ideal_power_slice,
    leading_monomials,
    tableau_monomial,
)
from fpcoh.incidence import (
    block_basis,
    h1_char2_char,
    h1_window_char,
    h_characters,
    omega_block,
)
from fpcoh.linalg import PrimeFieldMatrix, matmul_mod
from fpcoh.verdicts import AGREE
from helpers import (
    dense_rank,
    filtration_character,
    kernel_basis,
    omega_matrix,
    omega_rank,
    tableau_sum,
)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")

        return run

    return wrap


def _budget(seconds, started, what):
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"{what} took {elapsed:.1f}s, budget {seconds}s"


@criterion(1, "unit-weight complex emits the three fixed matrices")
def test_criterion_01():
    t0 = time.monotonic()
    cx = build_complex((1, 1, 1, 1))
    assert cx.differential(1).row_lists() == [[2, -2, 2]]
    assert cx.differential(2).row_lists() == [[3, -2, 0], [3, 0, -3], [0, 2, -3]]
    assert cx.differential(3).row_lists() == [[4], [6], [4]]
    _budget(1, t0, "matrix construction")


@criterion(2, "unit-weight homology at p = 2, 3, 5, 7, 11")
def test_criterion_02():
    t0 = time.monotonic()
    expected = {
        2: (1, 1, 1, 1),
        3: (0, 1, 1, 0),
        5: (0, 0, 0, 0),
        7: (0, 0, 0, 0),
        11: (0, 0, 0, 0),
    }
    for p, coeffs in expected.items():
        hom = homology_dims(build_complex((1, 1, 1, 1), p))
        assert tuple(hom.coefficient(i) for i in range(4)) == coeffs, p
    _budget(1, t0, "homology anchors")


@criterion(3, "closed homology formula for all d <= 12, p in {2,3,5,7}")
def test_criterion_03():
    t0 = time.monotonic()
    for d in range(0, 13):
        for p in (2, 3, 5, 7):
            brute = homology_dims(build_complex((1,) * (d + 1), p))
            assert brute == poincare_formula_all_ones(d, p), (d, p)
    _budget(120, t0, "formula sweep")


@criterion(4, "head-weight shifts by p^r leave homology unchanged (50 samples)")
def test_criterion_04():
    t0 = time.monotonic()
    rng = random.Random(20260817)
    for _ in range(50):
        d = rng.randint(1, 6)
        tail = tuple(rng.randint(0, 3) for _ in range(d))
        p = rng.choice([2, 3, 5])
        q = 1
        while q <= sum(tail):
            q *= p
        q *= p ** rng.randint(0, 2)
        w0 = rng.randint(0, 60)
        before = homology_dims(build_complex((w0,) + tail, p))
        after = homology_dims(build_complex((w0 - q,) + tail, p))
        assert before == after, (w0, tail, p, q)
    _budget(60, t0, "shift sampling")


@criterion(5, "hook involution rank tables for w0 <= 4, d <= 6, p in {2,3}")
def test_criterion_05():
    for w0 in range(1, 5):
        for d in range(0, 7):
            for p in (2, 3):
                status, payload = check_involution(w0, d, p)
                assert payload["agree_ranks"], (w0, d, p)
                assert status == AGREE, (w0, d, p)


@criterion(6, "stable hook cohomology tables, including the d = 0 case")
def test_criterion_06():
    assert stable_hook_cohomology(1, 3, 2) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert stable_hook_cohomology(1, 3, 3) == {1: 0, 2: 1, 3: 1, 4: 0}
    for w0 in range(1, 7):
        for p in (2, 3, 5):
            assert stable_hook_cohomology(w0, 0, p) == {w0: 1}, (w0, p)


@criterion(7, "incidence anchor (n,d,e,p) = (3,2,1,2) and its p = 3 vanishing")
def test_criterion_07():
    t0 = time.monotonic()
    pair = h_characters(3, 2, 1, 2)
    assert pair.h0.to_records() == [{"exponents": [1, 1, 1], "coeff": 1}]
    assert pair.h1.to_records() == [{"exponents": [1, 1, 1], "coeff": 1}]
    assert kernel_basis(omega_matrix(3, 2, 1, (2, 2, 2), 2)) == [(1, 1, 1)]
    vanished = h_characters(3, 2, 1, 3)
    assert vanished.h0 == 0 and vanished.h1 == 0
    _budget(1, t0, "incidence anchor")


@criterion(8, "window theorem: engine h1 equals the truncated Schur character")
def test_criterion_08():
    t0 = time.monotonic()
    for p in (2, 3):
        for d in range(p, 2 * p):
            for e in range(d - 1, d + 3):
                for n in (3, 4):
                    pair = h_characters(n, d, e, p)
                    assert pair.h1 == h1_window_char(n, d, e, p), (n, d, e, p)
    _budget(300, t0, "window grid")


@criterion(9, "char-2 formula: characters for n in {3,4}, dimensions for {5,6}")
def test_criterion_09():
    t0 = time.monotonic()
    for n in (3, 4):
        for d in range(0, 7):
            for e in range(d - 1, d + 3):
                pair = h_characters(n, d, e, 2)
                assert pair.h1 == h1_char2_char(n, d, e), (n, d, e)
    for n in (5, 6):
        for d in range(0, 7):
            for e in range(d - 1, d + 3):
                pair = h_characters(n, d, e, 2)
                want = h1_char2_char(n, d, e)
                assert pair.h1.dimension() == want.dimension(), (n, d, e)
    _budget(900, t0, "char-2 grid")


@criterion(10, "tableau sums equal (truncated) Schur characters; frozen p=3 set")
def test_criterion_10():
    for n in range(1, 5):
        for a in range(0, 6):
            for b in range(0, min(a, 3) + 1):
                classical = tableau_sum(enumerate_ssyt(n, a, b), n)
                assert classical == schur2(a, b, n), (n, a, b)
                for p in (2, 3):
                    truncated = tableau_sum(enumerate_pssyt(n, a, b, p), n)
                    assert truncated == schur2_trunc(a, b, p, n), (n, a, b, p)
    extra = {TwoRowTableau((i, i), (i,)) for i in (1, 2, 3)}
    assert set(enumerate_pssyt(3, 2, 1, 3)) == set(enumerate_ssyt(3, 2, 1)) | extra


@criterion(11, "classical filtration characters, Pieri total, negative control")
def test_criterion_11():
    for n in range(2, 5):
        for a in range(0, 5):
            for b in range(0, 4):
                quotients = []
                for i in range(0, min(a, b) + 1):
                    for p in (2, 3):
                        got = filtration_character(n, a, b, i, False, p)
                        assert got == schur2(a + b - i, i, n), (n, a, b, i, p)
                    quotients.append(got)
                if quotients:
                    total = quotients[0]
                    for q in quotients[1:]:
                        total = total + q
                    assert total == h(a, n) * h(b, n), (n, a, b)
    # truncated bidegree (1,1) power 0 must NOT match the truncated h_2
    control = filtration_character(3, 1, 1, 0, True, 2)
    target = schur2_trunc(2, 0, 2, 3)
    assert control != target
    assert control.dimension() == 6 and target.dimension() == 3


@criterion(12, "classical lead terms are tableau monomials; verdicts recorded")
def test_criterion_12():
    for n in range(2, 4):
        for a in range(1, 4):
            for b in range(0, min(a, 2) + 1):
                slc = ideal_power_slice(n, a, b, b, False, 2)
                pivots = {
                    (m.x_exponents, m.y_exponents) for m in leading_monomials(slc)
                }
                expected = {
                    (tableau_monomial(t, n).x_exponents,
                     tableau_monomial(t, n).y_exponents)
                    for t in enumerate_ssyt(n, a, b)
                }
                assert pivots == expected, (n, a, b)
    # containment verdicts at p = 2, small sizes: agree, exit 0
    for n, a, b in ((2, 2, 1), (3, 2, 1), (3, 3, 1), (3, 3, 2)):
        status, payload = check_lead_terms(n, a, b, 2)
        assert payload["hypothesis_met"] and status == AGREE, (n, a, b)
        code = cli.main([
            "det", "lead-terms", "--n", str(n), "--a", str(a),
            "--b", str(b), "--prime", "2",
        ])
        assert code == 0, (n, a, b)
    # exit-code contract: a failed comparison surfaces as exit 2 with witness
    code = cli.main([
        "det", "filtration", "--n", "3", "--a", "1", "--b", "1",
        "--i", "0", "--prime", "2", "--compare",
    ])
    assert code == 2


@criterion(13, "property suites: d∘d, ranks, symmetry, Euler, determinism")
def test_criterion_13():
    rng = random.Random(13)
    # 500 random complexes compose to zero
    for _ in range(500):
        d = rng.randint(1, 5)
        w = (rng.randint(-6, 8),) + tuple(rng.randint(0, 4) for _ in range(d))
        p = rng.choice([2, 3, 5, 7])
        cx = build_complex(w, p)
        for k in range(2, d + 1):
            prod = matmul_mod(
                cx.differential(k - 1).to_array(), cx.differential(k).to_array(), p
            )
            assert not prod.any(), (w, p, k)
    # rank equals an independently written elimination oracle
    def oracle_rank(rows, p):
        rows = [list(r) for r in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        for c in range(cols):
            piv = next(
                (r for r in range(rank, len(rows)) if rows[r][c] % p), None
            )
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], -1, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][c] % p:
                    f = rows[r][c]
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    for p in (2, 3, 5, 7):
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            data = [
                [rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)
            ]
            assert PrimeFieldMatrix(p, np.array(data)).rank() == oracle_rank(data, p)
    # emitted characters are S_n-symmetric
    for f in (
        h_characters(3, 3, 2, 2).h0,
        h_characters(3, 3, 2, 2).h1,
        filtration_character(3, 2, 1, 1, True, 2),
        schur2_trunc(4, 1, 3, 3),
        nim_poly(2, 3),
    ):
        assert f.is_symmetric()
    # blockwise Euler identity, recomputed outside the engine
    n, d, e, p = 3, 3, 2, 2
    def all_multidegrees(k, total):
        if k == 1:
            return [(total,)] if total >= 1 else []
        return [
            (v,) + rest
            for v in range(1, total - k + 2)
            for rest in all_multidegrees(k - 1, total - v)
        ]
    for m in all_multidegrees(n, d + e + n):
        dom = len(block_basis(n, d, e, m))
        cod = len(block_basis(n, d - 1, e + 1, m))
        rows, columns = omega_block(n, d, e, m)
        assert (len(columns), rows) == (dom, cod)
        r = omega_rank(n, d, e, m, p)
        assert r == dense_rank(omega_matrix(n, d, e, m, p).to_array(), p)
        assert (dom - r) - (cod - r) == dom - cod
        assert r <= min(dom, cod)
    # JSON determinism across worker counts
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "grid.json")
        with open(cfg, "w") as fh:
            json.dump({"runs": [
                {"command": "incidence chars", "n": 3, "d": [2, 3], "e": 2,
                 "prime": 2, "compare": "char2"},
                {"command": "complex theorem", "d": [3, 4], "primes": "2,3"},
            ]}, fh)
        outs = []
        for workers in ("1", "8"):
            out = os.path.join(tmp, f"w{workers}.json")
            code = cli.main(["sweep", "--config", cfg, "--parallel", workers,
                             "--json", out])
            assert code == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
