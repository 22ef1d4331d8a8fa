"""Laurent polynomial ring and the symmetric-function constructors."""

import math
import random
from itertools import product

import pytest

from fpcoh.characters import (
    LaurentPolynomial,
    h,
    h_trunc,
    nim_poly,
    schur2,
    schur2_trunc,
    tableau_sum,
)
from fpcoh.combinatorics import TwoRowTableau, enumerate_pssyt, enumerate_ssyt, nim_sum


def test_construction_drops_zeros():
    f = LaurentPolynomial(2, {(1, 0): 3, (0, 1): 0})
    assert f.terms() == [((1, 0), 3)]
    assert LaurentPolynomial(2, {}).is_zero()
    assert not f.is_zero()


def test_nvars_validation():
    with pytest.raises(ValueError):
        LaurentPolynomial(0, {})
    with pytest.raises(ValueError):
        LaurentPolynomial(2, {(1,): 1})
    f = LaurentPolynomial(2, {(1, 1): 1})
    g = LaurentPolynomial(3, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


def test_ring_arithmetic():
    t1 = LaurentPolynomial.monomial((1, 0))
    t2 = LaurentPolynomial.monomial((0, 1))
    f = t1 + t2
    assert f * f == t1 * t1 + 2 * (t1 * t2) + t2 * t2
    assert f - f == LaurentPolynomial.zero(2)
    assert f * LaurentPolynomial.one(2) == f
    assert (f * 0).is_zero()
    assert -f + f == LaurentPolynomial.zero(2)
    # negative exponents are first-class
    inv = LaurentPolynomial.monomial((-1, 0))
    assert t1 * inv == LaurentPolynomial.one(2)


def test_eq_and_hash():
    f = LaurentPolynomial(2, {(1, 2): 4})
    g = LaurentPolynomial(2, {(1, 2): 4})
    assert f == g and hash(f) == hash(g)
    assert LaurentPolynomial.zero(3) == 0
    assert LaurentPolynomial.one(3) == 1
    assert f != LaurentPolynomial(2, {(2, 1): 4})


def test_h_dimensions_and_negatives():
    for n in (1, 2, 3, 4):
        for d in range(0, 6):
            assert h(d, n).dimension() == math.comb(n + d - 1, d)
    assert h(-1, 3).is_zero()
    assert h(0, 3) == 1


def test_h_trunc_brute_force():
    for n in (2, 3):
        for q in (2, 3):
            for d in range(0, 7):
                want = sum(
                    1
                    for exps in product(range(q), repeat=n)
                    if sum(exps) == d
                )
                got = h_trunc(d, q, n)
                assert got.dimension() == want
                assert all(max(e) < q for e, _ in got.terms())
    assert h_trunc(-2, 3, 2).is_zero()


def test_schur2_equals_tableau_sum():
    for n in (2, 3, 4):
        for a in range(0, 5):
            for b in range(0, min(a, 3) + 1):
                assert schur2(a, b, n) == tableau_sum(enumerate_ssyt(n, a, b), n)


def test_schur2_trunc_equals_pssyt_sum():
    for p in (2, 3):
        for n in (2, 3, 4):
            for a in range(0, 5):
                for b in range(0, min(a, 3) + 1):
                    got = schur2_trunc(a, b, p, n)
                    want = tableau_sum(enumerate_pssyt(n, a, b, p), n)
                    assert got == want, (n, a, b, p)


def test_schur_row_case_collapses_to_h():
    for n in (2, 3):
        for a in range(0, 5):
            assert schur2(a, 0, n) == h(a, n)
            for q in (2, 3):
                assert schur2_trunc(a, 0, q, n) == h_trunc(a, q, n)


def test_schur_hand_values():
    # two variables: s_(a,b) = (t1 t2)^b * (t1^(a-b) + ... + t2^(a-b))
    got = schur2(3, 1, 2)
    want = LaurentPolynomial(2, {(3, 1): 1, (2, 2): 1, (1, 3): 1})
    assert got == want
    # q=3: the truncated subtraction happens to cancel back to the classical value
    assert schur2_trunc(3, 1, 3, 2) == want
    # q=4 keeps the pure powers t1^4 and t2^4 that the classical straightening kills
    got = schur2_trunc(3, 1, 4, 2)
    extra = LaurentPolynomial(2, {(4, 0): 1, (0, 4): 1})
    assert got == want + extra


def test_schur2_trunc_differs_from_classical():
    # n=2, q=2: s^(2)_(1,1) keeps the squares that classical s_(1,1) lacks
    f = schur2_trunc(1, 1, 2, 2)
    assert f == LaurentPolynomial(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert schur2(1, 1, 2) == LaurentPolynomial(2, {(1, 1): 1})


def test_frobenius_scales_exponents():
    f = LaurentPolynomial(2, {(1, 0): 2, (-1, 2): 5})
    g = f.frobenius(3)
    assert g == LaurentPolynomial(2, {(3, 0): 2, (-3, 6): 5})
    assert g.dimension() == f.dimension()
    a = h(2, 3)
    b = h(3, 3)
    assert (a * b).frobenius(2) == a.frobenius(2) * b.frobenius(2)


def test_dim_eval():
    assert h(3, 2).dimension() == 4
    assert LaurentPolynomial.zero(2).dimension() == 0


def test_is_symmetric():
    assert h(3, 3).is_symmetric()
    assert schur2(4, 2, 3).is_symmetric()
    assert not LaurentPolynomial(2, {(1, 0): 1}).is_symmetric()
    assert LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1}).is_symmetric()


def test_nim_poly_small():
    # two variables: the only zero nim-sum split of 2m is (m, m)
    for m in range(0, 4):
        assert nim_poly(m, 2) == LaurentPolynomial(2, {(m, m): 1})
    # three variables, m=1: degree-2 exponent vectors with nim-sum zero
    got = nim_poly(1, 3)
    want = LaurentPolynomial(3, {(0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    assert got == want


def test_nim_poly_brute_force():
    for n in (2, 3, 4):
        for m in range(0, 4):
            got = dict(nim_poly(m, n).terms())
            for exps in product(range(2 * m + 1), repeat=n):
                if sum(exps) == 2 * m and nim_sum(exps) == 0:
                    assert got.pop(exps) == 1
            assert not got


def test_nim_poly_coefficients_are_all_one():
    for n in (2, 3, 4, 5):
        for m in range(0, 4):
            assert all(c == 1 for _, c in nim_poly(m, n).terms())
            assert nim_poly(m, n).is_symmetric()


def test_tableau_sum_type_checks():
    with pytest.raises(TypeError):
        tableau_sum([(1, 2)], 2)
    t = TwoRowTableau((1,), ())
    assert tableau_sum([t], 2) == LaurentPolynomial(2, {(1, 0): 1})


def test_records_are_sorted_and_stable():
    f = h(2, 2)
    recs = f.to_records()
    assert recs == sorted(recs, key=lambda r: tuple(r["exponents"]))
    assert all(set(r) == {"exponents", "coeff"} for r in recs)


def test_str_rendering():
    assert str(LaurentPolynomial.zero(2)) == "0"
    f = LaurentPolynomial(2, {(2, 0): 1, (0, 0): -3, (1, 1): 2})
    s = str(f)
    assert "t1^2" in s and "2*t1*t2" in s and "-3" in s
