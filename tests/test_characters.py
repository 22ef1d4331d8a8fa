"""Laurent polynomial ring and the symmetric-function constructors."""

import math
import random
from itertools import combinations, product

import pytest

from fpcoh.characters import (
    LaurentPolynomial,
    h,
    h_trunc,
    nim_poly,
    schur2,
    schur2_trunc,
)
from fpcoh.combinatorics import enumerate_pssyt, enumerate_ssyt, nim_sum
from helpers import is_symmetric, product_schur2, tableau_sum


def test_construction_drops_zeros():
    f = LaurentPolynomial(2, {(1, 0): 3, (0, 1): 0})
    assert f.terms() == [((1, 0), 3)]
    assert not LaurentPolynomial(2, {})
    assert f


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
    t1 = LaurentPolynomial(2, {(1, 0): 1})
    t2 = LaurentPolynomial(2, {(0, 1): 1})
    one = LaurentPolynomial(2, {(0, 0): 1})
    f = t1 + t2
    assert f * f == t1 * t1 + 2 * (t1 * t2) + t2 * t2
    assert f - f == LaurentPolynomial(2)
    assert f * one == f
    assert not f * 0
    assert -f + f == LaurentPolynomial(2)
    # negative exponents are first-class
    inv = LaurentPolynomial(2, {(-1, 0): 1})
    assert t1 * inv == one


def test_eq_and_hash():
    f = LaurentPolynomial(2, {(1, 2): 4})
    g = LaurentPolynomial(2, {(1, 2): 4})
    assert f == g and hash(f) == hash(g)
    assert LaurentPolynomial(3) == 0
    assert LaurentPolynomial(3, {(0, 0, 0): 1}) == 1
    assert f != LaurentPolynomial(2, {(2, 1): 4})


def test_h_dimensions_and_negatives():
    for n in (1, 2, 3, 4):
        for d in range(0, 6):
            assert h(d, n).dimension() == math.comb(n + d - 1, d)
    assert not h(-1, 3)
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
    assert not h_trunc(-2, 3, 2)


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


def test_schur2_counts_equal_the_product_oracle():
    # n <= 4 in full, and a seeded sample of n = 5, 6; a and b run negative
    # too, where schur2(-1, b) = -h(b - 1); q = None is the classical case
    grid = list(product(range(1, 7), range(-3, 7), range(-3, 7), (None, 1, 2, 3, 5)))
    rng = random.Random(2317)
    cases = [c for c in grid if c[0] <= 4] + rng.sample([c for c in grid if c[0] > 4], 120)
    for n, a, b, q in cases:
        got = schur2(a, b, n) if q is None else schur2_trunc(a, b, q, n)
        assert got == product_schur2(a, b, n, q), (n, a, b, q)
    assert schur2(-1, 3, 2) == -h(2, 2)
    assert schur2_trunc(-1, 3, 2, 2) == -h_trunc(2, 2, 2)


def test_schur2_multiplies_no_polynomials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a two-row Schur character multiplied polynomials")

    monkeypatch.setattr(LaurentPolynomial, "__mul__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", refuse)
    with pytest.raises(AssertionError, match="multiplied"):
        product_schur2(3, 1, 2)
    assert schur2(3, 1, 2) == LaurentPolynomial(2, {(3, 1): 1, (2, 2): 1, (1, 3): 1})
    assert schur2_trunc(1, 1, 2, 2) == LaurentPolynomial(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert schur2_trunc(3, 1, 4, 2) == LaurentPolynomial(
        2, {(4, 0): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1, (0, 4): 1}
    )
    # Weyl's dimension formula for the shape (7, 6) in five variables
    shape = (7, 6, 0, 0, 0)
    pairs = list(combinations(range(5), 2))
    weyl = math.prod(shape[i] - shape[j] + j - i for i, j in pairs) // math.prod(
        j - i for i, j in pairs
    )
    assert schur2(7, 6, 5).dimension() == weyl


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
    assert LaurentPolynomial(2).dimension() == 0


def test_is_symmetric():
    assert is_symmetric(h(3, 3))
    assert is_symmetric(schur2(4, 2, 3))
    assert not is_symmetric(LaurentPolynomial(2, {(1, 0): 1}))
    assert is_symmetric(LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1}))


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
            assert is_symmetric(nim_poly(m, n))


def test_tableau_sum_counts_letters():
    assert tableau_sum([((1,), ())], 2) == LaurentPolynomial(2, {(1, 0): 1})
    assert tableau_sum([((1, 2), (2,)), ((1, 1), (2,))], 2) == LaurentPolynomial(
        2, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError):
        tableau_sum([((1, 3), (2,))], 2)


def test_records_are_sorted_and_stable():
    f = h(2, 2)
    recs = f.to_records()
    assert recs == sorted(recs, key=lambda r: tuple(r["exponents"]))
    assert all(set(r) == {"exponents", "coeff"} for r in recs)


def test_str_rendering():
    assert str(LaurentPolynomial(2)) == "0"
    f = LaurentPolynomial(2, {(2, 0): 1, (0, 0): -3, (1, 1): 2})
    s = str(f)
    assert "t1^2" in s and "2*t1*t2" in s and "-3" in s
