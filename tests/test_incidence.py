"""Incidence-block cohomology characters and the closed formulas for them."""

import math
import random
from itertools import product

import numpy as np
import pytest

from fpcoh.characters import LaurentPolynomial, h, nim_poly, schur2_trunc
from fpcoh.combinatorics import compositions
from fpcoh.incidence import (
    block_basis,
    char2_hypothesis,
    char2_lambda_set,
    h1_char2_char,
    h1_small_weight_char,
    h1_window_char,
    h_characters,
    omega_block,
    small_weights_hypothesis,
    window_hypothesis,
)
from fpcoh.linalg import DENSE_COLUMN_THRESHOLD, PrimeFieldMatrix
from helpers import dense_rank, is_symmetric, kernel_basis, omega_matrix, omega_rank


def module_dimension(n, d, e):
    """Dimension of the span of x^b / y^(1+a), |a| = d, |b| = e."""
    if d < 0 or e < 0:
        return 0
    return math.comb(n + d - 1, d) * math.comb(n + e - 1, e)


def rbar_like_character(n, d, e):
    """Character of the full (d, e) block family: h_d h_e t_1...t_n."""
    ones = LaurentPolynomial(n, {(1,) * n: 1})
    return h(d, n) * h(e, n) * ones


def multidegrees(n, total):
    """All length-n vectors of positive integers with the given sum."""
    if n == 1:
        return [(total,)] if total >= 1 else []
    return [
        (v,) + rest
        for v in range(1, total - n + 2)
        for rest in multidegrees(n - 1, total - v)
    ]


def test_module_dimension():
    assert module_dimension(3, 2, 1) == 6 * 3
    assert module_dimension(2, 0, 0) == 1
    assert module_dimension(4, -1, 2) == 0
    assert module_dimension(4, 2, -1) == 0


def test_block_basis_example():
    basis = block_basis(3, 2, 1, (2, 2, 2))
    assert basis == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]
    numerators = [tuple(x - 1 - y for x, y in zip((2, 2, 2), a)) for a in basis]
    assert numerators == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    assert all(
        tuple(x + y + 1 for x, y in zip(a, b)) == (2, 2, 2)
        for a, b in zip(basis, numerators)
    )


def test_block_basis_totals_match_product_count():
    for n, d, e in product((2, 3), (0, 1, 2, 3), (0, 1, 2)):
        counted = sum(
            len(block_basis(n, d, e, m)) for m in multidegrees(n, d + e + n)
        )
        assert counted == module_dimension(n, d, e), (n, d, e)


def test_block_basis_validation():
    with pytest.raises(ValueError):
        block_basis(3, 1, 1, (2, 2))  # wrong length
    with pytest.raises(ValueError):
        block_basis(2, 1, 1, (4, 0))  # entry below 1
    with pytest.raises(ValueError):
        block_basis(2, 1, 1, (3, 2))  # wrong total
    # negative twist short-circuits before the total is checked
    assert block_basis(2, 1, -1, (2, 1)) == []
    assert block_basis(2, 0, 0, (1, 1)) == [(0, 0)]


def test_omega_block_matrix():
    assert omega_block(3, 2, 1, (2, 2, 2)) == (3, [[0, 1], [0, 2], [1, 2]])
    mat = omega_matrix(3, 2, 1, (2, 2, 2), 2)
    assert mat.to_array().tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert omega_rank(3, 2, 1, (2, 2, 2), 2) == 2
    assert kernel_basis(mat) == [(1, 1, 1)]
    assert omega_rank(3, 2, 1, (2, 2, 2), 3) == 3


def test_omega_block_ranks_match_dense_elimination():
    """Every block of a seeded grid of (n, d, e), as both walks of
    `h_characters` report it, plus one block wider than
    DENSE_COLUMN_THRESHOLD, against the numpy oracle."""
    rng = random.Random(12)
    cases = set()
    for _ in range(24):
        cases.add((rng.randint(2, 5), rng.randint(0, 6), rng.randint(-1, 6)))
    for n, d, e in sorted(cases):
        for p in (2, 3, 5):
            pairs = [h_characters(n, d, e, p, symmetry_reduce=s) for s in (True, False)]
            for exps in compositions(d + e, (d + e,) * n):
                m = tuple(x + 1 for x in exps)
                assert all(len(set(c)) == len(c) for c in omega_block(n, d, e, m)[1])
                mat = omega_matrix(n, d, e, m, p)
                r = dense_rank(mat.to_array(), p)
                for h0, h1 in pairs:
                    assert h0.coefficient(exps) == mat.cols - r, (n, d, e, m, p)
                    assert h1.coefficient(exps) == mat.rows - r, (n, d, e, m, p)
    wide = (5, 10, 13, (6, 6, 6, 5, 5))
    mat = omega_matrix(*wide, 2)
    assert mat.cols >= DENSE_COLUMN_THRESHOLD
    for p in (2, 3, 5):
        assert omega_rank(*wide, p) == dense_rank(omega_matrix(*wide, p).to_array(), p), p


def test_h_characters_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("h_characters built a PrimeFieldMatrix")

    monkeypatch.setattr(PrimeFieldMatrix, "__init__", refuse)
    ones = LaurentPolynomial(3, {(1, 1, 1): 1})
    h0, h1 = h_characters(3, 2, 1, 2)
    assert h0 == ones and h1 == ones
    _, full_h1 = h_characters(3, 4, 3, 3, symmetry_reduce=False)
    assert full_h1 == h1_window_char(3, 4, 3, 3)


def test_h_characters_anchor_case():
    ones = LaurentPolynomial(3, {(1, 1, 1): 1})
    h0, h1 = h_characters(3, 2, 1, 2)
    assert h0 == ones
    assert h1 == ones
    h0, h1 = h_characters(3, 2, 1, 3)
    assert h0 == 0
    assert h1 == 0


def test_twist_minus_one_gives_shifted_h():
    for n, d, p in product((2, 3), (1, 2, 3, 4), (2, 3)):
        h0, h1 = h_characters(n, d, -1, p)
        assert h0 == 0, (n, d, p)
        assert h1 == h(d - 1, n), (n, d, p)
    h0, h1 = h_characters(3, 0, -1, 2)
    assert h0 == 0 and h1 == 0


def test_euler_identity():
    # kernel minus cokernel is the difference of the two block families
    for n, d, e, p in product((2, 3), (0, 1, 2, 3), (-1, 0, 1, 2), (2, 3, 5)):
        h0, h1 = h_characters(n, d, e, p)
        expected = h(d, n) * h(e, n) - h(d - 1, n) * h(e + 1, n)
        assert h0 - h1 == expected, (n, d, e, p)


def test_block_family_character():
    for n, d, e in product((2, 3), (1, 2), (0, 1, 2)):
        total = LaurentPolynomial(n)
        for m in multidegrees(n, d + e + n):
            count = len(block_basis(n, d, e, m))
            if count:
                total = total + LaurentPolynomial(n, {m: count})
        assert total == rbar_like_character(n, d, e), (n, d, e)


def test_symmetry_reduce_agrees_with_full_scan():
    for n, d, e, p in product((2, 3, 4), range(5), range(-1, 4), (2, 3)):
        reduced = h_characters(n, d, e, p)
        full = h_characters(n, d, e, p, symmetry_reduce=False)
        assert reduced[0] == full[0], (n, d, e, p)
        assert reduced[1] == full[1], (n, d, e, p)


def test_characters_are_symmetric():
    for n, d, e, p in product((2, 3), (1, 2, 3), (0, 1, 2), (2, 3)):
        h0, h1 = h_characters(n, d, e, p)
        assert is_symmetric(h0), (n, d, e, p)
        assert is_symmetric(h1), (n, d, e, p)


def test_large_primes_stabilize():
    a = h_characters(3, 3, 2, 11)
    b = h_characters(3, 3, 2, 13)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_regime_validation():
    with pytest.raises(ValueError, match="unsupported regime"):
        h_characters(3, 2, -2, 2)
    with pytest.raises(ValueError, match="unsupported regime"):
        h_characters(3, 2, -5, 3)
    with pytest.raises(ValueError):
        h_characters(1, 2, 1, 2)
    with pytest.raises(ValueError):
        h_characters(3, -1, 1, 2)


def test_hypothesis_predicates():
    assert window_hypothesis(2, 1, 2)
    assert window_hypothesis(3, 4, 2)
    assert not window_hypothesis(4, 4, 2)  # d = 2p is out
    assert not window_hypothesis(2, 0, 2)  # e < d - 1
    assert not window_hypothesis(1, 1, 2)  # d < p
    assert small_weights_hypothesis(6, 5, 3)  # t = 2 < 3
    assert not small_weights_hypothesis(6, 5, 2)  # t = 3 is not < 2
    assert not small_weights_hypothesis(2, 2, 3)  # t = 0
    assert char2_hypothesis(3, 2)
    assert not char2_hypothesis(3, 1)


def test_window_theorem_small_grid():
    for p in (2, 3):
        for d in range(p, 2 * p):
            for e in (d - 1, d, d + 1):
                _, h1 = h_characters(3, d, e, p)
                assert h1 == h1_window_char(3, d, e, p), (d, e, p)


def test_small_weights_reduces_to_window_at_t_one():
    for p, d, e in ((2, 2, 2), (2, 3, 3), (3, 4, 4), (3, 5, 5)):
        assert h1_small_weight_char(3, d, e, p) == h1_window_char(3, d, e, p)


def test_small_weights_beyond_window():
    # t = 2: two-layer sum, checked against the block computation
    _, h1 = h_characters(3, 6, 5, 3)
    assert h1 == h1_small_weight_char(3, 6, 5, 3)


def test_char2_lambda_sets():
    assert char2_lambda_set(1) == []
    assert char2_lambda_set(3) == [(2, 0)]
    assert char2_lambda_set(6) == [(2, 0), (2, 1), (4, 0)]
    assert char2_lambda_set(12) == [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (8, 0)]


def test_char2_formula_small_grid():
    for d in range(0, 6):
        for e in (d - 1, d, d + 1):
            if e <= -2:
                continue
            _, h1 = h_characters(3, d, e, 2)
            assert h1 == h1_char2_char(3, d, e), (d, e)


def test_char2_depth_six_parts():
    # d = 6 engages all three layers of the lambda set
    e = 6
    expected = (
        schur2_trunc(e + 2, 4, 2, 2)
        + nim_poly(1, 2).frobenius(4) * schur2_trunc(e - 2, 0, 2, 2)
        + schur2_trunc(e + 4, 2, 4, 2)
    )
    assert h1_char2_char(2, 6, e) == expected
    _, h1 = h_characters(2, 6, e, 2)
    assert h1 == expected


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        h1_window_char(3, 1, 1, 2)  # d < p
    with pytest.raises(ValueError):
        h1_window_char(3, 2, 0, 2)  # e < d - 1
    with pytest.raises(ValueError):
        h1_small_weight_char(3, 2, 2, 3)  # t = 0
    with pytest.raises(ValueError):
        h1_small_weight_char(3, 6, 3, 3)  # e < d - 1
    with pytest.raises(ValueError):
        h1_char2_char(3, 3, 1)


def test_formulas_raise_exactly_outside_their_hypotheses():
    def raises(formula, *args):
        try:
            formula(*args)
        except ValueError:
            return True
        return False

    for d, e, p in product(range(10), range(-1, 10), (2, 3, 5)):
        assert raises(h1_window_char, 3, d, e, p) != window_hypothesis(d, e, p), (d, e, p)
        assert (raises(h1_small_weight_char, 3, d, e, p)
                != small_weights_hypothesis(d, e, p)), (d, e, p)
        assert raises(h1_char2_char, 3, d, e) != char2_hypothesis(d, e), (d, e, p)
