"""Slices of powers of the 2x2-minor ideal, their characters, lead terms."""

import random
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from fpcoh.characters import LaurentPolynomial, h, h_trunc, schur2, schur2_trunc
from fpcoh.combinatorics import (
    TwoRowTableau,
    compositions,
    enumerate_pssyt,
    enumerate_ssyt,
)
from fpcoh.determinantal import (
    BigradedMonomial,
    check_iadic_conjecture,
    check_lead_terms,
    expand_minor_product,
    filtration_character,
    ideal_power_slice,
    leading_monomials,
    minor_pairs,
    rbar_character,
    slice_characters,
    tableau_monomial,
    tableau_product,
)
from fpcoh.linalg import PrimeFieldMatrix, rref_with_order


def test_bigraded_monomial():
    m = BigradedMonomial((2, 0, 1), (0, 1, 0))
    assert m.bidegree == (3, 1)
    assert m.multidegree == (2, 1, 1)
    assert m.key() == (2, 0, 1, 0, 1, 0)


def test_minor_pairs():
    assert minor_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert minor_pairs(1) == []


def test_expand_single_minor():
    row = expand_minor_product(2, [(0, 1)], (0, 0), (0, 0))
    assert row == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_expand_minor_square():
    row = expand_minor_product(2, [(0, 1), (0, 1)], (0, 0), (0, 0))
    assert row == {
        (2, 0, 0, 2): 1,
        (1, 1, 1, 1): -2,
        (0, 2, 2, 0): 1,
    }


def test_expand_with_monomial_factor():
    row = expand_minor_product(2, [(0, 1)], (1, 0), (0, 1))
    assert row == {(2, 0, 0, 2): 1, (1, 1, 1, 1): -1}


def test_slice_dimensions_small():
    full = ideal_power_slice(2, 1, 1, 0, False, 5)
    assert full.dimension() == 4
    minors_only = ideal_power_slice(2, 1, 1, 1, False, 5)
    assert minors_only.dimension() == 1
    assert ideal_power_slice(2, 1, 1, 2, False, 5).dimension() == 0


def test_slice_beyond_min_bidegree_is_empty():
    slc = ideal_power_slice(3, 1, 2, 2, False, 3)
    assert slc.blocks == {}
    assert slc.dimension() == 0
    assert filtration_character(3, 0, 2, 1, False, 3) == 0


def test_full_slice_character_is_h_product():
    for n, a, b, p in product((2, 3), (0, 1, 2), (0, 1, 2), (2, 5)):
        slc = ideal_power_slice(n, a, b, 0, False, p)
        assert slc.rank_character() == h(a, n) * h(b, n), (n, a, b, p)


def test_classical_filtration_matches_schur():
    for n in (2, 3):
        for a in range(0, 4):
            for b in range(0, 3):
                for i in range(0, min(a, b) + 1):
                    for p in (2, 3):
                        got = filtration_character(n, a, b, i, False, p)
                        want = schur2(a + b - i, i, n)
                        assert got == want, (n, a, b, i, p)


def test_classical_quotients_telescope():
    n, a, b, p = 3, 3, 2, 2
    total = sum(
        (filtration_character(n, a, b, i, False, p) for i in range(min(a, b) + 1)),
        start=h(0, n) * 0,
    )
    assert total == h(a, n) * h(b, n)


def test_slices_nest():
    for n, a, b, i, truncated, p in (
        (3, 2, 2, 0, False, 2),
        (3, 2, 2, 1, False, 2),
        (3, 3, 2, 1, True, 2),
        (2, 3, 3, 1, True, 3),
    ):
        outer = ideal_power_slice(n, a, b, i, truncated, p)
        inner = ideal_power_slice(n, a, b, i + 1, truncated, p)
        for m, block in inner.blocks.items():
            if not block.matrix.to_array().any():
                continue
            assert m in outer.blocks, (n, a, b, i, m)
            stacked = np.vstack(
                [outer.blocks[m].matrix.to_array(), block.matrix.to_array()]
            )
            assert PrimeFieldMatrix(p, stacked).rank() == outer.block_rank(m), m


def test_leading_monomial_count_is_rank():
    for truncated in (False, True):
        slc = ideal_power_slice(3, 2, 1, 1, truncated, 2)
        assert len(leading_monomials(slc)) == slc.dimension()


def test_pivots_invariant_under_row_shuffle():
    slc = ideal_power_slice(3, 2, 2, 1, False, 2)
    m = next(iter(slc.multidegrees()))
    block = slc.blocks[m]
    a = block.matrix.to_array()
    _, pivots = rref_with_order(block.matrix, list(range(a.shape[1])))
    rng = np.random.default_rng(6)
    shuffled = a[rng.permutation(a.shape[0])]
    _, pivots2 = rref_with_order(
        PrimeFieldMatrix(2, shuffled), list(range(a.shape[1]))
    )
    assert sorted(pivots) == sorted(pivots2)


def test_tableau_monomial_and_errors():
    t = TwoRowTableau((1, 1, 2), (2, 3))
    mono = tableau_monomial(t, 3)
    assert mono.x_exponents == (2, 1, 0)
    assert mono.y_exponents == (0, 1, 1)
    with pytest.raises(ValueError):
        tableau_monomial(TwoRowTableau((1, 4), (2,)), 3)


def test_tableau_product_lead_terms_classical():
    # the expansion attached to a semistandard tableau leads with its monomial
    for n in (2, 3):
        for a in range(1, 4):
            for b in range(0, min(a, 2) + 1):
                for t in enumerate_ssyt(n, a, b):
                    row = tableau_product(t, n)
                    assert max(row) == tableau_monomial(t, n).key(), t


def test_tableau_product_needs_increasing_columns():
    with pytest.raises(ValueError):
        tableau_product(TwoRowTableau((1, 1), (1,)), 2)


def test_rbar_character_values():
    char = rbar_character(3, 1, 1, 2)
    assert char == h_trunc(1, 2, 3) * h_trunc(1, 2, 3)
    assert char.dimension() == 9
    assert rbar_character(2, 2, 1, 5) == h(2, 2) * h(1, 2)


def test_iadic_check_agrees_in_hypothesis():
    rep = check_iadic_conjecture(3, 2, 1, 2)
    assert rep.hypothesis_met
    assert rep.agree
    assert [r["power"] for r in rep.rows] == [0, 1]
    rep = check_iadic_conjecture(2, 3, 1, 3)
    assert rep.hypothesis_met
    assert rep.agree


def test_iadic_check_negative_control():
    # a - b = 0 < p - 1 fails, and the characters genuinely differ
    rep = check_iadic_conjecture(3, 1, 1, 2)
    assert not rep.hypothesis_met
    assert not rep.agree
    row = rep.rows[0]
    assert row["computed_dim"] == 6
    assert row["target_dim"] == 3
    assert "first_difference" in row
    assert rep.to_payload()["hypothesis_met"] is False


def test_lead_term_check_truncated():
    rep = check_lead_terms(3, 2, 1, 2)
    assert rep.hypothesis_met
    assert rep.agree
    assert len(rep.expected) == 8
    assert rep.missing == []


def test_lead_term_check_matches_classical_at_large_p():
    rep = check_lead_terms(3, 2, 1, 11)
    assert rep.agree
    assert len(rep.expected) == len(list(enumerate_ssyt(3, 2, 1)))
    assert len(rep.expected) == len(list(enumerate_pssyt(3, 2, 1, 11)))


def test_lead_term_small_grid_char_two():
    for n in (2, 3):
        for a in range(1, 4):
            for b in range(0, min(a - 1, 2) + 1):
                rep = check_lead_terms(n, a, b, 2)
                assert rep.hypothesis_met, (n, a, b)
                assert rep.agree, (n, a, b)


def test_slice_validation():
    with pytest.raises(ValueError):
        ideal_power_slice(3, -1, 1, 0, False, 2)
    with pytest.raises(ValueError):
        ideal_power_slice(3, 1, 1, -1, False, 2)


def oracle_blocks(n, a, b, i, truncated, p):
    """{multidegree: (columns, full generator matrix)} of the i-th power in
    bidegree (a, b): every product of i minors times every monomial, each
    expanded on its own, kept whole (no saturation stop)."""
    if a < i or b < i:
        return {}
    rows = {}
    for minors in combinations_with_replacement(minor_pairs(n), i):
        for x in compositions(a - i, (a - i,) * n):
            for y in compositions(b - i, (b - i,) * n):
                row = {
                    mono: c % p
                    for mono, c in expand_minor_product(n, minors, x, y).items()
                    if c % p and not (truncated and max(mono) >= p)
                }
                if row:
                    mono = next(iter(row))
                    m = tuple(mono[k] + mono[n + k] for k in range(n))
                    rows.setdefault(m, []).append(row)
    out = {}
    for m, block in rows.items():
        columns = sorted({mono for row in block for mono in row}, reverse=True)
        index = {mono: c for c, mono in enumerate(columns)}
        mat = np.zeros((len(block), len(columns)), dtype=np.int64)
        for r, row in enumerate(block):
            for mono, c in row.items():
                mat[r, index[mono]] = c
        out[m] = (columns, PrimeFieldMatrix(p, mat))
    return out


def assert_pass_matches_oracle(n, a, b, truncated, p):
    """Per-power block ranks and leading monomials of the pass against the
    oracle's full matrices, and the i-adic rows against their differences."""
    top = min(a, b) + 1
    chars = slice_characters(n, a, b, range(top + 1), truncated, p)
    want = {}
    for i in range(top + 1):
        oracle = oracle_blocks(n, a, b, i, truncated, p)
        want[i] = LaurentPolynomial(n, {m: mat.rank() for m, (_, mat) in oracle.items()})
        assert chars[i] == want[i], (n, a, b, i, truncated, p)
        leads = set()
        for columns, mat in oracle.values():
            _, pivots = rref_with_order(mat, list(range(mat.cols)))
            leads |= {BigradedMonomial(columns[c][:n], columns[c][n:]) for c in pivots}
        slc = ideal_power_slice(n, a, b, i, truncated, p)
        assert leading_monomials(slc) == leads, (n, a, b, i, truncated, p)
    if truncated and b <= a:
        rows = check_iadic_conjecture(n, a, b, p).rows
        assert [row["power"] for row in rows] == list(range(b + 1))
        for i, row in enumerate(rows):
            quotient = want[i] - want[i + 1]
            assert row["computed_dim"] == quotient.dimension(), (n, a, b, p, i)
            assert row["ok"] == (quotient == schur2_trunc(a + b - i, i, p, n))


def test_pass_matches_full_generator_matrices():
    rng = random.Random(3)
    cases = [
        (rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3), truncated, p)
        for p in (2, 3, 5)
        for truncated in (False, True)
        for _ in range(6)
    ]
    for case in cases:
        assert_pass_matches_oracle(*case)


def test_pass_matches_full_generator_matrices_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(1, 4),
        a=st.integers(0, 4),
        b=st.integers(0, 3),
        truncated=st.booleans(),
        p=st.sampled_from((2, 3, 5)),
    )
    def check(n, a, b, truncated, p):
        assert_pass_matches_oracle(n, a, b, truncated, p)

    check()


def test_pass_expands_once_and_never_feeds_a_saturated_block(monkeypatch):
    from fpcoh import determinantal

    expanded = []
    real_expand = determinantal.expand_minor_product

    def expand(n, minors, x, y):
        expanded.append(tuple(minors))
        return real_expand(n, minors, x, y)

    fed_when_saturated = []
    real_add = determinantal._Block.add

    def add(block, shift, terms):
        fed_when_saturated.append(block.saturated())
        real_add(block, shift, terms)

    monkeypatch.setattr(determinantal, "expand_minor_product", expand)
    monkeypatch.setattr(determinantal._Block, "add", add)
    n, a, b, p = 3, 3, 2, 2
    slice_characters(n, a, b, range(b + 2), True, p)
    generators = sum(
        len(specs)
        for i in range(b + 2)
        for specs in determinantal._generator_specs(n, a, b, i, True, p).values()
    )
    assert len(expanded) == len(set(expanded))
    assert fed_when_saturated and not any(fed_when_saturated)
    assert len(fed_when_saturated) < generators
