"""Slices of powers of the 2x2-minor ideal, their characters, lead terms."""

import random
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from fpcoh.characters import LaurentPolynomial, h, h_trunc, schur2, schur2_trunc
from fpcoh.combinatorics import (
    compositions,
    decreasing_compositions,
    enumerate_pssyt,
    enumerate_ssyt,
    orbit,
)
from fpcoh.determinantal import (
    check_lead_terms,
    expand_minor_product,
    ideal_power_slice,
    leading_monomials,
    slice_characters,
    tableau_monomial,
)
from fpcoh.linalg import PrimeFieldMatrix, reduce_into, rref_with_order
from fpcoh.verdicts import AGREE, OUTSIDE
from helpers import (
    classical_leading_monomials,
    filtration_character,
    full_scan_slice,
    generator_specs,
    minor_pairs,
    per_member_carry,
    product_block_columns,
)


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
        want = h(a, n) * h(b, n)
        assert slice_characters(n, a, b, [0], False, p)[0] == want, (n, a, b, p)
        assert full_scan_characters(n, a, b, [0], False, p)[0] == want, (n, a, b, p)


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
            assert PrimeFieldMatrix(p, stacked).rank() == outer.blocks[m].rank, m


def test_leading_monomial_count_is_rank():
    for truncated in (False, True):
        slc = ideal_power_slice(3, 2, 1, 1, truncated, 2)
        assert len(leading_monomials(slc)) == slc.dimension()


def test_pivots_invariant_under_row_shuffle():
    slc = ideal_power_slice(3, 2, 2, 1, False, 2)
    m = min(slc.blocks)
    block = slc.blocks[m]
    a = block.matrix.to_array()
    _, pivots = rref_with_order(block.matrix, list(range(a.shape[1])))
    rng = np.random.default_rng(6)
    shuffled = a[rng.permutation(a.shape[0])]
    _, pivots2 = rref_with_order(
        PrimeFieldMatrix(2, shuffled), list(range(a.shape[1]))
    )
    assert sorted(pivots) == sorted(pivots2)


def tableau_product(t, n):
    """Expansion of the product of column minors times leftover top-row
    variables attached to the tableau: minor (u_i, v_i) per full column,
    then x_(u_i) for the single-box columns."""
    top, bottom = t
    b = len(bottom)
    minors = []
    for i in range(b):
        u, v = top[i], bottom[i]
        if u >= v:
            raise ValueError("column minors need strictly increasing columns")
        minors.append((u - 1, v - 1))
    x = [0] * n
    for val in top[b:]:
        x[val - 1] += 1
    return expand_minor_product(n, minors, tuple(x), (0,) * n)


def rbar_character(n, a, b, p):
    """Bigraded character of the truncated polynomial ring in bidegree (a, b),
    as a multidegree character: h_a^(p) * h_b^(p)."""
    return h_trunc(a, p, n) * h_trunc(b, p, n)


def test_tableau_monomial_and_errors():
    t = ((1, 1, 2), (2, 3))
    assert tableau_monomial(t, 3) == (2, 1, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="exceeds variable count"):
        tableau_monomial(((1, 4), (2,)), 3)
    with pytest.raises(ValueError, match="exceeds variable count"):
        tableau_monomial(((1, 1), (4,)), 3)


def test_tableau_product_lead_terms_classical():
    # the expansion attached to a semistandard tableau leads with its monomial
    for n in (2, 3):
        for a in range(1, 4):
            for b in range(0, min(a, 2) + 1):
                for t in enumerate_ssyt(n, a, b):
                    row = tableau_product(t, n)
                    assert max(row) == tableau_monomial(t, n), t


def test_tableau_product_needs_increasing_columns():
    with pytest.raises(ValueError):
        tableau_product(((1, 1), (1,)), 2)


def test_rbar_character_values():
    char = rbar_character(3, 1, 1, 2)
    assert char == h_trunc(1, 2, 3) * h_trunc(1, 2, 3)
    assert char.dimension() == 9
    assert rbar_character(2, 2, 1, 5) == h(2, 2) * h(1, 2)


def test_iadic_check_agrees_in_hypothesis():
    # every truncated quotient i = 0..b against the Schur character of (a + b - i, i)
    for n, a, b, p in ((3, 2, 1, 2), (2, 3, 1, 3)):
        assert a - b >= p - 1
        slices = slice_characters(n, a, b, range(b + 2), True, p)
        assert sorted(slices) == list(range(b + 2))
        for i in range(b + 1):
            assert slices[i] - slices[i + 1] == schur2_trunc(a + b - i, i, p, n), (n, a, b, i)


def test_iadic_check_negative_control():
    # a - b = 0 < p - 1 fails, and the characters genuinely differ
    n, a, b, p = 3, 1, 1, 2
    assert not a - b >= p - 1
    slices = slice_characters(n, a, b, range(b + 2), True, p)
    quotient = slices[0] - slices[1]
    target = schur2_trunc(a + b, 0, p, n)
    assert quotient != target
    assert quotient.dimension() == 6
    assert target.dimension() == 3
    assert (quotient - target).terms()


def test_lead_term_check_truncated():
    status, payload = check_lead_terms(3, 2, 1, 2)
    assert payload["hypothesis_met"]
    assert status == AGREE
    assert payload["expected_count"] == 8
    assert payload["missing"] == []


def test_lead_term_check_matches_classical_at_large_p():
    status, payload = check_lead_terms(3, 2, 1, 11)  # a - b < p - 1
    assert status == OUTSIDE
    assert payload["comparison_agrees"] is True
    assert payload["expected_count"] == len(list(enumerate_ssyt(3, 2, 1)))
    assert payload["expected_count"] == len(list(enumerate_pssyt(3, 2, 1, 11)))


def test_lead_term_small_grid_char_two():
    for n in (2, 3):
        for a in range(1, 4):
            for b in range(0, min(a - 1, 2) + 1):
                status, payload = check_lead_terms(n, a, b, 2)
                assert payload["hypothesis_met"], (n, a, b)
                assert status == AGREE, (n, a, b)


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
    oracle's full matrices, and truncated quotients of two-power passes
    against their differences."""
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
            leads |= {columns[c] for c in pivots}
        slc = ideal_power_slice(n, a, b, i, truncated, p)
        assert leading_monomials(slc) == leads, (n, a, b, i, truncated, p)
    if truncated and b <= a:
        for i in range(b + 1):
            quotient = want[i] - want[i + 1]
            assert filtration_character(n, a, b, i, True, p) == quotient, (n, a, b, p, i)


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
    for n, a, b, p in ((3, 3, 2, 2), (4, 4, 3, 3)):
        expanded.clear()
        fed_when_saturated.clear()
        slice_characters(n, a, b, range(b + 2), True, p)
        # the generators of the blocks the pass builds, one per orbit
        reps = list(decreasing_compositions(a + b, (2 * (p - 1),) * n))
        generators = sum(
            len(specs)
            for i in range(b + 2)
            for specs in generator_specs(n, a, b, i, True, p, reps).values()
        )
        assert len(expanded) == len(set(expanded))
        assert fed_when_saturated and not any(fed_when_saturated)
        assert len(fed_when_saturated) < generators


def test_block_columns_match_the_product_of_monomials():
    # each block lists its columns from its multidegree; the oracle is the
    # whole x * y product grouped by multidegree
    from fpcoh.determinantal import _Block

    rng = random.Random(14)
    cases = [
        (rng.randint(1, 5), rng.randint(0, 4), rng.randint(0, 4), truncated, p)
        for p in (2, 3, 5)
        for truncated in (False, True)
        for _ in range(5)
    ]
    shifted = empty = 0
    for n, a, b, truncated, p in cases:
        cap = p - 1 if truncated else a + b
        want = product_block_columns(n, a, b, cap)
        for i in range(min(a, b) + 1):
            for m, block in ideal_power_slice(n, a, b, i, truncated, p).blocks.items():
                assert block.monomials == want[m], (n, a, b, truncated, p, i, m)
        for m in compositions(a + b, (a + b,) * n):
            columns = _Block(m, a, cap, p).monomials
            assert columns == want.get(m, []), (n, a, b, truncated, p, m)
            shifted += max(m) > cap and bool(columns)  # some x_k starts above 0
            empty += max(m) > 2 * cap
    assert shifted and empty


def full_scan_characters(n, a, b, powers, truncated, p):
    """{i: rank character of the i-th slice} with every multidegree block
    reduced on its own."""
    out = {}
    for i in powers:
        slc = full_scan_slice(n, a, b, i, truncated, p)
        out[i] = LaurentPolynomial(n, {m: block.rank for m, block in slc.blocks.items()})
    return out


def test_orbit_pass_matches_full_scan_beyond_the_oracle():
    # n = 5, 6 lie beyond the matrix oracle above; the full scan reduces
    # every block, the pass one per S_n orbit, and the leading monomials
    # are carried from it to the rest of the orbit
    rng = random.Random(11)
    cases = [
        (n, rng.randint(2, 3), rng.randint(1, 2), truncated, p)
        for n in (5, 6)
        for p in (2, 3, 5)
        for truncated in (False, True)
    ]
    for n, a, b, truncated, p in cases:
        powers = range(min(a, b) + 2)
        want = full_scan_characters(n, a, b, powers, truncated, p)
        got = slice_characters(n, a, b, powers, truncated, p)
        assert got == want, (n, a, b, truncated, p)
        for i in powers:
            scan = full_scan_slice(n, a, b, i, truncated, p)
            slc = ideal_power_slice(n, a, b, i, truncated, p)
            assert slc.blocks.keys() == scan.blocks.keys(), (n, a, b, i, truncated, p)
            assert leading_monomials(slc) == leading_monomials(scan), (n, a, b, i, truncated, p)


def test_carry_reduces_once_per_distinct_column_order(monkeypatch):
    # orbit members whose permuted columns sort the same way share one
    # re-echelonisation; each member's rows equal its own carry
    from fpcoh import determinantal

    calls = []

    def counted(v, pivots, p, load=None):
        calls.append(len(v))
        return reduce_into(v, pivots, p, load)

    monkeypatch.setattr(determinantal, "reduce_into", counted)
    rng = random.Random(23)
    cases = [(n, rng.randint(2, 4), rng.randint(1, 3), truncated, p)
             for n in (3, 4, 5, 6) for p in (2, 3, 5) for truncated in (False, True)]
    cases += [(5, 6, 3, True, 3)]
    members = shared = 0
    for n, a, b, truncated, p in cases:
        i = rng.randint(0, min(a, b))
        calls.clear()
        determinantal._eliminate(n, a, b, [i], truncated, p)
        eliminated = len(calls)
        slc = ideal_power_slice(n, a, b, i, truncated, p)
        want = 0
        for m in decreasing_compositions(a + b, (a + b,) * n):
            if m not in slc.blocks or slc.blocks[m].saturated():
                continue
            block, orders = slc.blocks[m], {}
            for o in orbit(m):
                if o == m:
                    continue
                columns, pivots, order = per_member_carry(block, o)
                assert slc.blocks[o].monomials == columns, (n, a, b, i, truncated, p, o)
                assert slc.blocks[o]._pivots == pivots, (n, a, b, i, truncated, p, o)
                assert slc.blocks[orders.setdefault(order, o)]._pivots is slc.blocks[o]._pivots
                members += 1
            want += block.rank * len(orders)
            shared += len(orders) < sum(o != m for o in orbit(m))
        # one reduction per row of the representative and distinct order
        assert len(calls) - 2 * eliminated == want, (n, a, b, i, truncated, p)
    assert members and shared


def test_truncated_pass_matches_full_scan_across_power_gaps():
    # the truncated slice has no closed form; power lists with gaps make a
    # lower power feed only the columns the power above it left out
    for (a, b), p, powers in product(((3, 3), (4, 3)), (2, 3), ([0, 2, 3], [1, 3])):
        want = full_scan_characters(6, a, b, powers, True, p)
        assert slice_characters(6, a, b, powers, True, p) == want, (a, b, p, powers)
    for (a, b), p, i in product(((3, 3), (4, 3)), (2, 3), (1, 2, 3)):
        scan = full_scan_slice(6, a, b, i, True, p)
        slc = ideal_power_slice(6, a, b, i, True, p)
        assert slc.blocks.keys() == scan.blocks.keys(), (a, b, i, p)
        assert leading_monomials(slc) == leading_monomials(scan), (a, b, i, p)


def test_classical_pass_feeds_only_rows_that_raise_the_rank(monkeypatch):
    # in(I^i) = in(I)^i: each generator's leading monomial is a column the
    # block's span does not lead with yet, so every row fed is kept
    from fpcoh import determinantal

    gains = []
    real_add = determinantal._Block.add

    def add(block, shift, terms):
        rank = block.rank
        real_add(block, shift, terms)
        gains.append(block.rank - rank)

    monkeypatch.setattr(determinantal._Block, "add", add)
    rng = random.Random(16)
    cases = [(6, 3, 3, [0, 1, 2, 3], 2), (5, 4, 3, [1, 3], 3)]
    for _ in range(12):
        n, a, b = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 3)
        powers = rng.sample(range(min(a, b) + 2), rng.randint(1, min(a, b) + 1))
        cases.append((n, a, b, powers, rng.choice((2, 3, 5))))
    for n, a, b, powers, p in cases:
        gains.clear()
        blocks, _ = determinantal._eliminate(n, a, b, powers, False, p)
        assert set(gains) <= {1}, (n, a, b, powers, p)
        assert len(gains) == sum(block.rank for block in blocks.values()), (n, a, b, powers, p)


def test_rank_pass_builds_one_block_per_orbit(monkeypatch):
    from fpcoh import determinantal

    built, fed = [], set()
    real_init = determinantal._Block.__init__
    real_add = determinantal._Block.add

    def init(block, m, a, cap, p):
        built.append(m)
        real_init(block, m, a, cap, p)

    def add(block, shift, terms):
        mono = block.monomials[0]  # a fed block has columns: it is not saturated
        half = len(mono) // 2
        fed.add(tuple(x + y for x, y in zip(mono[:half], mono[half:])))
        real_add(block, shift, terms)

    monkeypatch.setattr(determinantal._Block, "__init__", init)
    monkeypatch.setattr(determinantal._Block, "add", add)
    # (5, 4, 4): 18 orbits of 495 multidegrees, of which I^2 meets 16 and 470
    for n, a, b, powers, truncated, p, orbits, blocks in (
        (5, 4, 4, [2, 3], False, 2, 16, 470),
        (5, 4, 2, [0, 1, 2], True, 3, None, None),
        (6, 3, 2, [1, 2], False, 5, None, None),
    ):
        built.clear()
        slice_characters(n, a, b, powers, truncated, p)
        reps = list(built)
        assert len(reps) == len(set(reps)), (n, a, b)
        assert all(list(m) == sorted(m, reverse=True) for m in reps), (n, a, b)
        every = set()
        for i in powers:
            built.clear()
            fed.clear()
            slc = ideal_power_slice(n, a, b, i, truncated, p)
            # generators go to representatives only; every multidegree of
            # nonzero rank still has its block
            assert fed and fed <= set(built) <= set(reps), (n, a, b, i)
            ranked = {m for m in built if m in slc.blocks}
            assert set(slc.blocks) == {o for m in ranked for o in orbit(m)}, (n, a, b, i)
            every |= set(slc.blocks)
        assert set(reps) == {tuple(sorted(m, reverse=True)) for m in every}, (n, a, b)
        assert len(every) > len(reps)
        if orbits is not None:
            assert (len(reps), len(every)) == (orbits, blocks)


def closed_form_mismatches(cases):
    """The cases (n, a, b, i, p) whose classical leading monomials differ
    from the closed form; each one's classical rank character must match
    the closed form's count per multidegree."""
    from fpcoh import determinantal

    out = []
    for n, a, b, i, p in cases:
        want = classical_leading_monomials(n, a, b, i)
        if determinantal.leading_monomials(ideal_power_slice(n, a, b, i, False, p)) != want:
            out.append((n, a, b, i, p))
        counts = {}
        for mono in want:
            m = tuple(x + y for x, y in zip(mono[:n], mono[n:]))
            counts[m] = counts.get(m, 0) + 1
        assert slice_characters(n, a, b, [i], False, p)[i] == LaurentPolynomial(n, counts)
    return out


def test_classical_leading_monomials_match_the_closed_form(monkeypatch):
    # in(I^i) = in(I)^i for maximal minors reaches n = 6 and 7, beyond the
    # dense oracle; reading the pivots off the wrong end must fail it
    from fpcoh import determinantal

    rng = random.Random(15)
    cases = [(n, a, b, 0, 2) for n, a, b in ((6, 1, 1), (7, 1, 0))]
    for n in (6, 7):
        for _ in range(3):
            a, b = rng.randint(2, 4), rng.randint(1, 3)
            cases.append((n, a, b, rng.randint(1, min(a, b)), rng.choice((2, 3, 5))))
    cases.append((6, 2, 2, 3, 2))  # above min(a, b): empty
    assert closed_form_mismatches(cases) == []

    def reversed_pivots(slc):
        return {b.monomials[-1 - c] for b in slc.blocks.values() for c in b._pivots}

    monkeypatch.setattr(determinantal, "leading_monomials", reversed_pivots)
    assert closed_form_mismatches(cases)
