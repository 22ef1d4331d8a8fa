"""Weighted path complexes: construction, homology, reductions, bookkeeping."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from fpcoh import complexes, linalg
from fpcoh.complexes import (
    ChainComplex,
    PoincarePolynomial,
    WeightSequence,
    build_complex,
    check_involution,
    check_stable_periodicity_hook,
    homology_dims,
    min_power_exceeding,
    poincare_formula_all_ones,
    ses_dimension_check,
    stable_hook_cohomology,
)
from fpcoh.combinatorics import binom_int
from fpcoh.linalg import DENSE_COLUMN_THRESHOLD, chain_ranks, matmul_mod
from fpcoh.verdicts import AGREE
from helpers import dense_rank, interval_data


def test_weight_sequence_validation():
    WeightSequence.of((1, 1, 1))
    WeightSequence.of((-5, 1, 1))
    with pytest.raises(ValueError):
        WeightSequence.of((1, -1, 1))  # only the leading weight may be negative
    with pytest.raises(ValueError):
        WeightSequence.of(())
    ws = WeightSequence.of((2, 1, 1, 1))
    assert ws.d == 3
    assert ws.total() == 5
    assert ws.tail_total() == 3


def test_poincare_polynomial_equality_ignores_trailing_zeros():
    assert PoincarePolynomial((1, 1, 0)) == PoincarePolynomial((1, 1))
    assert PoincarePolynomial((0,)) == PoincarePolynomial(())
    assert str(PoincarePolynomial((1, 0, 2))) == "1 + 2*t^2"
    assert str(PoincarePolynomial((0, 0))) == "0"
    assert PoincarePolynomial((1, 2)).total() == 3


def test_unit_weights_integer_matrices():
    cx = build_complex((1, 1, 1, 1))
    assert cx.dimensions() == (1, 3, 3, 1)
    assert cx.differential(1).row_lists() == [[2, -2, 2]]
    assert cx.differential(2).row_lists() == [[3, -2, 0], [3, 0, -3], [0, 2, -3]]
    assert cx.differential(3).row_lists() == [[4], [6], [4]]


def test_unit_weights_reversed_basis_presentation():
    # flipping both basis orders gives the same complex written
    # top-degree-first; a fixed reference presentation of the middle map
    cx = build_complex((1, 1, 1, 1))
    rows = cx.differential(2).row_lists()
    flipped = [list(reversed(r)) for r in reversed(rows)]
    assert flipped == [[-3, 2, 0], [-3, 0, 3], [0, -2, 3]]


def test_basis_masks_increasing():
    cx = build_complex((1, 1, 1, 1))
    assert cx.basis(0) == (0,)
    assert cx.basis(1) == (0b001, 0b010, 0b100)
    assert cx.basis(2) == (0b011, 0b101, 0b110)
    assert cx.basis(3) == (0b111,)


def test_homology_unit_weights_all_primes():
    expected = {
        2: (1, 1, 1, 1),
        3: (0, 1, 1, 0),
        5: (0, 0, 0, 0),
        7: (0, 0, 0, 0),
        11: (0, 0, 0, 0),
    }
    for p, coeffs in expected.items():
        hom = homology_dims(build_complex((1, 1, 1, 1), p))
        assert hom == PoincarePolynomial(coeffs), p


def test_formula_matches_brute_force_small_grid():
    for d in range(0, 10):
        for p in (2, 3, 5):
            brute = homology_dims(build_complex((1,) * (d + 1), p))
            formula = poincare_formula_all_ones(d, p)
            assert brute == formula, (d, p)


def test_square_zero_on_random_weights():
    rng = random.Random(2026)
    for _ in range(40):
        d = rng.randint(1, 6)
        w0 = rng.randint(-8, 8)
        w = (w0,) + tuple(rng.randint(0, 4) for _ in range(d))
        p = rng.choice([2, 3, 5, 7])
        cx = build_complex(w, p)  # build_complex checks d∘d = 0 internally
        for k in range(2, d + 1):
            a = cx.differential(k - 1).to_array()
            b = cx.differential(k).to_array()
            assert not matmul_mod(a, b, p).any(), (w, p, k)


def test_square_zero_over_integers():
    rng = random.Random(7)
    for _ in range(15):
        d = rng.randint(1, 5)
        w = (rng.randint(-6, 6),) + tuple(rng.randint(0, 3) for _ in range(d))
        cx = build_complex(w)
        for k in range(2, d + 1):
            a = cx.differential(k - 1).row_lists()
            b = cx.differential(k).row_lists()
            prod = [
                [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))
            ]
            assert all(all(x == 0 for x in row) for row in prod), (w, k)


def _oracle_boundary(w, k):
    """Dense d_k over Z, entry by entry from interval_data and binom_int."""
    d = len(w) - 1
    basis = [[m for m in range(1 << d) if bin(m).count("1") == n] for n in (k - 1, k)]
    rows = [[0] * len(basis[1]) for _ in basis[0]]
    for c, mask in enumerate(basis[1]):
        edges = [j for j in range(1, d + 1) if (mask >> (j - 1)) & 1]
        for j in edges:
            total, right, sign_exponent = interval_data(w, edges, j)
            rows[basis[0].index(mask ^ (1 << (j - 1)))][c] = (
                (-1) ** sign_exponent * binom_int(total, right)
            )
    return rows


def test_boundaries_match_entry_oracle():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 6)
        w = (rng.randint(-12, 8),) + tuple(rng.randint(0, 4) for _ in range(d))
        for p in (None, rng.choice([2, 3, 5, 7])):
            cx = build_complex(w, p)
            for k in range(1, d + 1):
                expected = _oracle_boundary(w, k)
                if p is not None:
                    expected = [[x % p for x in row] for row in expected]
                assert cx.differential(k).row_lists() == expected, (w, p, k)


def test_boundaries_match_entry_oracle_at_the_int64_edge():
    # residues near 2**31 make the d∘d products near 2**62
    rng = random.Random(2**31 - 1)
    p = 2**31 - 1
    for d in [rng.randint(1, 9) for _ in range(10)] + [9, 9]:
        w = (rng.randint(-30, 9),) + tuple(rng.randint(0, 5) for _ in range(d))
        cx = build_complex(w, p)
        matrices = _differentials(cx)
        for k, m in enumerate(matrices, 1):
            expected = [[x % p for x in row] for row in _oracle_boundary(w, k)]
            assert m.row_lists() == expected, (w, k)
        assert cx.ranks() == tuple(dense_rank(m.to_array(), p) for m in matrices), w


def _differentials(cx):
    return [cx.differential(k) for k in range(1, cx.d + 1)]


def test_square_zero_check_catches_a_wrong_coefficient(monkeypatch):
    w = (2, 1, 1, 1)
    honest = build_complex(w)
    monkeypatch.setattr(
        "fpcoh.complexes.binom_int",
        lambda m, k: binom_int(m, k) + ((m, k) == (4, 2)),
    )
    for p in (None, 2, 3, 5, 7):
        with pytest.raises(AssertionError, match="nonzero at degree"):
            build_complex(w, p)
    # with the check switched off the same wrong complex builds
    monkeypatch.setattr(complexes, "_verify_square_zero", lambda cx: None)
    assert _differentials(build_complex(w)) != _differentials(honest)
    for p in (None, 2, 3, 5, 7):
        build_complex(w, p)


def test_square_zero_check_catches_a_wrong_row():
    for p in (None, 2, 3, 5, 7):
        cx = build_complex((2, 1, 1, 1, 1), p)
        _, offsets = complexes._masks_by_size(cx.d)
        # the first column of d_3 with an entry and a row of degree 2 it misses
        for c in range(offsets[3], offsets[4]):
            start, stop = cx.indptr[c], cx.indptr[c + 1]
            free = set(range(offsets[2], offsets[3])) - set(cx.rows[start:stop].tolist())
            if start < stop and free:
                break
        cx.rows[start] = min(free)
        with pytest.raises(AssertionError, match="nonzero at degree 3"):
            complexes._verify_square_zero(cx)


def test_ranks_match_dense_elimination():
    rng = random.Random(8)
    for _ in range(150):
        d = rng.randint(1, 9)
        w = (rng.randint(-12, 8),) + tuple(rng.randint(0, 4) for _ in range(d))
        p = rng.choice([2, 3, 5, 7, 97])
        cx = build_complex(w, p)
        expected = tuple(dense_rank(m.to_array(), p) for m in _differentials(cx))
        assert cx.ranks() == expected, (w, p)


@pytest.mark.parametrize("p", [2, 3])
def test_all_ones_wide_ranks_match_dense_elimination(p):
    cx = build_complex((1,) * 13, p)
    matrices = _differentials(cx)
    assert max(m.cols for m in matrices) >= DENSE_COLUMN_THRESHOLD
    assert cx.ranks() == tuple(dense_rank(m.to_array(), p) for m in matrices)


def test_ranks_run_once_per_complex(monkeypatch):
    calls = []
    monkeypatch.setattr(complexes, "chain_ranks",
                        lambda columns, p: calls.append(p) or chain_ranks(columns, p))
    cx = build_complex((1,) * 6, 3)
    homology_dims(cx)
    assert cx.ranks() == cx.ranks()
    assert calls == [3]


def test_all_ones_d12_homology_stays_small():
    tracemalloc.start()
    try:
        homology_dims(build_complex((1,) * 13, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_all_ones_d14_homology_stays_within_80_bytes_per_nonzero():
    d = 14
    complexes._masks_by_size.cache_clear()  # the per-d structure counts too
    complexes._boundary_structure.cache_clear()
    tracemalloc.start()
    try:
        homology_dims(build_complex((1,) * (d + 1), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 80 * d * 2 ** (d - 1), peak


def test_oversized_complex_is_refused_before_enumeration(monkeypatch):
    # any enumeration would fail
    monkeypatch.setattr(complexes, "_masks_by_size", None)
    monkeypatch.setattr(complexes, "_boundary_structure", None)
    with pytest.raises(ValueError, match="over the budget"):
        build_complex((1,) * 41, 2)
    d = 19
    assert d * 2 ** (d - 1) <= complexes.MAX_COMPLEX_NONZEROS


def test_modulus_is_checked_once_per_prime(monkeypatch):
    calls = []
    prime = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda p: calls.append(p) or prime(p))
    linalg.check_modulus.cache_clear()
    try:
        for w in ((1,) * 12, (3, 1, 2)):
            build_complex(w, 2**31 - 1)
        assert calls == [2**31 - 1]
        with pytest.raises(ValueError, match="not prime"):
            build_complex((1, 1), 9)
        with pytest.raises(ValueError, match="not prime"):
            build_complex((1, 1), 9)
    finally:
        linalg.check_modulus.cache_clear()


def test_negative_head_weight_entries():
    # binomials with negative tops appear verbatim in the matrices
    cx = build_complex((-3, 1))
    assert cx.differential(1).row_lists() == [[-2]]  # C(-2, 1)
    cx = build_complex((-3, 2))
    assert cx.differential(1).row_lists() == [[math.comb(2, 2)]]  # C(-1,2) = +1


def test_rank_requires_prime_field():
    cx = build_complex((1, 1, 1))
    with pytest.raises(ValueError):
        cx.ranks()


def lucas_reduce(w, p):
    """Strip powers of p from the leading weight while some p^r exceeds the
    tail sum, largest power first.  Homology over Z/p is unchanged."""
    ws = WeightSequence.of(w)
    if ws.entries[0] < 0:
        raise ValueError("leading weight must be non-negative for reduction")
    head = ws.entries[0]
    tail = ws.tail_total()
    while head > tail and head > 0:
        q = 1
        while q * p <= head:
            q *= p
        if q <= tail:
            break
        head -= q
    return WeightSequence((head,) + ws.entries[1:])


def test_lucas_reduce_hand_cases():
    assert tuple(lucas_reduce((9, 1, 1, 1), 2)) == (1, 1, 1, 1)
    assert tuple(lucas_reduce((1, 1), 5)) == (1, 1)  # no admissible power
    assert tuple(lucas_reduce((4, 1), 3)) == (1, 1)
    assert tuple(lucas_reduce((3, 1), 3)) == (0, 1)  # 3 > tail sum, so it strips
    assert tuple(lucas_reduce((100, 1, 1), 2)) == (0, 1, 1)


def test_lucas_reduce_preserves_homology():
    rng = random.Random(4)
    for _ in range(25):
        p = rng.choice([2, 3])
        d = rng.randint(1, 5)
        w0 = rng.randint(0, 40)
        w = (w0,) + (1,) * d
        reduced = tuple(lucas_reduce(w, p))
        before = homology_dims(build_complex(w, p))
        after = homology_dims(build_complex(reduced, p))
        assert before == after, (w, p, reduced)


def test_min_power_exceeding():
    assert min_power_exceeding(2, 7) == 8
    assert min_power_exceeding(2, 8) == 16
    assert min_power_exceeding(3, 1) == 3
    assert min_power_exceeding(5, 0) == 1


def test_involution_small_grid():
    for w0 in range(1, 4):
        for d in range(0, 5):
            for p in (2, 3):
                _, payload = check_involution(w0, d, p)
                assert payload["agree_ranks"], (w0, d, p)
                assert payload["shift"] == min_power_exceeding(p, w0 + 2 * d)
                assert payload["ranks_negated"] == payload["ranks_shifted"]


def test_involution_refuses_negative_d():
    with pytest.raises(ValueError, match="d = -1"):
        check_involution(1, -1, 2)


def test_involution_smith_invariants():
    status, payload = check_involution(2, 1, 3)
    assert payload["smith_direct"] == [[3]]
    assert payload["smith_negated"] == [[3]]
    assert payload["agree_smith"] is True
    assert status == AGREE


def test_involution_payload_shape():
    _, payload = check_involution(1, 2, 2)
    assert set(payload) >= {
        "shift",
        "dimensions",
        "ranks_direct",
        "ranks_negated",
        "ranks_shifted",
        "agree_ranks",
    }


def test_ses_bookkeeping_unit_weights():
    status, payload = ses_dimension_check((1, 1, 1, 1), 1, 2)
    assert status == AGREE
    euler = payload["euler"]
    assert euler["total"] == euler["tensor"] - euler["merged"]
    assert all(row["ok"] for row in payload["dimensions"])


def test_ses_bookkeeping_random():
    rng = random.Random(12)
    for _ in range(15):
        d = rng.randint(1, 5)
        w = (rng.randint(-4, 4),) + tuple(rng.randint(0, 3) for _ in range(d))
        split = rng.randint(0, d - 1)
        p = rng.choice([2, 3, 5])
        status, _ = ses_dimension_check(w, split, p)
        assert status == AGREE, (w, split, p)


def test_ses_split_bounds():
    with pytest.raises(ValueError):
        ses_dimension_check((1, 1, 1), 2, 2)
    with pytest.raises(ValueError):
        ses_dimension_check((1, 1, 1), -1, 2)


def test_stable_hooks_display_values():
    assert stable_hook_cohomology(1, 3, 2) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert stable_hook_cohomology(1, 3, 3) == {1: 0, 2: 1, 3: 1, 4: 0}
    for w0 in range(1, 7):
        for p in (2, 3, 5):
            assert stable_hook_cohomology(w0, 0, p) == {w0: 1}


def test_stable_hook_validation():
    with pytest.raises(ValueError):
        stable_hook_cohomology(0, 2, 2)


def test_periodicity_requires_large_power():
    with pytest.raises(ValueError):
        check_stable_periodicity_hook(1, 4, 2, 2)  # 4 = 2^2 is not > 4
    status, payload = check_stable_periodicity_hook(1, 3, 2, 2)
    assert payload["q"] == 4
    assert status == AGREE


def test_periodicity_samples():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.choice([2, 3])
        d = rng.randint(0, 5)
        r = 0
        while p**r <= d:
            r += 1
        r += rng.randint(0, 1)
        w0 = rng.randint(1, 6)
        status, _ = check_stable_periodicity_hook(w0, d, p, r)
        assert status == AGREE, (w0, d, p, r)
