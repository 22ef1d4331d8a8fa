"""Binomials, digit sets, tableaux."""

import math
import random
from itertools import combinations, permutations, product

import pytest

from fpcoh.combinatorics import (
    TwoRowTableau,
    binom_int,
    compositions,
    decreasing_compositions,
    enumerate_A,
    enumerate_pssyt,
    enumerate_ssyt,
    nim_sum,
    orbit,
    p_index,
    p_index_total,
)
from helpers import interval_data, is_p_semistandard, recursive_compositions


def is_semistandard(t):
    """Weakly increasing rows and strictly increasing columns."""
    u, v = t.top, t.bottom
    if any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        return False
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        return False
    return all(u[i] < v[i] for i in range(len(v)))


def falling_binom(m, k):
    num = 1
    for i in range(k):
        num *= m - i
    return num // math.factorial(k)


def test_binom_int_matches_falling_factorial():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randint(-40, 40)
        k = rng.randint(0, 12)
        assert binom_int(m, k) == falling_binom(m, k), (m, k)
    with pytest.raises(ValueError):
        binom_int(5, -1)
    assert binom_int(0, 0) == 1


def test_binom_negative_top_reflection():
    for m in range(-30, 0):
        for k in range(8):
            assert binom_int(m, k) == (-1) ** k * binom_int(-m + k - 1, k)


def test_binom_periodicity_mod_p():
    # adding p^r to the top does not change the value mod p when k < p^r
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(80):
            r = rng.randint(1, 3)
            q = p**r
            m = rng.randint(-50, 200)
            k = rng.randint(0, q - 1)
            assert binom_int(m + q, k) % p == binom_int(m, k) % p, (m, k, p, r)


def filtered_product(total, caps):
    return [v for v in product(*(range(c + 1) for c in caps)) if sum(v) == total]


def test_compositions_match_filtered_product():
    cases = [(0, ()), (1, ()), (-1, ()), (0, (0, 0)), (1, (0, 0)), (2, (0, 3, 0)),
             (6, (1, 2, 3)), (7, (1, 2, 3)), (-1, (2, 2)), (3, (3,))]
    rng = random.Random(4)
    for _ in range(300):
        caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
        cases.append((rng.randint(-2, sum(caps) + 2), caps))
    for total, caps in cases:
        assert list(compositions(total, caps)) == filtered_product(total, caps), (total, caps)


def test_compositions_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        total=st.integers(-3, 16),
        caps=st.lists(st.integers(0, 5), max_size=5).map(tuple),
    )
    def check(total, caps):
        assert list(compositions(total, caps)) == filtered_product(total, caps)

    check()


def test_compositions_match_recursive_oracle():
    # beyond the sizes filtered_product can list: up to 8 parts, caps up to 7
    capses = [(), (0,), (4, 0, 2, 3), (0, 0, 0), (7,), (2, 2, 2, 2, 2, 2, 2, 2)]
    rng = random.Random(12)
    capses += [tuple(rng.randint(0, 7) for _ in range(rng.randint(1, 8))) for _ in range(60)]
    for caps in capses:
        for total in range(-1, 10):
            assert list(compositions(total, caps)) == list(
                recursive_compositions(total, caps)), (total, caps)
    for _ in range(20):  # totals near the top of the range as well
        caps = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 7)))
        total = rng.randint(sum(caps) - 3, sum(caps) + 1)
        assert list(compositions(total, caps)) == list(
            recursive_compositions(total, caps)), (total, caps)


def test_orbit_is_the_sorted_distinct_permutations():
    for n in range(7):
        for parts in product(range(3), repeat=n):
            assert orbit(parts) == sorted(set(permutations(parts))), parts
    rng = random.Random(8)
    for _ in range(10):
        parts = tuple(rng.randint(-2, 3) for _ in range(8))
        assert orbit(parts) == sorted(set(permutations(parts))), parts
    assert orbit((5, 5, 5)) == [(5, 5, 5)]


def test_orbit_walk_expands_to_compositions():
    # the representatives are the weakly decreasing compositions, in
    # compositions' order; their orbits, each ascending and duplicate-free,
    # partition the compositions with equal caps
    rng = random.Random(7)
    cases = [(0, 0, 0), (1, 0, 3), (-1, 3, 2), (0, 3, 2), (7, 3, 2), (6, 3, 2)]
    cases += [(rng.randint(-1, 12), rng.randint(1, 5), rng.randint(0, 5)) for _ in range(150)]
    for total, n, cap in cases:
        caps = (cap,) * n
        full = list(compositions(total, caps))
        reps = list(decreasing_compositions(total, caps))
        assert reps == [c for c in full if list(c) == sorted(c, reverse=True)], (total, n, cap)
        members = [list(orbit(r)) for r in reps]
        for r, ms in zip(reps, members):
            assert ms == sorted(set(permutations(r))), r
        assert sorted(m for ms in members for m in ms) == full, (total, n, cap)
    for _ in range(100):  # unequal caps: still the weakly decreasing members
        caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
        total = rng.randint(-1, sum(caps) + 1)
        full = filtered_product(total, caps)
        assert list(decreasing_compositions(total, caps)) == [
            c for c in full if list(c) == sorted(c, reverse=True)
        ], (total, caps)


def test_nim_sum():
    assert nim_sum([]) == 0
    assert nim_sum([5]) == 5
    assert nim_sum([1, 2, 3]) == 0
    assert nim_sum([7, 7]) == 0


def test_p_index_values():
    # m = p*a + b with b in {0, 1} maps to 2a + b
    assert [p_index(m, 2) for m in range(6)] == [0, 1, 2, 3, 4, 5]
    assert p_index(0, 3) == 0
    assert p_index(1, 3) == 1
    assert p_index(3, 3) == 2
    assert p_index(4, 3) == 3
    assert p_index(6, 3) == 4
    assert p_index(7, 3) == 5
    for bad in (2, 5, 8):
        with pytest.raises(ValueError):
            p_index(bad, 3)
    assert p_index_total((1, 1), 3) == 2
    assert p_index_total((4,), 3) == 3
    assert p_index_total((), 3) == 0


def brute_A(p, d):
    if d == 0:
        return {()}
    digits = [v for v in range(d + 1) if v % p in (0, 1)]
    max_len = 1
    while p**max_len <= d:
        max_len += 1
    out = set()
    for length in range(1, max_len + 1):
        for combo in product(digits, repeat=length):
            if combo[-1] == 0:
                continue
            if sum(c * p**i for i, c in enumerate(combo)) == d:
                out.add(combo)
    return out


def test_enumerate_A_hand_values():
    assert set(enumerate_A(2, 4)) == {(0, 0, 1), (0, 2), (2, 1), (4,)}
    assert set(enumerate_A(3, 4)) == {(1, 1), (4,)}
    assert enumerate_A(2, 0) == [()]
    assert enumerate_A(5, 3) == []  # 3 is a forbidden digit mod 5
    assert enumerate_A(5, 5) == [(0, 1), (5,)]  # digit 5 is 0 mod 5
    assert enumerate_A(5, 6) == [(1, 1), (6,)]
    assert enumerate_A(3, 2) == []  # 2 is a forbidden digit and 2 < 3


def test_enumerate_A_against_brute_force():
    for p in (2, 3, 5):
        for d in range(0, 13):
            assert set(enumerate_A(p, d)) == brute_A(p, d), (p, d)


def test_interval_data_component_convention():
    w = (1, 1, 1, 1)
    # full edge set, removing the middle edge
    assert interval_data(w, {1, 2, 3}, 2) == (4, 2, 0)
    # edge 3 sits in its own component {3}; edge 1 does not extend it
    assert interval_data(w, {1, 3}, 3) == (2, 1, 1)
    assert interval_data(w, {1, 3}, 1) == (2, 1, 0)
    w = (2, 1, 1)
    assert interval_data(w, {2}, 2) == (2, 1, 1)
    assert interval_data(w, {1, 2}, 1) == (4, 2, 0)
    assert interval_data(w, {1, 2}, 2) == (4, 1, 0)
    with pytest.raises(ValueError):
        interval_data(w, {1, 2}, 3)
    with pytest.raises(ValueError):
        interval_data(w, {0, 1}, 1)


def test_tableau_shape_and_weight():
    t = TwoRowTableau((1, 1, 2), (2, 3))
    assert t.shape == (3, 2)
    assert t.weight(3) == (2, 2, 1)
    with pytest.raises(ValueError):
        TwoRowTableau((1,), (1, 2))  # bottom longer than top


def test_is_semistandard():
    assert is_semistandard(TwoRowTableau((1, 1, 2), (2, 2)))
    assert not is_semistandard(TwoRowTableau((1, 2), (2, 1)))  # bottom decreasing
    assert not is_semistandard(TwoRowTableau((1, 2), (1, 3)))  # column not strict
    assert not is_semistandard(TwoRowTableau((2, 1), (3, 3)))  # top decreasing


def test_enumerate_ssyt_counts():
    # two-row dimension formula: column-strict pairs of weak words
    def count(n, a, b):
        total = 0
        for u in product(range(1, n + 1), repeat=a):
            if any(u[i] > u[i + 1] for i in range(a - 1)):
                continue
            for v in product(range(1, n + 1), repeat=b):
                if any(v[i] > v[i + 1] for i in range(b - 1)):
                    continue
                if all(u[i] < v[i] for i in range(b)):
                    total += 1
        return total

    for n in (1, 2, 3):
        for a in range(0, 4):
            for b in range(0, a + 1):
                tabs = enumerate_ssyt(n, a, b)
                assert len(tabs) == count(n, a, b), (n, a, b)
                assert len(set(tabs)) == len(tabs)
                assert all(is_semistandard(t) for t in tabs)


def test_pssyt_three_two_one():
    classical = set(enumerate_ssyt(3, 2, 1))
    relaxed = set(enumerate_pssyt(3, 2, 1, 3))
    extra = {TwoRowTableau((i, i), (i,)) for i in (1, 2, 3)}
    assert relaxed == classical | extra


def test_pssyt_rules_directly():
    # run lengths in either row are capped at p-1
    t = TwoRowTableau((1, 1, 1), ())
    assert is_p_semistandard(t, 4)
    assert not is_p_semistandard(t, 3)
    # equal column needs long enough runs around it
    t = TwoRowTableau((1, 2), (2,))
    assert is_p_semistandard(t, 3)
    t = TwoRowTableau((2, 2), (2,))
    assert is_p_semistandard(t, 3)  # run of 2 in top + 1 in bottom
    assert not is_p_semistandard(t, 4)  # 3 = 2+1 < 4
    # classical tableaux stay valid when p exceeds every run
    for t in enumerate_ssyt(3, 3, 2):
        assert is_p_semistandard(t, 5)


def conjugate_two_column_count(n, a, b):
    """Column-strict fillings of the transposed shape: first column length a,
    second length b, rows weakly increasing."""
    total = 0
    for c1 in combinations(range(1, n + 1), a):
        for c2 in combinations(range(1, n + 1), b):
            if all(c1[i] <= c2[i] for i in range(b)):
                total += 1
    return total


def test_pssyt_p2_transpose_count():
    for n in range(1, 5):
        for a in range(0, min(n, 4) + 1):
            for b in range(0, a + 1):
                got = len(enumerate_pssyt(n, a, b, 2))
                assert got == conjugate_two_column_count(n, a, b), (n, a, b)


def test_pssyt_reduces_to_classical_for_large_p():
    for n in (2, 3):
        for a in range(0, 4):
            for b in range(0, a + 1):
                assert set(enumerate_pssyt(n, a, b, 11)) == set(enumerate_ssyt(n, a, b))
