"""Exact linear algebra against independently written reference code."""

import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from fpcoh.linalg import (
    DENSE_COLUMN_THRESHOLD,
    IntegerMatrix,
    PrimeFieldMatrix,
    is_prime,
    matmul_mod,
    rref_with_order,
    smith_invariants,
)
from helpers import dense_rank, kernel_basis


def reference_rank(rows, p):
    """Row reduction the slow way: pure Python, no pivoting strategy."""
    m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def int_det(rows):
    """Leibniz determinant; only used on tiny matrices."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def determinant_divisor(rows, k):
    """gcd of all k x k minors."""
    nrows, ncols = len(rows), len(rows[0])
    g = 0
    for rs in combinations(range(nrows), k):
        for cs in combinations(range(ncols), k):
            minor = int_det([[rows[i][j] for j in cs] for i in rs])
            g = math.gcd(g, minor)
    return g


def test_is_prime():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2_147_483_647)


def test_matrix_validation():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(4, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2**31, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(5, np.zeros(3, dtype=np.int64))


def test_entries_reduced_and_copy_safe():
    m = PrimeFieldMatrix(5, np.array([[-1, 7], [10, 3]], dtype=np.int64))
    assert m.row_lists() == [[4, 2], [0, 3]]
    arr = m.to_array()
    arr[0, 0] = 1  # a copy; the matrix itself stays frozen
    assert m.entry(0, 0) == 4


def test_rank_small_hand_cases():
    m = PrimeFieldMatrix(2, np.array([[1, 1], [1, 1]], dtype=np.int64))
    assert m.rank() == 1
    m = PrimeFieldMatrix(3, np.array([[1, 2], [2, 1]], dtype=np.int64))
    assert m.rank() == 1  # determinant -3 vanishes mod 3
    m = PrimeFieldMatrix(5, np.array([[1, 2], [2, 1]], dtype=np.int64))
    assert m.rank() == 2
    # 2x2 with determinant divisible by p only
    m = PrimeFieldMatrix(5, np.array([[1, 2], [3, 6]], dtype=np.int64))
    assert m.rank() == 1
    assert PrimeFieldMatrix(7, [[0] * 3] * 4).rank() == 0


def test_rank_matches_reference_on_random_grid():
    rng = random.Random(20260817)
    for p in (2, 3, 5, 7, 97):
        for _ in range(60):
            nrows = rng.randint(0, 10)
            ncols = rng.randint(0, 10)
            rows = [[rng.randint(-30, 30) for _ in range(ncols)] for _ in range(nrows)]
            arr = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
            got = PrimeFieldMatrix(p, arr).rank()
            assert got == reference_rank(rows, p), (p, rows)


def test_sparse_and_dense_paths_agree():
    """Seeded sparse matrices, narrow and wider than DENSE_COLUMN_THRESHOLD
    (the tracer's dense and sparse labels), against the numpy oracle."""
    rng = random.Random(11)

    def check(p, nrows, ncols):
        arr = np.zeros((nrows, ncols), dtype=np.int64)
        for _ in range(rng.randint(0, nrows * ncols // 2)):
            arr[rng.randrange(nrows), rng.randrange(ncols)] = rng.randint(1, p - 1)
        assert PrimeFieldMatrix(p, arr).rank() == dense_rank(arr, p)

    for p in (2, 5):
        for _ in range(25):
            check(p, rng.randint(1, 30), rng.randint(1, 30))
    for p in (2, 5):
        for _ in range(4):
            check(p, rng.randint(1, 60), DENSE_COLUMN_THRESHOLD + rng.randint(0, 100))


def test_wide_matrix_uses_sparse_path_and_is_correct():
    rng = random.Random(7)
    ncols = DENSE_COLUMN_THRESHOLD + 40
    rows = [[0] * ncols for _ in range(18)]
    for r in range(18):
        for _ in range(9):
            rows[r][rng.randrange(ncols)] = rng.randint(1, 6)
    m = PrimeFieldMatrix(7, np.array(rows, dtype=np.int64))
    assert m.rank() == reference_rank(rows, 7)


def test_rank_free_function_and_caching():
    arr = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    m = PrimeFieldMatrix(5, arr)
    assert m.rank() == 2
    assert m.cols - m.rank() == 1
    assert m.rows - m.rank() == 1


def test_kernel_basis_spans_kernel():
    rng = random.Random(3)
    for p in (2, 3, 7):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            arr = np.array(
                [[rng.randint(0, p - 1) for _ in range(ncols)] for _ in range(nrows)],
                dtype=np.int64,
            )
            m = PrimeFieldMatrix(p, arr)
            basis = kernel_basis(m)
            assert len(basis) == ncols - m.rank()
            for v in basis:
                prod = arr @ np.array(v, dtype=np.int64)
                assert np.all(prod % p == 0)
            if basis:
                stacked = PrimeFieldMatrix(p, np.array(basis, dtype=np.int64))
                assert stacked.rank() == len(basis)


def test_rref_with_order_pivots():
    arr = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    m = PrimeFieldMatrix(2, arr)
    red, pivots = rref_with_order(m, [0, 1, 2])
    assert pivots == [0, 1]
    # reversed column preference changes which columns carry pivots
    red2, pivots2 = rref_with_order(m, [2, 1, 0])
    assert pivots2 == [2, 1]
    assert red.rank() == red2.rank() == 2
    with pytest.raises(ValueError):
        rref_with_order(m, [0, 1])


def test_rref_is_reduced():
    rng = random.Random(5)
    for _ in range(20):
        arr = np.array(
            [[rng.randint(0, 4) for _ in range(6)] for _ in range(4)], dtype=np.int64
        )
        m = PrimeFieldMatrix(5, arr)
        red, pivots = rref_with_order(m, list(range(6)))
        data = red.to_array()
        for r, c in enumerate(pivots):
            assert data[r, c] == 1
            col = data[:, c]
            assert int(col.sum()) == 1  # pivot column is a unit vector


def test_matmul_mod_against_python_ints():
    rng = random.Random(99)
    p = 2_147_483_647  # largest allowed prime, forces small chunks
    a = [[rng.randint(0, p - 1) for _ in range(9)] for _ in range(7)]
    b = [[rng.randint(0, p - 1) for _ in range(5)] for _ in range(9)]
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    for i in range(7):
        for j in range(5):
            want = sum(a[i][k] * b[k][j] for k in range(9)) % p
            assert got[i, j] == want


def test_integer_matrix_basics():
    m = IntegerMatrix([[0] * 3] * 2)
    assert m.row_lists() == [[0, 0, 0], [0, 0, 0]]
    m = IntegerMatrix(((1, -2), (0, 4)))
    assert m.shape == (2, 2) and m.entry(0, 1) == -2


def test_smith_hand_cases():
    assert smith_invariants(IntegerMatrix(((2, 0), (0, 3)))) == (1, 6)
    assert smith_invariants(IntegerMatrix(((4, 6), (6, 9)))) == (1, 0)
    assert smith_invariants(IntegerMatrix(((0, 0), (0, 0)))) == (0, 0)
    assert smith_invariants(IntegerMatrix(((6,),))) == (6,)


def test_smith_matches_determinant_divisors():
    rng = random.Random(42)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        inv = smith_invariants(IntegerMatrix(tuple(map(tuple, rows))))
        assert len(inv) == min(nrows, ncols)
        # divisibility chain, zeros trailing
        for a, b in zip(inv, inv[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        prod = 1
        for k, dk in enumerate(inv, start=1):
            prod *= dk
            assert prod == determinant_divisor(rows, k)


def test_smith_size_limit():
    big = IntegerMatrix([[0, 0]] * 201)
    with pytest.raises(ValueError):
        smith_invariants(big)


def test_constructor_copies_the_callers_array():
    entries = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = PrimeFieldMatrix(5, entries)
    entries[0, 0] = 4
    entries[1] = 0
    assert m.row_lists() == [[1, 2], [3, 4]]
    assert m.rank() == 2


def test_from_reduced_takes_the_array_read_only():
    data = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    m = PrimeFieldMatrix.from_reduced(3, data)
    assert m == PrimeFieldMatrix(3, [[1, 0, 2], [0, 1, 1]])
    with pytest.raises(ValueError):
        data[0, 0] = 2
    with pytest.raises(ValueError, match="not prime"):
        PrimeFieldMatrix.from_reduced(4, np.zeros((1, 1), dtype=np.int64))
