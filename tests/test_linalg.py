"""Exact linear algebra against independently written reference code."""

import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from fpcoh import linalg
from fpcoh.linalg import (
    DENSE_COLUMN_THRESHOLD,
    PrimeFieldMatrix,
    chain_ranks,
    is_prime,
    matmul_mod,
    rref_with_order,
    smith_invariants,
)
from helpers import dense_rank, kernel_basis, trial_division_is_prime


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


def test_is_prime_matches_trial_division():
    # exact below 3 215 031 751; the composite 25 326 001 passes the bases
    # 2, 3 and 5, and 46 337**2 is the largest square of a prime below 2**31
    assert [q for q in range(10**5) if is_prime(q)] == [
        q for q in range(10**5) if trial_division_is_prime(q)]
    rng = random.Random(16)
    near = [2**31 - 1 - rng.randrange(10**6) for _ in range(300)]
    for q in near + [25_326_001, 46_337**2, 2**31 - 1]:
        assert is_prime(q) == trial_division_is_prime(q), q
    assert not is_prime(25_326_001)
    assert sum(map(is_prime, near)) > 5


def test_matrix_validation():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(4, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2**31, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(5, np.zeros(3, dtype=np.int64))


def test_entries_reduced_and_copy_safe():
    m = PrimeFieldMatrix(5, np.array([[-1, 7], [10, 3]], dtype=np.int64))
    assert m.to_array().tolist() == [[4, 2], [0, 3]]
    arr = m.to_array()
    arr[0, 0] = 1  # a copy; the matrix itself stays frozen
    assert m.to_array()[0, 0] == 4


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


def test_smith_hand_cases():
    assert smith_invariants([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariants(((4, 6), (6, 9))) == (1, 0)
    assert smith_invariants([[0, 0], [0, 0]]) == (0, 0)
    assert smith_invariants([[6]]) == (6,)
    assert smith_invariants([[0] * 3] * 2) == (0, 0)


def test_smith_degenerate_inputs():
    assert smith_invariants([]) == ()
    assert smith_invariants([[]]) == ()
    assert smith_invariants([[], []]) == ()
    with pytest.raises(ValueError, match="ragged rows"):
        smith_invariants([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        smith_invariants([[], [1]])


def test_smith_leaves_the_callers_rows_alone():
    rows = [[4, 6], [6, 9]]
    assert smith_invariants(rows) == (1, 0)
    assert rows == [[4, 6], [6, 9]]


def test_smith_matches_determinant_divisors():
    rng = random.Random(42)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        inv = smith_invariants(rows)
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


def test_smith_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(300)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice([1, 2, 6])  # a common factor makes the invariants larger
        rows = [[scale * rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        want = tuple(abs(int(snf[i, i])) for i in range(min(nrows, ncols)))
        assert smith_invariants(rows) == want, rows


def test_smith_matches_sympy_on_drawn_sparse_matrices():
    # the pivot scan, the column swap skipped when the pivot is in column 0
    # and the unit pivot recorded without its remainder pass: shapes up to
    # 8x8, 1xn and nx1 among them, mostly zero entries, zero rows and
    # columns, a unit only in the last column, a smallest entry of both signs
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        zero = st.sampled_from((True, True, True, False))
        rows = [[0 if draw(zero) else draw(st.integers(-40, 40)) for _ in range(nc)]
                for _ in range(nr)]
        if not (nr and nc):
            return rows
        for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
            rows[i] = [0] * nc
        for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
            for row in rows:
                row[j] = 0
        plant = draw(st.sampled_from((None, "unit last", "both signs")))
        if plant == "unit last":  # the other units doubled
            rows = [[2 * x if x in (1, -1) else x for x in row] for row in rows]
            rows[draw(st.integers(0, nr - 1))][-1] = draw(st.sampled_from((1, -1)))
        elif plant == "both signs" and nr * nc > 1:
            x = draw(st.integers(1, 40))
            rows = [[y if abs(y) >= x or not y else (x if y > 0 else -x) for y in row]
                    for row in rows]
            cells = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1))
            (i, j), (k, m) = draw(st.lists(cells, min_size=2, max_size=2, unique=True))
            rows[i][j], rows[k][m] = x, -x
        return rows

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices())
    @hypothesis.example([[2, 0], [0, 3]])  # needs the divisibility fix-up
    @hypothesis.example([[4, 6, 1], [6, 9, 0]])
    @hypothesis.example([[3, 6], [-3, 9]])
    def check(rows):
        want = ()
        if rows and rows[0]:
            snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            want = tuple(abs(int(snf[i, i])) for i in range(min(snf.shape)))
        assert smith_invariants(rows) == want, rows

    check()


def test_smith_size_limit():
    with pytest.raises(ValueError, match="limited to"):
        smith_invariants([[0, 0]] * 201)
    with pytest.raises(ValueError, match="limited to"):
        smith_invariants([[0] * 201])


def test_constructor_copies_the_callers_array():
    entries = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = PrimeFieldMatrix(5, entries)
    entries[0, 0] = 4
    entries[1] = 0
    assert m.to_array().tolist() == [[1, 2], [3, 4]]
    assert m.rank() == 2


def _csc(columns, p, rng=None):
    """The CSC triple of columns given as {row: value} dicts, entries in the
    dict's order or shuffled by rng, values reduced mod p and zeros dropped."""
    indptr, rows, values = [0], [], []
    for col in columns:
        items = [(r, x % p) for r, x in col.items() if x % p]
        if rng is not None:
            rng.shuffle(items)
        rows += [r for r, _ in items]
        values += [x for _, x in items]
        indptr.append(len(rows))
    return tuple(np.array(a, dtype=np.int64) for a in (indptr, rows, values))


def _dense(columns, nrows):
    a = np.zeros((nrows, len(columns)), dtype=np.int64)
    for c, col in enumerate(columns):
        for r, x in col.items():
            a[r, c] = x
    return a


# Lowest rows: c0 at 3, c1 at 2, c2 at 3.  c2 meets c0 unread, scaled to 1
# at row 3, leaves {2: 1} and meets c1 unread, and leaves {1: -1}; c3 =
# c0 - c1 meets c0 and c1 and reduces to zero.
_C0, _C1 = {0: 1, 3: -1}, {1: 1, 2: 1}
_C2, _C3 = {0: -1, 2: 1, 3: 1}, {0: 1, 3: -1, 1: -1, 2: -1}
_UNREAD_CASES = {
    "meets-one-unread-pivot": ([{1: 1, 2: 2}, {2: 1}], 2),
    "meets-two-unread-pivots": ([_C0, _C1, _C2], 3),
    "reduces-to-zero": ([_C0, _C1, _C2, _C3], 3),
    "empty-first-middle-last": ([{}, _C0, {}, _C1, {}, _C2, {}, {}], 3),
    "repeat-before-trailing-empties": ([_C2, {}, _C2, {}, {}], 1),
    "all-empty": ([{}, {}], 0),
    "no-columns": ([], 0),
}


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@pytest.mark.parametrize("case", sorted(_UNREAD_CASES))
def test_chain_ranks_reads_unread_pivots(case, p):
    columns, rank = _UNREAD_CASES[case]
    for shuffled in (None, random.Random(case)):
        triple = _csc(columns, p, shuffled)
        assert chain_ranks([triple], p) == (dense_rank(_dense(columns, 5), p),) == (rank,)


def test_chain_ranks_reads_only_the_columns_it_reduces(monkeypatch):
    read = []

    def counted(*args):
        column = reader(*args)

        def read_column(c):
            v = column(c)
            assert v[max(v)] == 1, (c, v)  # a pivot must be scaled before it is used
            read.append(c)
            return v

        return read_column

    reader = linalg._column_reader
    monkeypatch.setattr(linalg, "_column_reader", counted)
    assert chain_ranks([_csc([_C0, _C1, {4: 1}], 3)], 3) == (3,)
    assert read == []
    assert chain_ranks([_csc([_C0, _C1, _C2, _C3], 3)], 3) == (3,)
    assert read == [2, 0, 1, 3]


def _equal_low_columns(rng, nrows, ncols, p):
    """Random columns, most with one of the two last rows as lowest row,
    some empty."""
    columns = []
    for _ in range(ncols):
        if rng.random() < 0.15:
            columns.append({})
            continue
        if rng.random() < 0.7:
            low = max(0, nrows - 1 - rng.randrange(2))
        else:
            low = rng.randrange(nrows)
        col = {r: rng.randrange(1, p) for r in range(low) if rng.random() < 0.4}
        col[low] = rng.randrange(1, p)
        columns.append(col)
    return columns


def test_chain_ranks_match_dense_elimination_on_equal_lows():
    """Seeded single maps whose columns mostly share a lowest row, with
    empty columns and shuffled rows, against the numpy oracle."""
    rng = random.Random(2022)
    for p in (2, 3, 5, 2**31 - 1):
        for _ in range(80):
            nrows, ncols = rng.randint(1, 12), rng.randint(0, 16)
            columns = _equal_low_columns(rng, nrows, ncols, p)
            triple = _csc(columns, p, rng)
            assert chain_ranks([triple], p) == (dense_rank(_dense(columns, nrows), p),), \
                (p, columns)


def test_chain_ranks_of_two_maps_match_dense_elimination():
    """Seeded d_1, d_2 with d_1 d_2 = 0, d_1's rows drawn from the left
    kernel of d_2: the pivot rows of d_2, unread or read, clear columns of
    d_1, and d_2 ends in empty columns."""
    rng = random.Random(2023)
    for p in (2, 3, 2**31 - 1):
        for _ in range(40):
            n, k, m = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 6)
            upper = _equal_low_columns(rng, n, k, p) + [{}] * rng.randint(0, 2)
            b = _dense(upper, n)
            kernel = kernel_basis(PrimeFieldMatrix(p, b.T))
            a = np.zeros((m, n), dtype=np.int64)
            for v in kernel:
                a = (a + np.outer([rng.randrange(p) for _ in range(m)], v)) % p
            assert not matmul_mod(a, b % p, p).any()
            lower = [{r: int(x) for r, x in enumerate(a[:, c]) if x} for c in range(n)]
            got = chain_ranks([_csc(lower, p, rng), _csc(upper, p, rng)], p)
            assert got == (dense_rank(a, p), dense_rank(b, p)), (p, upper, lower)
