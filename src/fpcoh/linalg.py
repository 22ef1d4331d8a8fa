"""Exact linear algebra over prime fields and over the integers.

`PrimeFieldMatrix` stores a matrix over Z/p densely as an int64 array; p must
be prime and below 2**31 so that a product of two residues fits in a signed
64-bit word.  Its rank switches from dense Gaussian elimination to a
Markowitz-style sparse elimination at DENSE_COLUMN_THRESHOLD columns.
`chain_ranks` ranks a chain complex from sparse column lists, with no matrix.
"""

from __future__ import annotations

import heapq

import numpy as np

DENSE_COLUMN_THRESHOLD = 512

# Fill ratio of the active submatrix at which sparse elimination hands the
# remainder over to the dense routine.
_DENSIFY_FILL_RATIO = 0.1

SMITH_SIZE_LIMIT = 200


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_modulus(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= 2**31:
        raise ValueError("modulus must be below 2**31")


class PrimeFieldMatrix:
    """Immutable dense matrix over Z/p."""

    __slots__ = ("p", "_data", "_rank_cache")

    def __init__(self, p: int, entries) -> None:
        check_modulus(p)
        data = np.array(entries, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        data %= p
        data.setflags(write=False)
        self.p = p
        self._data = data
        self._rank_cache: int | None = None

    @classmethod
    def from_reduced(cls, p: int, data: np.ndarray) -> "PrimeFieldMatrix":
        """Take over a fresh 2-D int64 array already reduced mod p, without
        copying it; it becomes read-only."""
        check_modulus(p)
        data.setflags(write=False)
        m = cls.__new__(cls)
        m.p, m._data, m._rank_cache = p, data, None
        return m

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "PrimeFieldMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def entry(self, i: int, j: int) -> int:
        return int(self._data[i, j])

    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def row_lists(self) -> list[list[int]]:
        return self._data.tolist()

    def transpose(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self.p, self._data.T)

    def rank(self) -> int:
        if self._rank_cache is None:
            if min(self.shape) == 0:
                self._rank_cache = 0
            elif self.cols >= DENSE_COLUMN_THRESHOLD:
                self._rank_cache = _sparse_rank(self._data, self.p)
            else:
                self._rank_cache = _dense_rank(self._data.copy(), self.p)
        return self._rank_cache

    def kernel_dimension(self) -> int:
        return self.cols - self.rank()

    def cokernel_dimension(self) -> int:
        return self.rows - self.rank()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"


def _dense_rank(a: np.ndarray, p: int) -> int:
    """Forward elimination; a is a writable int64 array already reduced mod p."""
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        row = (a[r, c + 1 :] * inv) % p
        idx = r + 1 + np.nonzero(a[r + 1 :, c])[0]
        if idx.size:
            # factor * row stays below 2**62 since both factors are < p < 2**31
            a[idx, c + 1 :] = (a[idx, c + 1 :] - a[idx, c][:, None] * row) % p
        r += 1
    return r


def _sparse_rank(data: np.ndarray, p: int) -> int:
    """Markowitz-style elimination on dict-of-rows, densifying once fill grows.
    Pivot columns come off a heap of (row count, column): a dropped count is
    pushed at once, a count grown by fill-in when its stale entry surfaces."""
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    nnz = 0
    for i in range(data.shape[0]):
        nz = np.nonzero(data[i])[0]
        if nz.size:
            rows[i] = {int(c): int(data[i, c]) for c in nz}
            for c in nz:
                col_rows.setdefault(int(c), set()).add(i)
            nnz += int(nz.size)
    heap = [(len(s), c) for c, s in col_rows.items()]
    heapq.heapify(heap)

    def dropped(col: int, s: set[int]) -> None:
        if s:
            heapq.heappush(heap, (len(s), col))
        else:
            del col_rows[col]

    rank_count = 0
    while rows and col_rows:
        if nnz > _DENSIFY_FILL_RATIO * len(rows) * len(col_rows):
            return rank_count + _densified_rank(rows, col_rows, p)
        # cheapest column, then shortest row within it
        n, c = heapq.heappop(heap)
        while (count := len(col_rows.get(c, ()))) != n:
            if count > n:
                heapq.heappush(heap, (count, c))
            n, c = heapq.heappop(heap)
        i = min(col_rows[c], key=lambda ri: (len(rows[ri]), ri))
        pivot = rows.pop(i)
        inv = pow(pivot[c], -1, p)
        scaled = {cc: (vv * inv) % p for cc, vv in pivot.items()}
        for cc in pivot:
            s = col_rows[cc]
            s.discard(i)
            dropped(cc, s)
        nnz -= len(pivot)
        targets = list(col_rows.get(c, ()))
        for j in targets:
            rj = rows[j]
            f = rj[c]
            for cc, vv in scaled.items():
                new = (rj.get(cc, 0) - f * vv) % p
                if new:
                    if cc not in rj:
                        nnz += 1
                        col_rows.setdefault(cc, set()).add(j)
                    rj[cc] = new
                else:
                    if cc in rj:
                        del rj[cc]
                        nnz -= 1
                        s = col_rows[cc]
                        s.discard(j)
                        dropped(cc, s)
            if not rj:
                del rows[j]
        rank_count += 1
    return rank_count


def _densified_rank(rows: dict[int, dict[int, int]], col_rows: dict[int, set[int]], p: int) -> int:
    cols = sorted(col_rows)
    col_index = {c: k for k, c in enumerate(cols)}
    sub = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for k, row in enumerate(rows.values()):
        for c, v in row.items():
            sub[k, col_index[c]] = v
    return _dense_rank(sub, p)


def chain_ranks(columns, p: int) -> tuple[int, ...]:
    """Ranks over Z/p of d_1, ..., d_n, where columns[k-1][c] lists the
    nonzero (row, residue) pairs of column c of d_k, the rows of d_k are the
    columns of d_(k-1), and d∘d = 0.  Columns are reduced by lowest-row
    pivots from d_n down, with clearing (Chen–Kerber, "Persistent homology
    computation with a twist", 2011): the reduced columns of d_(k+1) are
    cycles spanning its image, triangular on their pivot rows, so the
    columns of d_k at those rows depend on lower ones and are skipped."""
    ranks = []
    cleared: dict = {}
    for cols in reversed(columns):
        pivots: dict[int, dict[int, int]] = {}  # pivot row -> its column, scaled to 1 there
        for c, col in enumerate(cols):
            if c in cleared:
                continue
            v = dict(col)
            while v:
                low = max(v)
                pivot = pivots.get(low)
                if pivot is None:
                    inv = pow(v[low], -1, p)
                    pivots[low] = {r: x * inv % p for r, x in v.items()}
                    break
                f = v[low]
                for r, x in pivot.items():
                    if y := (v.get(r, 0) - f * x) % p:
                        v[r] = y
                    else:  # a zero here was a nonzero of v: f * x is a unit
                        del v[r]
        ranks.append(len(pivots))
        cleared = pivots
    return tuple(reversed(ranks))


def rref_with_order(
    m: PrimeFieldMatrix, column_order: list[int]
) -> tuple[PrimeFieldMatrix, list[int]]:
    """Reduced row echelon form with pivots chosen in the given column order.

    Returns the reduced matrix and the pivot columns in processing order.
    """
    order = list(column_order)
    if sorted(order) != list(range(m.cols)):
        raise ValueError("column_order must be a permutation of all column indices")
    a = m.to_array()
    p = m.p
    pivots: list[int] = []
    r = 0
    for c in order:
        if r == m.rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - a[others, c][:, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return PrimeFieldMatrix(p, a), pivots


class IntegerMatrix:
    """Immutable matrix over Z with arbitrary-precision entries."""

    __slots__ = ("_rows", "_shape")

    def __init__(self, entries) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self._rows = rows
        self._shape = (len(rows), width)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def row_lists(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(zip(*self._rows)) if self._rows else IntegerMatrix([])

    def reduce_mod(self, p: int) -> PrimeFieldMatrix:
        if self.rows == 0 or self.cols == 0:
            return PrimeFieldMatrix.zeros(p, self.rows, self.cols)
        return PrimeFieldMatrix(p, [[x % p for x in row] for row in self._rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._rows == other._rows and self._shape == other._shape

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntegerMatrix(shape={self._shape})"


def smith_invariants(m: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form: non-negative, each dividing the next,
    zeros trailing. Refuses matrices larger than SMITH_SIZE_LIMIT per side."""
    if m.rows > SMITH_SIZE_LIMIT or m.cols > SMITH_SIZE_LIMIT:
        raise ValueError(
            f"smith_invariants limited to {SMITH_SIZE_LIMIT}x{SMITH_SIZE_LIMIT} matrices"
        )
    a = m.row_lists()
    nr, nc = m.rows, m.cols
    size = min(nr, nc)
    invariants: list[int] = []
    t = 0
    while t < size:
        piv = _smallest_nonzero(a, t, nr, nc)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for k in range(t, nc):
                        a[i][k] -= q * a[t][k]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for k in range(t, nr):
                        a[k][j] -= q * a[k][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for k in range(t, nc):
                a[t][k] += a[offender][k]
        invariants.append(abs(a[t][t]))
        t += 1
    invariants.extend([0] * (size - len(invariants)))
    return tuple(invariants)


def _smallest_nonzero(a: list[list[int]], t: int, nr: int, nc: int):
    best = None
    best_val = None
    for i in range(t, nr):
        for j in range(t, nc):
            v = abs(a[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p without int64 overflow, chunking the inner dimension."""
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    chunk = max(1, (2**62) // max(1, (p - 1) ** 2))
    if inner <= chunk:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        acc = (acc + a[:, start:stop] @ b[start:stop, :]) % p
    return acc
