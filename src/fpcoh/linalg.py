"""Exact linear algebra over prime fields and over the integers.

Every F_p rank runs one sparse reduction loop, `reduce_into`, on vectors
stored as {index: residue} dicts: `chain_ranks` ranks a chain complex from
the CSC triples (indptr, rows, residues) of its maps, the incidence blocks
feed it their 0/1 columns and the determinantal blocks their rows.  The
modulus p must be prime and below 2**31 so that a product of two residues
fits in a signed 64-bit word; `check_modulus` remembers the moduli it has
passed.  `PrimeFieldMatrix` stores a matrix over Z/p densely as an int64
array, built only when a dense matrix is asked for (`differential`, a
determinantal block's `matrix`, tests); its rank is `chain_ranks` on the CSC
of its nonzeros.  `rref_with_order` is a separate dense reduction with a
chosen column order.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# No code branches on this width; it only names the wide matrices in traces.
DENSE_COLUMN_THRESHOLD = 512

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


@cache
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

    def rank(self) -> int:
        if self._rank_cache is None:
            cols, rows = np.nonzero(self._data.T)
            indptr = np.searchsorted(cols, np.arange(self.cols + 1))
            (self._rank_cache,) = chain_ranks([(indptr, rows, self._data[rows, cols])], self.p)
        return self._rank_cache

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"


def chain_ranks(boundaries, p: int) -> tuple[int, ...]:
    """Ranks over Z/p of d_1, ..., d_n, each a CSC triple (indptr, rows,
    residues) of numpy arrays, where the rows of d_k are the columns of
    d_(k-1) and d∘d = 0.  Columns are reduced by lowest-row pivots from d_n
    down, with clearing (Chen–Kerber, "Persistent homology computation with
    a twist", 2011): the reduced columns of d_(k+1) are cycles spanning its
    image, triangular on their pivot rows, so the columns of d_k at those
    rows depend on lower ones and are skipped."""
    ranks = []
    cleared: dict = {}
    for indptr, rows, residues in reversed(boundaries):
        bounds = indptr.tolist()
        entries = list(zip(rows.tolist(), residues.tolist()))
        pivots: dict[int, dict[int, int]] = {}
        for c in range(len(bounds) - 1):
            if c not in cleared:
                reduce_into(dict(entries[bounds[c]:bounds[c + 1]]), pivots, p)
        ranks.append(len(pivots))
        cleared = pivots
    return tuple(reversed(ranks))


def reduce_into(v: dict[int, int], pivots: dict[int, dict[int, int]], p: int) -> None:
    """Reduce the vector v, {index: nonzero residue mod p}, in place by the
    pivots, each stored under its largest index and scaled to 1 there, and
    keep any remainder as a new pivot.  The pivots stay an echelon basis of
    the span fed so far, and their indices are its leading indices."""
    while v:
        low = max(v)
        pivot = pivots.get(low)
        if pivot is None:
            inv = pow(v[low], -1, p)
            pivots[low] = {r: x * inv % p for r, x in v.items()}
            return
        f = v[low]
        for r, x in pivot.items():
            if y := (v.get(r, 0) - f * x) % p:
                v[r] = y
            else:  # a zero here was a nonzero of v: f * x is a unit
                del v[r]


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._rows == other._rows and self._shape == other._shape

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
