"""Exact linear algebra over prime fields and over the integers.

Every F_p rank runs one sparse reduction loop, `reduce_into`, on vectors
stored as {index: residue} dicts: `chain_ranks` ranks a chain complex from
the CSC triples (indptr, rows, residues) of its maps, taking every column's
lowest row in one numpy pass and reading a column only when it is reduced;
the incidence blocks feed it their 0/1 columns and the determinantal blocks
their rows.  The modulus p must be prime and below 2**31 so that a product
of two residues fits in a signed 64-bit word; `check_modulus` remembers the
moduli it has passed.  `PrimeFieldMatrix` is a read-only dense int64 matrix
over Z/p with a cached `rank`, `chain_ranks` on the CSC of its nonzeros;
only the tests, a determinantal block's `matrix` and `rref_with_order`, a
dense reduction in a chosen column order, build one.

Over Z, `smith_invariants` takes a matrix as its list of rows.  One loop
moves a smallest nonzero entry (one C-level scan) to (0, 0), clears its
column by row and its row by column operations, and adds to its row a row
it fails to divide; a smaller remainder restarts it, else the pivot (a unit
at once) is recorded and its row and column deleted.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain

import numpy as np

# No code branches on this width; it only names the wide matrices in traces.
DENSE_COLUMN_THRESHOLD = 512

SMITH_SIZE_LIMIT = 200


def is_prime(p: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, which is exact for every
    p below 3 215 031 751, so above the 2**31 bound of `check_modulus`."""
    if p < 2 or any(p % q == 0 for q in (2, 3, 5, 7)):
        return p in (2, 3, 5, 7)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for base in (2, 3, 5, 7):
        x = pow(base, d, p)
        if x != 1 and p - 1 not in (pow(x, 2**r, p) for r in range(s)):
            return False
    return True


@cache
def check_modulus(p: int) -> None:
    # the bound first: is_prime is exact only below it
    if p >= 2**31:
        raise ValueError("modulus must be below 2**31")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


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

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def rank(self) -> int:
        if self._rank_cache is None:
            cols, rows = np.nonzero(self._data.T)
            indptr = np.searchsorted(cols, np.arange(self.cols + 1))
            (self._rank_cache,) = chain_ranks([(indptr, rows, self._data[rows, cols])], self.p)
        return self._rank_cache

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"


def chain_ranks(boundaries, p: int) -> tuple[int, ...]:
    """Ranks over Z/p of d_1, ..., d_n, each a CSC triple (indptr, rows,
    residues) of numpy arrays, where the rows of d_k are the columns of
    d_(k-1) and d∘d = 0.  Columns are reduced by lowest-row pivots from d_n
    down, with clearing (Chen–Kerber, "Persistent homology computation with
    a twist", 2011): the reduced columns of d_(k+1) are cycles spanning its
    image, triangular on their pivot rows, so the columns of d_k at those
    rows depend on lower ones and are skipped.  A column whose lowest row,
    from one numpy pass, is no pivot yet becomes that pivot unread, as its
    index; a map becomes lists, and a column a vector, only when reduced."""
    ranks = []
    cleared: dict = {}
    for indptr, rows, residues in reversed(boundaries):
        bounds = indptr.tolist()
        filled = bisect_left(bounds, bounds[-1])  # later columns are empty
        lows = np.maximum.reduceat(rows, indptr[:filled]).tolist()
        pivots: dict = {}
        column = None
        for c, low in enumerate(lows):
            if c in cleared or bounds[c] == bounds[c + 1]:
                continue
            if low not in pivots:
                pivots[low] = c
            else:
                column = column or _column_reader(bounds, rows, residues, p)
                reduce_into(column(c), pivots, p, column)
        ranks.append(len(pivots))
        cleared = pivots
    return tuple(reversed(ranks))


def _column_reader(bounds: list[int], rows, residues, p: int):
    """Column c of a CSC map over Z/p as a vector scaled to 1 at its lowest
    row, read from lists made once."""
    at, values = rows.tolist(), residues.tolist()
    def column(c: int) -> dict[int, int]:
        v = dict(zip(at[bounds[c]:bounds[c + 1]], values[bounds[c]:bounds[c + 1]]))
        inv = pow(v[max(v)], -1, p)
        return {r: x * inv % p for r, x in v.items()}
    return column


def reduce_into(v: dict[int, int], pivots: dict, p: int, load=None) -> None:
    """Reduce the vector v, {index: nonzero residue mod p}, in place by the
    pivots, each stored under its largest index and scaled to 1 there, and
    keep any remainder as a new pivot.  The pivots stay an echelon basis of
    the span fed so far, and their indices are its leading indices.  A pivot
    stored as an int is unread: `load` turns it into its vector when met."""
    while v:
        low = max(v)
        pivot = pivots.get(low)
        if pivot is None:
            inv = pow(v[low], -1, p)
            pivots[low] = {r: x * inv % p for r, x in v.items()}
            return
        if type(pivot) is int:
            pivot = pivots[low] = load(pivot)
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


def smith_invariants(rows) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of the integer matrix with the given
    rows: non-negative, each dividing the next, zeros trailing.  Refuses
    ragged rows and matrices larger than SMITH_SIZE_LIMIT per side."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != nc for row in rows):
        raise ValueError("ragged rows")
    if nr > SMITH_SIZE_LIMIT or nc > SMITH_SIZE_LIMIT:
        raise ValueError(
            f"smith_invariants limited to {SMITH_SIZE_LIMIT}x{SMITH_SIZE_LIMIT} matrices"
        )
    a = [row for row in ([int(x) for x in r] for r in rows) if any(row)]
    invariants: list[int] = []
    while a:  # every restart leaves a nonzero entry smaller than the pivot
        piv = min(map(abs, filter(None, chain.from_iterable(a))))
        i, j = next((i, row.index(x)) for i, row in enumerate(a) for x in (piv, -piv) if x in row)
        a[0], a[i] = a[i], a[0]
        if j:
            for row in a:
                row[0], row[j] = row[j], row[0]
        top, piv = a[0], a[0][0]
        for i in range(1, len(a)):
            if q := a[i][0] // piv:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        if piv not in (1, -1):  # a unit clears its column exactly, and divides all
            if any(row[0] for row in a[1:]):
                continue
            top[1:] = [x % piv for x in top[1:]]  # column 0 is clear below the pivot
            if any(top[1:]):
                continue
            if bad := next((row for row in a if any(x % piv for x in row)), None):
                top[:] = [x + y for x, y in zip(top, bad)]
                continue
        invariants.append(abs(piv))
        del a[0]
        for row in a:
            del row[0]
        a = [row for row in a if any(row)]
    return tuple(invariants) + (0,) * (min(nr, nc) - len(invariants))


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
