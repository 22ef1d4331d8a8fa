"""Reference helpers shared by several test files; the package itself has no
use for them."""

from itertools import accumulate

import numpy as np

from fpcoh.characters import LaurentPolynomial
from fpcoh.combinatorics import TwoRowTableau, _equal_column_rule
from fpcoh.determinantal import slice_characters
from fpcoh.incidence import omega_block
from fpcoh.linalg import PrimeFieldMatrix, reduce_into, rref_with_order


def tableau_sum(tableaux, n: int) -> LaurentPolynomial:
    """Sum of the content monomials t^T of the given two-row tableaux."""
    out: dict[tuple[int, ...], int] = {}
    for t in tableaux:
        if not isinstance(t, TwoRowTableau):
            raise TypeError("expected TwoRowTableau instances")
        e = t.weight(n)
        out[e] = out.get(e, 0) + 1
    return LaurentPolynomial(n, out)


def dense_rank(a, p: int) -> int:
    """Rank over Z/p by dense forward elimination in numpy, pivoting on the
    first nonzero of each column: an oracle independent of
    `linalg.reduce_into`, which every rank in the package runs."""
    a = np.array(a, dtype=np.int64) % p
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


def omega_matrix(n: int, d: int, e: int, m, p: int) -> PrimeFieldMatrix:
    """The block `incidence.omega_block` describes, as a dense matrix over Z/p."""
    rows, columns = omega_block(n, d, e, m)
    a = np.zeros((rows, len(columns)), dtype=np.int64)
    for c, column in enumerate(columns):
        a[column, c] = 1
    return PrimeFieldMatrix(p, a)


def omega_rank(n: int, d: int, e: int, m, p: int) -> int:
    """Rank of an omega block over Z/p, its columns fed to `reduce_into` as
    `h_characters` feeds them."""
    pivots: dict[int, dict[int, int]] = {}
    for column in omega_block(n, d, e, m)[1]:
        reduce_into(dict.fromkeys(column, 1), pivots, p)
    return len(pivots)


def kernel_basis(m: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space, one vector per free column."""
    reduced, pivots = rref_with_order(m, list(range(m.cols)))
    a = reduced.to_array()
    p = reduced.p
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-int(a[r, f])) % p
        basis.append(tuple(v))
    return basis


def filtration_character(
    n: int, a: int, b: int, i: int, truncated: bool, p: int
) -> LaurentPolynomial:
    """Character of the i-th filtration quotient in bidegree (a, b):
    blockwise rank of the i-th slice minus rank of the (i+1)-st."""
    chars = slice_characters(n, a, b, [i, i + 1], truncated, p)
    return chars[i] - chars[i + 1]


def interval_data(w, edges, j: int) -> tuple[int, int, int]:
    """Data for removing edge j from the edge subset J of the weighted path.

    The path has vertices 0..d with weights w and edges 1..d, edge i joining
    vertices i-1 and i.  J splits the path into the connected components of
    its edge set; removing j in J breaks the component containing j in two.
    Returns (total weight of that component, weight of its right piece,
    count of edges below j missing from J).
    """
    w = tuple(w)
    d = len(w) - 1
    J = set(edges)
    if j not in J:
        raise ValueError("edge j must belong to the subset")
    if not J <= set(range(1, d + 1)):
        raise ValueError("subset must consist of edges 1..d")
    lo = j
    while lo - 1 in J:
        lo -= 1
    hi = j
    while hi + 1 in J:
        hi += 1
    total = sum(w[lo - 1 : hi + 1])
    right = sum(w[j : hi + 1])
    sign_exponent = sum(1 for i in range(1, j) if i not in J)
    return total, right, sign_exponent


def recursive_compositions(total: int, caps: tuple[int, ...]):
    """Weak compositions of total with part i at most caps[i], in ascending
    lexicographic order, by one recursive generator frame per part: the
    oracle for the one-loop `combinatorics.compositions`."""
    tails = list(accumulate(reversed(caps), initial=0))[::-1]  # sums of caps[i:]

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(caps):
            yield prefix
            return
        for v in range(max(0, remaining - tails[i + 1]), min(caps[i], remaining) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    if 0 <= total <= tails[0]:
        yield from rec(0, total, ())


def is_p_semistandard(t: TwoRowTableau, p: int) -> bool:
    """Weakly increasing rows and columns, constant runs in each row of
    length at most p-1, and the run rule at every column with equal entries."""
    u, v = t.top, t.bottom
    if any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        return False
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        return False
    if any(u[i] > v[i] for i in range(len(v))):
        return False
    if any(u[i] == u[i + p - 1] for i in range(len(u) - p + 1)):
        return False
    if any(v[i] == v[i + p - 1] for i in range(len(v) - p + 1)):
        return False
    for j in range(len(v)):
        if u[j] == v[j] and not _equal_column_rule(u, v, j, p):
            return False
    return True

