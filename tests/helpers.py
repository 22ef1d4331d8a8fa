"""Reference helpers shared by several test files; the package itself has no
use for them."""

import numpy as np

from fpcoh.characters import LaurentPolynomial
from fpcoh.combinatorics import TwoRowTableau
from fpcoh.determinantal import slice_characters
from fpcoh.linalg import PrimeFieldMatrix, rref_with_order


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
