"""Cohomology characters of divided-power twists on the point-hyperplane
incidence correspondence, computed from local cohomology blocks.

The two interesting cohomology groups sit in a four-term exact sequence
around multiplication by omega = sum_i x_i y_i on spans of fractions
x^b / y^(1+a) with |a| = d, |b| = e.  Everything is graded by the torus
multidegree a + b + 1, so kernels and cokernels are computed one block at
a time; characters are normalised by t_1 ... t_n (exponent m - 1 for block
multidegree m).  A block is a 0/1 matrix kept as its column lists, and its
rank over F_p is `linalg.reduce_into` fed those columns.
"""

from __future__ import annotations

from .characters import LaurentPolynomial, nim_poly, schur2, schur2_trunc
from .combinatorics import compositions, decreasing_compositions, orbit
from .linalg import check_modulus, reduce_into


def block_basis(n: int, d: int, e: int, m) -> list[tuple[int, ...]]:
    """Denominator exponents a, in ascending order, of the basis fractions
    x^(m-1-a) / y^(1+a) of multidegree m."""
    m = tuple(int(x) for x in m)
    if len(m) != n:
        raise ValueError("multidegree length must be n")
    if any(x < 1 for x in m):
        raise ValueError("multidegree entries must be at least 1")
    if d < 0 or e < 0:
        return []
    if sum(m) != d + e + n:
        raise ValueError("multidegree total must be d + e + n")
    return list(compositions(d, tuple(x - 1 for x in m)))


def omega_block(n: int, d: int, e: int, m) -> tuple[int, list[list[int]]]:
    """Multiplication by sum_i x_i y_i from the (d, e) block to the
    (d-1, e+1) block of multidegree m: the codomain size and, for each domain
    fraction, the codomain rows it hits.  The term x_i y_i lowers the pole
    order in y_i, killing the fraction when a_i = 0; the targets a - e_i are
    distinct, so every coefficient is 1."""
    domain = block_basis(n, d, e, m)
    index = {a: r for r, a in enumerate(block_basis(n, d - 1, e + 1, m))}
    columns = [
        [index[a[:i] + (a[i] - 1,) + a[i + 1 :]] for i in range(n) if a[i]]
        for a in domain
    ]
    return len(index), columns


def h_characters(
    n: int, d: int, e: int, p: int, *, symmetry_reduce: bool = True
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """The characters (h0, h1) of the kernel and cokernel of omega across
    all blocks, normalised by t_1 ... t_n.

    The scan runs over one representative per S_n-orbit of multidegrees
    unless symmetry_reduce is off; a representative's kernel and cokernel
    dimensions hold on its whole orbit.
    """
    check_modulus(p)
    if n < 2:
        raise ValueError("need at least two variables")
    if d < 0:
        raise ValueError("d must be non-negative")
    if e <= -2:
        raise ValueError("unsupported regime: twists below -1 are outside the block model")
    h0: dict[tuple[int, ...], int] = {}
    h1: dict[tuple[int, ...], int] = {}
    walk = decreasing_compositions if symmetry_reduce else compositions
    for exps in walk(d + e, (d + e,) * n):
        rows, columns = omega_block(n, d, e, tuple(x + 1 for x in exps))
        pivots: dict[int, dict[int, int]] = {}
        for column in columns:
            reduce_into(dict.fromkeys(column, 1), pivots, p)
        ker, coker = len(columns) - len(pivots), rows - len(pivots)
        if not ker and not coker:
            continue
        for member in orbit(exps) if symmetry_reduce else [exps]:
            h0[member], h1[member] = ker, coker
    return LaurentPolynomial(n, h0), LaurentPolynomial(n, h1)


# ---------------------------------------------------------------------------
# closed character formulas to compare against


def window_hypothesis(d: int, e: int, p: int) -> bool:
    return p <= d < 2 * p and e >= d - 1


def small_weights_hypothesis(d: int, e: int, p: int) -> bool:
    return 1 <= d // p < p and e >= d - 1


def char2_hypothesis(d: int, e: int) -> bool:
    return e >= d - 1


def h1_window_char(n: int, d: int, e: int, p: int) -> LaurentPolynomial:
    """Proved closed form for the cokernel character in the single window
    p <= d < 2p with e >= d-1: the truncated two-row Schur character of
    (e+p, d-p)."""
    if not window_hypothesis(d, e, p):
        raise ValueError("requires p <= d < 2p and e >= d - 1")
    return schur2_trunc(e + p, d - p, p, n)


def h1_small_weight_char(n: int, d: int, e: int, p: int) -> LaurentPolynomial:
    """Conjectured cokernel character for tp <= d < (t+1)p with 1 <= t < p
    and e >= d-1: a sum of Frobenius twists of classical two-row Schur
    characters times truncated ones."""
    if not small_weights_hypothesis(d, e, p):
        raise ValueError("requires tp <= d < (t+1)p with 1 <= t < p, and e >= d - 1")
    out = LaurentPolynomial(n)
    for a in range(1, d // p + 1):  # t = d // p
        for b in range(1, a + 1):
            for j in range(0, a - b + 1):
                twist = schur2(a - b, j, n).frobenius(p)
                trunc = schur2_trunc(e + (b - j) * p, d - a * p, p, n)
                out = out + twist * trunc
    return out


def char2_lambda_set(d: int) -> list[tuple[int, int]]:
    """Pairs (q, m) with q a power of two at least 2 and (2m+1) q <= d."""
    out = []
    q = 2
    while q <= d:
        m = 0
        while (2 * m + 1) * q <= d:
            out.append((q, m))
            m += 1
        q *= 2
    return sorted(out)


def h1_char2_char(n: int, d: int, e: int) -> LaurentPolynomial:
    """Conjectured characteristic-two cokernel character for e >= d-1:
    nim polynomials under even Frobenius twists times truncated two-row
    Schur characters."""
    if not char2_hypothesis(d, e):
        raise ValueError("requires e >= d - 1")
    out = LaurentPolynomial(n)
    for q, m in char2_lambda_set(d):
        twist = nim_poly(m, n).frobenius(2 * q)
        trunc = schur2_trunc(e - (2 * m - 1) * q, d - (2 * m + 1) * q, q, n)
        out = out + twist * trunc
    return out
