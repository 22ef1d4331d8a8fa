"""Cohomology characters of divided-power twists on the point-hyperplane
incidence correspondence, computed from local cohomology blocks.

The two interesting cohomology groups sit in a four-term exact sequence
around multiplication by omega = sum_i x_i y_i on spans of fractions
x^b / y^(1+a) with |a| = d, |b| = e.  Everything is graded by the torus
multidegree a + b + 1, so kernels and cokernels are computed one block at
a time; characters are normalised by t_1 ... t_n (exponent m - 1 for block
multidegree m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import LaurentPolynomial, nim_poly, schur2, schur2_trunc
from .combinatorics import compositions, decreasing_compositions, orbit
from .linalg import PrimeFieldMatrix, check_modulus


class UnsupportedRegimeError(ValueError):
    """Raised for parameter ranges the block model does not cover."""


@dataclass(frozen=True)
class LocalCohElement:
    """Basis fraction x^b / y^(1+a)."""

    denominator_exponents: tuple[int, ...]
    numerator_exponents: tuple[int, ...]

    @property
    def multidegree(self) -> tuple[int, ...]:
        return tuple(
            a + b + 1
            for a, b in zip(self.denominator_exponents, self.numerator_exponents)
        )


@dataclass(frozen=True)
class CohomologyCharacterPair:
    h0: LaurentPolynomial
    h1: LaurentPolynomial


def block_basis(n: int, d: int, e: int, m) -> list[LocalCohElement]:
    """Basis elements with multidegree m, ordered by denominator exponents."""
    m = tuple(int(x) for x in m)
    if len(m) != n:
        raise ValueError("multidegree length must be n")
    if any(x < 1 for x in m):
        raise ValueError("multidegree entries must be at least 1")
    if d < 0 or e < 0:
        return []
    if sum(m) != d + e + n:
        raise ValueError("multidegree total must be d + e + n")
    caps = tuple(x - 1 for x in m)
    return [
        LocalCohElement(a, tuple(c - x for c, x in zip(caps, a)))
        for a in compositions(d, caps)
    ]


def omega_block(n: int, d: int, e: int, m, p: int) -> PrimeFieldMatrix:
    """Matrix of multiplication by sum_i x_i y_i from the (d, e) block to the
    (d-1, e+1) block of multidegree m.  The term x_i y_i lowers the pole
    order in y_i, killing the fraction when a_i = 0."""
    domain = block_basis(n, d, e, m)
    codomain = block_basis(n, d - 1, e + 1, m)
    index = {el.denominator_exponents: r for r, el in enumerate(codomain)}
    mat = np.zeros((len(codomain), len(domain)), dtype=np.int64)
    for c, el in enumerate(domain):
        a = el.denominator_exponents
        for i in range(n):
            if a[i] >= 1:
                target = a[:i] + (a[i] - 1,) + a[i + 1 :]
                mat[index[target], c] += 1
    return PrimeFieldMatrix(p, mat)


def h_characters(
    n: int, d: int, e: int, p: int, *, symmetry_reduce: bool = True
) -> CohomologyCharacterPair:
    """Characters of the kernel and cokernel of omega across all blocks,
    normalised by t_1 ... t_n.

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
        raise UnsupportedRegimeError(
            "twists below -1 are outside the supported block model"
        )
    h0: dict[tuple[int, ...], int] = {}
    h1: dict[tuple[int, ...], int] = {}
    walk = decreasing_compositions if symmetry_reduce else compositions
    for exps in walk(d + e, (d + e,) * n):
        mat = omega_block(n, d, e, tuple(x + 1 for x in exps), p)
        ker, coker = mat.kernel_dimension(), mat.cokernel_dimension()
        if not ker and not coker:
            continue
        for member in orbit(exps) if symmetry_reduce else [exps]:
            h0[member], h1[member] = ker, coker
    return CohomologyCharacterPair(LaurentPolynomial(n, h0), LaurentPolynomial(n, h1))


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
    if not p <= d < 2 * p:
        raise ValueError("requires p <= d < 2p")
    if e < d - 1:
        raise ValueError("requires e >= d - 1")
    return schur2_trunc(e + p, d - p, p, n)


def h1_small_weight_char(n: int, d: int, e: int, p: int) -> LaurentPolynomial:
    """Conjectured cokernel character for tp <= d < (t+1)p with 1 <= t < p
    and e >= d-1: a sum of Frobenius twists of classical two-row Schur
    characters times truncated ones."""
    t = d // p
    if not 1 <= t < p:
        raise ValueError("requires tp <= d < (t+1)p with 1 <= t < p")
    if e < d - 1:
        raise ValueError("requires e >= d - 1")
    out = LaurentPolynomial.zero(n)
    for a in range(1, t + 1):
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
    if e < d - 1:
        raise ValueError("requires e >= d - 1")
    out = LaurentPolynomial.zero(n)
    for q, m in char2_lambda_set(d):
        twist = nim_poly(m, n).frobenius(2 * q)
        trunc = schur2_trunc(e - (2 * m - 1) * q, d - (2 * m + 1) * q, q, n)
        out = out + twist * trunc
    return out
