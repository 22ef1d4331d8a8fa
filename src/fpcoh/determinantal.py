"""Powers of the ideal of 2x2 minors of a generic 2 x n matrix, their
bigraded slices, and leading-monomial data, optionally after truncating by
p-th powers of the variables.

The ring is k[x_1..x_n, y_1..y_n] with the term order: graded lexicographic,
x_1 > ... > x_n > y_1 > ... > y_n.  A monomial is stored as the length-2n
exponent tuple (x-block then y-block); within a fixed bidegree (a, b) all
monomials share total degree, so ties are broken by plain lexicographic
comparison of those tuples.

Every slice rank comes from one elimination pass (`_eliminate`).  Since
I^(i+1) lies in I^i, it feeds the requested powers, highest first, into one
incremental row echelon per torus multidegree block with pivots in term
order, and records the block ranks after each power.  A block lists its own
columns, the bidegree-(a, b) monomials of its multidegree; one whose rank
reaches its column count is saturated and takes no further rows.  For the
maximal minors of a 2 x n matrix, in(I^i) = in(I)^i (Conca, JPAA 1997), and
the leading term of the minor (u, v) is x_u y_v.  So a column leads in I^i
iff it holds i disjoint pairs x_u y_v with u < v, and the product of i such
minors times the rest of the column leads with the column.  One such row
per column spans the classical block, as their leading monomials are
distinct and as many as its dimension; a lower power feeds only the columns
the power above it left out.  The truncated block is the image of the
classical one, so the same rows span it; a row whose monomial factor has an
exponent >= p vanishes there, and expanded terms outside the columns drop.
Permuting the n columns of the matrix sends each minor to a minor up to
sign and fixes the p-th powers, so every slice is S_n-stable and the pass
reduces one block per S_n orbit of multidegrees: rank characters
(`slice_characters`) copy its rank to the orbit.  The term order is not
symmetric, so for leading monomials (`ideal_power_slice`) each orbit member
gets the representative's echelon basis permuted and re-echelonised in the
member's own column order, once per distinct order; the pivot set of a span
does not depend on the basis fed.  `check_lead_terms` compares them with the
p-semistandard tableau monomials and returns a verdict status and payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter, sub

import numpy as np

from .characters import LaurentPolynomial
from .combinatorics import (
    Tableau,
    compositions,
    decreasing_compositions,
    enumerate_pssyt,
    orbit,
)
from .linalg import PrimeFieldMatrix, check_modulus, reduce_into
from .verdicts import AGREE, DISAGREE, OUTSIDE

Monomial = tuple  # exponent tuple of length 2n


def expand_minor_product(
    n: int, minors, x_mono: tuple[int, ...], y_mono: tuple[int, ...]
) -> dict[Monomial, int]:
    """Expansion of (product of the given minors) * x^x_mono * y^y_mono
    in the monomial basis, over Z."""
    base = tuple(x_mono) + tuple(y_mono)
    terms: dict[Monomial, int] = {base: 1}
    for u, v in minors:
        new: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            plus = list(mono)
            plus[u] += 1
            plus[n + v] += 1
            key = tuple(plus)
            new[key] = new.get(key, 0) + coeff
            minus = list(mono)
            minus[v] += 1
            minus[n + u] += 1
            key = tuple(minus)
            new[key] = new.get(key, 0) - coeff
        terms = new
    return {k: c for k, c in terms.items() if c}


def _code(exponents, base: int) -> int:
    return sum(e * base**k for k, e in enumerate(exponents))


class _Block:
    """Row echelon form over Z/p of the multidegree-m block.  Its columns
    are listed from m: the monomials x + (m - x) with |x| = a and every
    exponent at most cap, in ascending x, which is increasing term order,
    so the largest column of a row is its leading monomial.  Columns are
    found by the code of their x-exponents, so multiplying by an x-monomial
    adds its code.  Rows are reduced by `linalg.reduce_into` and stored
    under their largest column, scaled to 1 there; those columns are the
    leading monomials of the span."""

    def __init__(self, m: tuple[int, ...], a: int, cap: int, p: int) -> None:
        # x and y = m - x within the caps: lo <= x <= hi, none if lo > hi
        lo = [max(0, e - cap) for e in m]
        widths = [min(e, cap) - k for e, k in zip(m, lo)]
        shifted = compositions(a - sum(lo), widths) if min(widths) >= 0 else ()
        xs = [tuple(map(add, lo, x)) for x in shifted]
        self.monomials = [x + tuple(map(sub, m, x)) for x in xs]
        self.p = p
        self._index = {_code(x, a + 1): c for c, x in enumerate(xs)}
        self._pivots: dict[int, dict[int, int]] = {}  # leading column -> row
        self._carries: dict[tuple[int, ...], dict] = {}  # column order -> its rows

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def saturated(self) -> bool:
        return len(self._pivots) == len(self.monomials)

    def add(self, shift: int, terms) -> None:
        """Reduce the minor product `terms`, [(x-code, coefficient mod p)],
        times the x-monomial coded `shift`, and keep any remainder.  Terms
        outside the block's columns (truncated away) are dropped."""
        index = self._index
        v = {}
        for code, coeff in terms:
            c = index.get(shift + code)
            if c is not None:
                v[c] = coeff
        reduce_into(v, self._pivots, self.p)

    def carried(self, o: tuple[int, ...]) -> _Block:
        """The block of o, a rearrangement of this block's weakly decreasing
        multidegree m.  Permuting the variables by pi, where o_k = m_pi(k),
        maps this block's span onto o's.  So o's columns are these with x
        and y permuted, then sorted, and its echelon basis is these rows,
        renamed, reduced again.  The new block takes no generators, so members
        whose columns sort the same way share one set of rows, reduced once."""
        n = len(o)
        pi = [0] * n  # a stable sort of o's positions by decreasing part
        for j, k in enumerate(sorted(range(n), key=o.__getitem__, reverse=True)):
            pi[k] = j
        moved = list(map(itemgetter(*pi, *(n + j for j in pi)), self.monomials))
        order = sorted(range(len(moved)), key=moved.__getitem__)
        member = _Block.__new__(_Block)
        member.monomials = [moved[c] for c in order]
        member.p = self.p
        if self.saturated():  # every column is a pivot
            member._pivots = {c: {c: 1} for c in range(len(order))}
            return member
        if (key := tuple(order)) not in self._carries:
            rename = {c: new for new, c in enumerate(order)}
            pivots = self._carries[key] = {}
            for row in self._pivots.values():
                reduce_into({rename[c]: x for c, x in row.items()}, pivots, self.p)
        member._pivots = self._carries[key]
        return member

    @cached_property
    def matrix(self) -> PrimeFieldMatrix:
        """The echelon basis, one row per pivot."""
        width = len(self.monomials)
        rows = [[row.get(c, 0) for c in range(width)] for row in self._pivots.values()]
        data = np.array(rows, dtype=np.int64).reshape(self.rank, width)
        return PrimeFieldMatrix(self.p, data)


@dataclass
class IdealPowerSlice:
    """Echelon basis of the bidegree-(a, b) slice of an ideal power, split
    into torus multidegree blocks of nonzero rank."""

    blocks: dict[tuple[int, ...], _Block]

    def dimension(self) -> int:
        return sum(b.rank for b in self.blocks.values())


def _lead_generators(m: tuple[int, ...], a: int, i: int, above: int, cap: int):
    """The rows power i feeds block m: for each classical column x + (m - x)
    in which a greedy pass, matching y_v against the x's seen before v,
    finds k pairs x_u y_v with i <= k < above, the first i minors (u, v),
    sorted, and the code of the remaining x-monomial; skips a column whose
    remaining monomial has an exponent above cap, as its row vanishes."""
    n = len(m)
    for x in compositions(a, m):
        pairs, unmatched = [], []
        for v, xv in enumerate(x):
            for _ in range(min(len(unmatched), m[v] - xv)):
                pairs.append((unmatched.pop(), v))
            unmatched += [v] * xv
        if not i <= len(pairs) < above:
            continue
        rest = [*x, *map(sub, m, x)]
        for u, v in pairs[:i]:
            rest[u] -= 1
            rest[n + v] -= 1
        if max(rest) <= cap:
            yield tuple(sorted(pairs[:i])), _code(rest[:n], a + 1)


def _eliminate(n: int, a: int, b: int, powers, truncated: bool, p: int):
    """The one elimination pass over the given powers, highest first, over
    one weakly decreasing multidegree per S_n orbit.  Returns the blocks and
    {power: {multidegree: rank}}.  A minor product is expanded once, when a
    block that is not saturated first needs it."""
    powers = sorted(set(powers), reverse=True)
    if min(n, a, b, *powers) < 0:
        raise ValueError("parameters must be non-negative")
    if n < 1:
        raise ValueError("need at least one variable")
    check_modulus(p)
    zero = (0,) * n
    cap = p - 1 if truncated else a + b
    # a multidegree entry above 2 cap leaves its block no columns
    multidegrees = list(decreasing_compositions(a + b, (2 * cap,) * n))
    products: dict[tuple, list[tuple[int, int]]] = {}
    blocks: dict[tuple[int, ...], _Block] = {}
    ranks = {}
    above = a + b + 1  # every column holds at most min(a, b) pairs
    for i in powers:
        for m in multidegrees:
            block = blocks.get(m)
            for minors, shift in _lead_generators(m, a, i, above, cap):
                if block is None:
                    block = blocks[m] = _Block(m, a, cap, p)
                if block.saturated():
                    break
                if minors not in products:
                    expansion = expand_minor_product(n, minors, zero, zero).items()
                    products[minors] = [
                        (_code(mono[:n], a + 1), c % p) for mono, c in expansion if c % p
                    ]
                block.add(shift, products[minors])
        ranks[i] = {m: blk.rank for m, blk in blocks.items()}
        above = i
    return blocks, ranks


def ideal_power_slice(
    n: int, a: int, b: int, i: int, truncated: bool, p: int
) -> IdealPowerSlice:
    """The i-th power's slice in bidegree (a, b); with truncated=True in
    the quotient by p-th powers of the variables.  Only the orbit
    representatives are eliminated; each carries its basis to its orbit."""
    blocks, _ = _eliminate(n, a, b, [i], truncated, p)
    return IdealPowerSlice({
        o: block if o == m else block.carried(o)
        for m, block in blocks.items() if block.rank for o in orbit(m)
    })


def slice_characters(
    n: int, a: int, b: int, powers, truncated: bool, p: int
) -> dict[int, LaurentPolynomial]:
    """{i: blockwise rank character of the i-th slice} for every requested
    power, from one pass; a representative's rank holds on its orbit."""
    _, ranks = _eliminate(n, a, b, powers, truncated, p)
    return {i: LaurentPolynomial(n, {o: r for m, r in by_m.items() for o in orbit(m)})
            for i, by_m in ranks.items()}


def leading_monomials(slc: IdealPowerSlice) -> set[Monomial]:
    """Leading monomials of the row space: the pivots of each block's
    echelon basis."""
    return {b.monomials[c] for b in slc.blocks.values() for c in b._pivots}


# ---------------------------------------------------------------------------
# tableau side


def tableau_monomial(t: Tableau, n: int) -> Monomial:
    """x_(u_1)...x_(u_a) y_(v_1)...y_(v_b) for the tableau (u, v)."""
    u, v = t
    x, y = [0] * n, [0] * n
    try:
        for k in u:
            x[k - 1] += 1
        for k in v:
            y[k - 1] += 1
    except IndexError:
        raise ValueError("entry exceeds variable count") from None
    return tuple(x + y)


# ---------------------------------------------------------------------------
# verdict-style check


def check_lead_terms(n: int, a: int, b: int, p: int) -> tuple[str, dict]:
    """Whether every p-semistandard tableau monomial occurs among the
    leading monomials of the b-th truncated ideal power in bidegree (a, b),
    as (status, payload).  The stated hypothesis is a - b >= p - 1; outside
    it the comparison is reported as comparison_agrees, inside it the
    witness is the first missing monomial."""
    slc = ideal_power_slice(n, a, b, b, True, p)
    pivots = leading_monomials(slc)
    expected = {tableau_monomial(t, n) for t in enumerate_pssyt(n, a, b, p)}
    # every x has length n, so x + y tuples sort as the (x, y) pairs do
    missing = [[list(m[:n]), list(m[n:])] for m in sorted(expected - pivots)]
    payload = {
        "hypothesis_met": a - b >= p - 1,
        "expected_count": len(expected),
        "pivot_count": len(pivots),
        "missing": missing,
    }
    if not payload["hypothesis_met"]:
        payload["comparison_agrees"] = not missing
        return OUTSIDE, payload
    if not missing:
        return AGREE, payload
    payload["witness"] = {"missing_monomial": missing[0]}
    return DISAGREE, payload
