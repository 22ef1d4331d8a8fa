"""Powers of the ideal of 2x2 minors of a generic 2 x n matrix, their
bigraded slices, and leading-monomial data, optionally after truncating by
p-th powers of the variables.

The ring is k[x_1..x_n, y_1..y_n] with the term order: graded lexicographic,
x_1 > ... > x_n > y_1 > ... > y_n.  A monomial is stored as the length-2n
exponent tuple (x-block then y-block); within a fixed bidegree (a, b) all
monomials share total degree, so ties are broken by plain lexicographic
comparison of those tuples.

Every slice rank comes from one elimination pass (`_eliminate`).  Since
I^(i+1) lies in I^i, it feeds the generators of the requested powers,
highest power first and grouped by torus multidegree, into one incremental
row echelon per block with pivots in term order, and records the block
ranks after each power.  A block whose rank reaches its column count is
saturated and takes no further generators.  Truncated, monomials with an
exponent >= p are dropped before expansion and expanded terms after.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from operator import add, itemgetter, sub

import numpy as np

from .characters import LaurentPolynomial, h_trunc, schur2_trunc
from .combinatorics import TwoRowTableau, compositions, enumerate_pssyt
from .linalg import PrimeFieldMatrix, check_modulus

Monomial = tuple  # exponent tuple of length 2n


@dataclass(frozen=True)
class BigradedMonomial:
    x_exponents: tuple[int, ...]
    y_exponents: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (sum(self.x_exponents), sum(self.y_exponents))

    @property
    def multidegree(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.x_exponents, self.y_exponents))

    def key(self) -> Monomial:
        return self.x_exponents + self.y_exponents


def minor_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (u, v), u < v, of the 2x2 minors x_u y_v - x_v y_u (0-based)."""
    return list(combinations(range(n), 2))


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
    are its monomials, that is its power-0 generator specs, in decreasing
    term order; an x-monomial fixes a monomial within the block, so
    columns are found by the code of their x-exponents, and multiplying by
    an x-monomial adds its code.  A row is stored under its pivot, scaled
    to 1 there, as the entries after the pivot; the pivots are the leading
    monomials of the span."""

    def __init__(self, m: tuple[int, ...], monomial_specs: list, p: int) -> None:
        specs = sorted(monomial_specs, key=itemgetter(2), reverse=True)
        self.monomials = [x + tuple(map(sub, m, x)) for _, _, x in specs]
        self.p = p
        self._index = {code: c for c, (_, code, _) in enumerate(specs)}
        self._rows: dict[int, list[int]] = {}  # pivot column -> entries after it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def saturated(self) -> bool:
        return len(self._rows) == len(self.monomials)

    def add(self, shift: int, terms) -> None:
        """Reduce the minor product `terms`, [(x-code, coefficient mod p)],
        times the x-monomial coded `shift`, and keep any remainder.  Terms
        outside the block's columns (truncated away) are dropped."""
        p, rows, index = self.p, self._rows, self._index
        vec = [0] * len(self.monomials)
        for code, coeff in terms:
            c = index.get(shift + code)
            if c is not None:
                vec[c] = coeff
        for c, f in enumerate(vec):  # the slice updates below stay in place
            if not f:
                continue
            tail = rows.get(c)
            if tail is None:
                inv = pow(f, -1, p)
                rows[c] = [v * inv % p for v in vec[c + 1 :]]
                return
            vec[c + 1 :] = [(v - f * w) % p for v, w in zip(vec[c + 1 :], tail)]

    @cached_property
    def matrix(self) -> PrimeFieldMatrix:
        """The echelon basis, one row per pivot in increasing column order."""
        rows = [[0] * c + [1] + self._rows[c] for c in sorted(self._rows)]
        data = np.array(rows, dtype=np.int64).reshape(self.rank, len(self.monomials))
        return PrimeFieldMatrix.from_reduced(self.p, data)


@dataclass
class IdealPowerSlice:
    """Echelon basis of the bidegree-(a, b) slice of the i-th ideal power,
    split into torus multidegree blocks of nonzero rank.  With
    truncated=True everything is taken in the quotient by p-th powers of
    the variables."""

    n: int
    a: int
    b: int
    power: int
    truncated: bool
    p: int
    blocks: dict[tuple[int, ...], _Block]

    def multidegrees(self) -> list[tuple[int, ...]]:
        return sorted(self.blocks)

    def block_rank(self, m) -> int:
        block = self.blocks.get(tuple(m))
        return block.rank if block else 0

    def dimension(self) -> int:
        return sum(b.rank for b in self.blocks.values())

    def rank_character(self) -> LaurentPolynomial:
        return LaurentPolynomial(self.n, {m: b.rank for m, b in self.blocks.items()})


def _generator_specs(n: int, a: int, b: int, i: int, truncated: bool, p: int):
    """The i-th power's generators in bidegree (a, b) as {multidegree:
    [(minors, code of the x-monomial, x-monomial)]}, nothing expanded; the
    y-monomial follows from the multidegree."""
    groups: dict[tuple[int, ...], list] = {}
    if a < i or b < i:
        return groups
    caps = (p - 1 if truncated else a + b,) * n
    ys = list(compositions(b - i, caps))
    shifts = [
        (x, _code(x, a + 1), tuple(map(add, x, y)))
        for x in compositions(a - i, caps)
        for y in ys
    ]
    for minors in combinations_with_replacement(minor_pairs(n), i):
        weight = [sum(k in pair for pair in minors) for k in range(n)]
        for x, code, xy in shifts:
            groups.setdefault(tuple(map(add, weight, xy)), []).append((minors, code, x))
    return groups


def _eliminate(n: int, a: int, b: int, powers, truncated: bool, p: int):
    """The one elimination pass over the given powers, highest first.
    Returns the blocks, an echelon basis of the lowest power's slice, and
    {power: rank character of its slice}.  A minor product is expanded
    once, when a block that is not saturated first needs it."""
    powers = sorted(set(powers), reverse=True)
    if min(n, a, b, *powers) < 0:
        raise ValueError("parameters must be non-negative")
    check_modulus(p)
    zero = (0,) * n
    monomials = _generator_specs(n, a, b, 0, truncated, p)
    products: dict[tuple, list[tuple[int, int]]] = {}
    blocks: dict[tuple[int, ...], _Block] = {}
    characters = {}
    for i in powers:
        for m, specs in _generator_specs(n, a, b, i, truncated, p).items():
            block = blocks.get(m)
            if block is None:
                block = blocks[m] = _Block(m, monomials.get(m, []), p)
            for minors, shift, _ in specs:
                if block.saturated():
                    break
                if minors not in products:
                    expansion = expand_minor_product(n, minors, zero, zero).items()
                    products[minors] = [
                        (_code(mono[:n], a + 1), c % p) for mono, c in expansion if c % p
                    ]
                block.add(shift, products[minors])
        characters[i] = LaurentPolynomial(n, {m: blk.rank for m, blk in blocks.items()})
    return blocks, characters


def ideal_power_slice(
    n: int, a: int, b: int, i: int, truncated: bool, p: int
) -> IdealPowerSlice:
    blocks, _ = _eliminate(n, a, b, [i], truncated, p)
    return IdealPowerSlice(
        n=n, a=a, b=b, power=i, truncated=truncated, p=p,
        blocks={m: block for m, block in blocks.items() if block.rank},
    )


def slice_characters(
    n: int, a: int, b: int, powers, truncated: bool, p: int
) -> dict[int, LaurentPolynomial]:
    """{i: blockwise rank character of the i-th slice} for every requested
    power, from one elimination pass."""
    return _eliminate(n, a, b, powers, truncated, p)[1]


def filtration_character(
    n: int, a: int, b: int, i: int, truncated: bool, p: int
) -> LaurentPolynomial:
    """Character of the i-th filtration quotient in bidegree (a, b):
    blockwise rank of the i-th slice minus rank of the (i+1)-st."""
    chars = slice_characters(n, a, b, [i, i + 1], truncated, p)
    return chars[i] - chars[i + 1]


def leading_monomials(slc: IdealPowerSlice) -> set[BigradedMonomial]:
    """Leading monomials of the row space: the pivots of each block's
    echelon basis."""
    n = slc.n
    leads = (b.monomials[c] for b in slc.blocks.values() for c in b._rows)
    return {BigradedMonomial(mono[:n], mono[n:]) for mono in leads}


# ---------------------------------------------------------------------------
# tableau side


def tableau_monomial(t: TwoRowTableau, n: int) -> BigradedMonomial:
    """x_(u_1)...x_(u_a) y_(v_1)...y_(v_b) for the tableau with rows u, v."""
    x = [0] * n
    y = [0] * n
    for val in t.top:
        if val > n:
            raise ValueError("entry exceeds variable count")
        x[val - 1] += 1
    for val in t.bottom:
        if val > n:
            raise ValueError("entry exceeds variable count")
        y[val - 1] += 1
    return BigradedMonomial(tuple(x), tuple(y))


def tableau_product(t: TwoRowTableau, n: int) -> dict[Monomial, int]:
    """Expansion of the product of column minors times leftover top-row
    variables attached to the tableau: minor (u_i, v_i) per full column,
    then x_(u_i) for the single-box columns."""
    b = len(t.bottom)
    minors = []
    for i in range(b):
        u, v = t.top[i], t.bottom[i]
        if u >= v:
            raise ValueError("column minors need strictly increasing columns")
        minors.append((u - 1, v - 1))
    x = [0] * n
    for val in t.top[b:]:
        x[val - 1] += 1
    return expand_minor_product(n, minors, tuple(x), (0,) * n)


def rbar_character(n: int, a: int, b: int, p: int) -> LaurentPolynomial:
    """Bigraded character of the truncated polynomial ring in bidegree (a, b),
    as a multidegree character: h_a^(p) * h_b^(p)."""
    return h_trunc(a, p, n) * h_trunc(b, p, n)


# ---------------------------------------------------------------------------
# verdict-style checks


@dataclass
class FiltrationReport:
    """Per-power comparison of truncated filtration characters with the
    truncated two-row Schur characters."""

    n: int
    a: int
    b: int
    p: int
    hypothesis_met: bool
    rows: list[dict]

    @property
    def agree(self) -> bool:
        return all(r["ok"] for r in self.rows)

    def to_payload(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis_met,
            "rows": self.rows,
        }


def check_iadic_conjecture(n: int, a: int, b: int, p: int) -> FiltrationReport:
    """Compare every truncated filtration quotient in bidegree (a, b) with
    the truncated Schur character of (a+b-i, i).  The stated hypothesis is
    a - b >= p - 1; the comparison runs either way."""
    slices = slice_characters(n, a, b, range(b + 2), True, p)
    rows = []
    for i in range(b + 1):
        computed = slices[i] - slices[i + 1]
        target = schur2_trunc(a + b - i, i, p, n)
        diff = computed - target
        row = {
            "power": i,
            "ok": diff.is_zero(),
            "computed_dim": computed.dimension(),
            "target_dim": target.dimension(),
        }
        if not diff.is_zero():
            exps, coeff = diff.terms()[0]
            row["first_difference"] = {
                "exponents": list(exps),
                "coeff": coeff,
            }
        rows.append(row)
    return FiltrationReport(
        n=n, a=a, b=b, p=p, hypothesis_met=(a - b >= p - 1), rows=rows
    )


@dataclass
class LeadTermReport:
    """Whether every p-semistandard tableau monomial occurs among the
    leading monomials of the b-th truncated ideal power in bidegree (a, b)."""

    n: int
    a: int
    b: int
    p: int
    hypothesis_met: bool
    expected: list[tuple[tuple[int, ...], tuple[int, ...]]]
    pivots: list[tuple[tuple[int, ...], tuple[int, ...]]]
    missing: list[tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def agree(self) -> bool:
        return not self.missing

    def to_payload(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis_met,
            "expected_count": len(self.expected),
            "pivot_count": len(self.pivots),
            "missing": [list(map(list, m)) for m in self.missing],
        }


def check_lead_terms(n: int, a: int, b: int, p: int) -> LeadTermReport:
    slc = ideal_power_slice(n, a, b, b, True, p)
    pivots = {(mono.x_exponents, mono.y_exponents) for mono in leading_monomials(slc)}
    expected = {
        (mono.x_exponents, mono.y_exponents)
        for mono in (tableau_monomial(t, n) for t in enumerate_pssyt(n, a, b, p))
    }
    return LeadTermReport(
        n=n, a=a, b=b, p=p, hypothesis_met=(a - b >= p - 1),
        expected=sorted(expected), pivots=sorted(pivots),
        missing=sorted(expected - pivots),
    )
