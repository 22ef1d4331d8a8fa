"""Chain complexes attached to weighted path graphs, and their homology.

The path has vertices 0..d carrying integer weights (w_0, ..., w_d) and
edges 1..d.  Degree k of the complex is spanned by the k-element edge
subsets; the differential drops one edge at a time, with coefficient the
binomial coefficient of the split component (total weight over the weight
of the piece away from vertex 0) and sign (-1)^(number of earlier missing
edges).  Only w_0 may be negative; binomials with negative top argument are
the falling-factorial ones, so every construction is exact over Z or Z/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .combinatorics import binom_int
from .linalg import (
    SMITH_SIZE_LIMIT,
    IntegerMatrix,
    PrimeFieldMatrix,
    check_modulus,
    smith_invariants,
)


@dataclass(frozen=True)
class WeightSequence:
    """Vertex weights of the path; entries after the first must be >= 0."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("weight sequence is empty")
        if any(x < 0 for x in entries[1:]):
            raise ValueError("only the leading weight may be negative")

    @classmethod
    def of(cls, w) -> "WeightSequence":
        if isinstance(w, WeightSequence):
            return w
        return cls(tuple(w))

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def total(self) -> int:
        return sum(self.entries)

    def tail_total(self) -> int:
        return sum(self.entries[1:])

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


@dataclass(frozen=True)
class PoincarePolynomial:
    """Homology dimensions as coefficients of powers of t."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(int(c) for c in self.coefficients)
        )

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def total(self) -> int:
        return sum(self.coefficients)

    def stripped(self) -> tuple[int, ...]:
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        return self.stripped() == other.stripped()

    def __hash__(self):
        return hash(self.stripped())

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _masks_by_size(d: int) -> tuple[tuple[int, ...], ...]:
    """Edge subsets of 1..d as bitmasks (bit j-1 for edge j), grouped by
    size, each group in increasing numeric order.  This is the basis order
    of every complex matrix."""
    groups: list[list[int]] = [[] for _ in range(d + 1)]
    for mask in range(1 << d):
        groups[bin(mask).count("1")].append(mask)
    return tuple(tuple(g) for g in groups)


@dataclass
class ChainComplex:
    """Weighted path complex; boundaries[k-1] is the map from degree k to k-1."""

    weights: WeightSequence
    p: int | None
    boundaries: tuple

    @property
    def d(self) -> int:
        return self.weights.d

    def dimension(self, k: int) -> int:
        if 0 <= k <= self.d:
            return math.comb(self.d, k)
        return 0

    def dimensions(self) -> tuple[int, ...]:
        return tuple(math.comb(self.d, k) for k in range(self.d + 1))

    def differential(self, k: int):
        if not 1 <= k <= self.d:
            raise ValueError(f"no differential in degree {k}")
        return self.boundaries[k - 1]

    def basis(self, k: int) -> tuple[int, ...]:
        return _masks_by_size(self.d)[k]

    def ranks(self) -> tuple[int, ...]:
        """Rank of each differential, degree 1 through d; needs a prime field."""
        if self.p is None:
            raise ValueError("rank table requires a prime field complex")
        return tuple(m.rank() for m in self.boundaries)


def build_complex(w, p: int | None = None, verify: bool = True) -> ChainComplex:
    """Construct the complex over Z (p=None) or over Z/p.

    Each boundary is assembled from its nonzeros: the column of a k-cell
    holds one (row, coefficient) pair per edge it contains, reduced mod p
    over Z/p.  With verify=True, d_{k-1} d_k = 0 is checked exactly on
    these column lists, one column of d_k at a time, over Z or mod p.
    """
    if p is not None:
        check_modulus(p)
    ws = WeightSequence.of(w)
    d = ws.d
    cum = [0, *accumulate(ws.entries)]
    masks = _masks_by_size(d)
    binom = lru_cache(maxsize=None)(binom_int)
    columns = []  # columns[k-1][c]: the nonzeros of column c of d_k
    for k in range(1, d + 1):
        row_index = {mask: r for r, mask in enumerate(masks[k - 1])}
        cols = []
        for mask in masks[k]:
            col = []
            missing = 0  # edges below j absent from the mask: the sign exponent
            j = 1
            while j <= d:
                if not (mask >> (j - 1)) & 1:
                    missing += 1
                    j += 1
                    continue
                lo = hi = j  # the run of edges lo..hi, split at each of its edges
                while hi < d and (mask >> hi) & 1:
                    hi += 1
                for j in range(lo, hi + 1):
                    c = binom(cum[hi + 1] - cum[lo - 1], cum[hi + 1] - cum[j])
                    c = -c if missing & 1 else c
                    col.append((row_index[mask ^ (1 << (j - 1))], c if p is None else c % p))
                j = hi + 1
            cols.append(col)
        columns.append(cols)
    if verify:
        _verify_square_zero(columns, p)
    boundaries = tuple(
        _boundary(len(masks[k - 1]), cols, p) for k, cols in enumerate(columns, 1)
    )
    return ChainComplex(ws, p, boundaries)


def _boundary(nrows: int, cols: list, p: int | None):
    a = np.zeros((nrows, len(cols)), dtype=object if p is None else np.int64)
    rows, values = zip(*chain.from_iterable(cols))
    a[rows, [c for c, col in enumerate(cols) for _ in col]] = values
    return IntegerMatrix(a.tolist()) if p is None else PrimeFieldMatrix.from_reduced(p, a)


def _verify_square_zero(columns: list, p: int | None) -> None:
    for k, (lower, upper) in enumerate(zip(columns, columns[1:]), 2):
        for col in upper:
            acc: dict[int, int] = {}
            for r, u in col:
                for s, v in lower[r]:
                    acc[s] = acc.get(s, 0) + u * v
            if any(x if p is None else x % p for x in acc.values()):
                raise AssertionError(f"differential square is nonzero at degree {k}")


def homology_dims(cx: ChainComplex) -> PoincarePolynomial:
    """dim H_i = dim C_i - rank d_i - rank d_{i+1}, with d_0 = d_{d+1} = 0."""
    if cx.p is None:
        raise ValueError("homology dimensions are computed over a prime field")
    ranks = [0] + list(cx.ranks()) + [0]
    coeffs = [cx.dimension(i) - ranks[i] - ranks[i + 1] for i in range(cx.d + 1)]
    if any(c < 0 for c in coeffs):
        raise AssertionError("negative homology dimension; rank computation broken")
    return PoincarePolynomial(tuple(coeffs))


def poincare_formula_all_ones(d: int, p: int) -> PoincarePolynomial:
    """Closed form for the homology of the all-ones complex on d edges:
    one class in degree d+1-|alpha|_p per digit tuple alpha of d+1."""
    from .combinatorics import enumerate_A, p_index_total

    coeffs = [0] * (d + 1)
    for alpha in enumerate_A(p, d + 1):
        coeffs[d + 1 - p_index_total(alpha, p)] += 1
    return PoincarePolynomial(tuple(coeffs))


def lucas_reduce(w, p: int) -> WeightSequence:
    """Strip powers of p from the leading weight while some p^r exceeds the
    tail sum, largest power first.  Homology over Z/p is unchanged."""
    ws = WeightSequence.of(w)
    if ws.entries[0] < 0:
        raise ValueError("leading weight must be non-negative for reduction")
    head = ws.entries[0]
    tail = ws.tail_total()
    while head > tail and head > 0:
        q = 1
        while q * p <= head:
            q *= p
        if q <= tail:
            break
        head -= q
    return WeightSequence((head,) + ws.entries[1:])


# ---------------------------------------------------------------------------
# reports


@dataclass
class InvolutionReport:
    """Rank comparison between C(w0, 1^d), its negated partner
    C(-w0-2d, 1^d), and the shifted partner C(q-w0-2d, 1^d) over Z/p,
    plus Smith invariants over Z when the matrices are small enough."""

    w0: int
    d: int
    p: int
    shift: int
    dimensions: tuple[int, ...]
    ranks_direct: tuple[int, ...]
    ranks_negated: tuple[int, ...]
    ranks_shifted: tuple[int, ...]
    smith_direct: tuple[tuple[int, ...], ...] | None
    smith_negated: tuple[tuple[int, ...], ...] | None
    agree_ranks: bool
    agree_smith: bool | None

    @property
    def agree(self) -> bool:
        return self.agree_ranks and self.agree_smith is not False

    def to_payload(self) -> dict:
        return {
            "shift": self.shift,
            "dimensions": list(self.dimensions),
            "ranks_direct": list(self.ranks_direct),
            "ranks_negated": list(self.ranks_negated),
            "ranks_shifted": list(self.ranks_shifted),
            "smith_direct": _smith_payload(self.smith_direct),
            "smith_negated": _smith_payload(self.smith_negated),
            "agree_ranks": self.agree_ranks,
            "agree_smith": self.agree_smith,
        }


def _smith_payload(data):
    return None if data is None else [list(t) for t in data]


def _hook_weights(w0: int, d: int) -> tuple[int, ...]:
    return (w0,) + (1,) * d


def min_power_exceeding(p: int, bound: int) -> int:
    q = 1
    while q <= bound:
        q *= p
    return q


def check_involution(w0: int, d: int, p: int) -> InvolutionReport:
    direct = build_complex(_hook_weights(w0, d), p)
    negated = build_complex((-w0 - 2 * d,) + (1,) * d, p)
    q = min_power_exceeding(p, w0 + 2 * d)
    shifted = build_complex(_hook_weights(q - w0 - 2 * d, d), p)
    ranks_a, ranks_b, ranks_c = direct.ranks(), negated.ranks(), shifted.ranks()
    smith_a = smith_b = None
    if math.comb(d, d // 2) <= SMITH_SIZE_LIMIT:
        za = build_complex(_hook_weights(w0, d), None)
        zb = build_complex((-w0 - 2 * d,) + (1,) * d, None)
        smith_a = tuple(tuple(smith_invariants(m)) for m in za.boundaries)
        smith_b = tuple(tuple(smith_invariants(m)) for m in zb.boundaries)
    agree_ranks = ranks_a == ranks_b == ranks_c
    agree_smith = None if smith_a is None else smith_a == smith_b
    return InvolutionReport(
        w0=w0,
        d=d,
        p=p,
        shift=q,
        dimensions=direct.dimensions(),
        ranks_direct=ranks_a,
        ranks_negated=ranks_b,
        ranks_shifted=ranks_c,
        smith_direct=smith_a,
        smith_negated=smith_b,
        agree_ranks=agree_ranks,
        agree_smith=agree_smith,
    )


@dataclass
class SesReport:
    """Checks the degreewise size bookkeeping of the edge-contraction short
    exact sequence: subcomplex = tensor of the two sides, quotient = the
    contracted complex shifted up by one."""

    weights: tuple[int, ...]
    split: int
    p: int
    dimension_rows: list[dict]
    euler_total: int
    euler_tensor: int
    euler_merged: int
    subadditivity_rows: list[dict]

    @property
    def agree(self) -> bool:
        return (
            all(r["ok"] for r in self.dimension_rows)
            and self.euler_total == self.euler_tensor - self.euler_merged
            and all(r["ok"] for r in self.subadditivity_rows)
        )

    def to_payload(self) -> dict:
        return {
            "dimensions": self.dimension_rows,
            "euler": {
                "total": self.euler_total,
                "tensor": self.euler_tensor,
                "merged": self.euler_merged,
                "ok": self.euler_total == self.euler_tensor - self.euler_merged,
            },
            "subadditivity": self.subadditivity_rows,
        }


def ses_dimension_check(w, split: int, p: int) -> SesReport:
    ws = WeightSequence.of(w)
    d = ws.d
    if not 0 <= split < d:
        raise ValueError("split index must satisfy 0 <= split < d")
    left = ws.entries[: split + 1]
    right = ws.entries[split + 1 :]
    merged = ws.entries[:split] + (
        ws.entries[split] + ws.entries[split + 1],
    ) + ws.entries[split + 2 :]

    d1, d2 = len(left) - 1, len(right) - 1
    h_left = homology_dims(build_complex(left, p)).coefficients
    h_right = homology_dims(build_complex(right, p)).coefficients
    h_merged = homology_dims(build_complex(merged, p)).coefficients
    h_total = homology_dims(build_complex(ws, p)).coefficients

    dim_rows = []
    for k in range(d + 1):
        tensor = sum(
            math.comb(d1, k1) * math.comb(d2, k - k1)
            for k1 in range(max(0, k - d2), min(d1, k) + 1)
        )
        quotient = math.comb(d - 1, k - 1) if k >= 1 else 0
        total = math.comb(d, k)
        dim_rows.append(
            {
                "degree": k,
                "total": total,
                "tensor": tensor,
                "quotient": quotient,
                "ok": total == tensor + quotient,
            }
        )

    euler_total = sum((-1) ** k * math.comb(d, k) for k in range(d + 1))
    euler_tensor = sum(
        (-1) ** k1 * math.comb(d1, k1) for k1 in range(d1 + 1)
    ) * sum((-1) ** k2 * math.comb(d2, k2) for k2 in range(d2 + 1))
    euler_merged = sum((-1) ** k * math.comb(d - 1, k) for k in range(d))

    sub_rows = []
    for k in range(d + 1):
        kunneth = sum(
            (h_left[k1] if k1 <= d1 else 0) * (h_right[k - k1] if 0 <= k - k1 <= d2 else 0)
            for k1 in range(0, k + 1)
        )
        shifted = h_merged[k - 1] if 1 <= k <= d else 0
        bound = kunneth + shifted
        sub_rows.append(
            {
                "degree": k,
                "homology": h_total[k],
                "bound": bound,
                "ok": h_total[k] <= bound,
            }
        )

    return SesReport(
        weights=ws.entries,
        split=split,
        p=p,
        dimension_rows=dim_rows,
        euler_total=euler_total,
        euler_tensor=euler_tensor,
        euler_merged=euler_merged,
        subadditivity_rows=sub_rows,
    )


def stable_hook_cohomology(w0: int, d: int, p: int) -> dict[int, int]:
    """Stable cohomology dimensions of the hook with column sizes (w0, 1^d):
    cohomological degree j holds homology degree d + w0 - j of the complex."""
    if w0 < 1 or d < 0:
        raise ValueError("need w0 >= 1 and d >= 0")
    hdims = homology_dims(build_complex(_hook_weights(w0, d), p)).coefficients
    return {d + w0 - i: hdims[i] for i in range(d, -1, -1)}


@dataclass
class PeriodicityReport:
    w0: int
    d: int
    p: int
    q: int
    base: PoincarePolynomial
    shifted: PoincarePolynomial

    @property
    def agree(self) -> bool:
        return self.base == self.shifted

    def to_payload(self) -> dict:
        return {
            "q": self.q,
            "base": list(self.base.coefficients),
            "shifted": list(self.shifted.coefficients),
        }


def check_stable_periodicity_hook(w0: int, d: int, p: int, r: int) -> PeriodicityReport:
    """Compare hook homology before and after adding q = p^r to the first
    column size; q must exceed d."""
    if r < 0:
        raise ValueError("r must be non-negative")
    q = p**r
    if q <= d:
        raise ValueError(f"period p^r = {q} must exceed d = {d}")
    base = homology_dims(build_complex(_hook_weights(w0, d), p))
    shifted = homology_dims(build_complex(_hook_weights(w0 + q, d), p))
    return PeriodicityReport(w0=w0, d=d, p=p, q=q, base=base, shifted=shifted)
