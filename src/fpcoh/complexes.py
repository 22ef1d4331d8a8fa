"""Chain complexes attached to weighted path graphs, and their homology.

The path has vertices 0..d carrying integer weights, the tuple
(w_0, ..., w_d), and edges 1..d.  Degree k of the complex is spanned by the
k-element edge subsets; the differential drops one edge at a time, with
coefficient the binomial coefficient of the split component (total weight
over the weight of the piece away from vertex 0) and sign (-1)^(number of
earlier missing edges).  Only w_0 may be negative; binomials with negative
top argument are the falling-factorial ones, so every construction is exact
over Z or Z/p.

A complex keeps its boundary as one CSC matrix of numpy arrays over all its
cells, built by one gather from structure cached per d, and checks d∘d = 0
on it exactly before `linalg.chain_ranks` reads its F_p ranks from it.
`differential(k)` gives d_k densely as row lists, which `smith_invariants`
takes over Z.  `homology_dims` gives the F_p homology as a plain tuple
(dim H_0, ..., dim H_d), as does the closed form `poincare_formula_all_ones`.

The checks of the hook involution, the edge-contraction sequence and stable
periodicity return a verdict status and its payload; a disagreeing payload
carries a witness.  The involution takes its Smith side over Z once per
(w0, d) per process, bounded, and reads F_p ranks off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .combinatorics import binom_int
from .linalg import SMITH_SIZE_LIMIT, chain_ranks, check_modulus, smith_invariants
from .verdicts import AGREE, DISAGREE

# An all-ones complex peaks at 64 MB of RSS for d = 16 (d*2^(d-1) = 524 288
# boundary nonzeros, 67 bytes each above the 31 MB taken before any build)
# and 179 MB for d = 18 (66); at 100 bytes each, 512 MiB allows d <= 19.
MAX_COMPLEX_NONZEROS = 2**29 // 100

# A report writes q = p^r in decimal, and Python writes an int of at most
# 4300 digits; 13 000 bits are about 3900 digits.
MAX_PERIOD_BITS = 13_000


def _weights(w) -> tuple[int, ...]:
    """The vertex weights as a tuple; entries after the first must be >= 0."""
    w = tuple(int(x) for x in w)
    if not w:
        raise ValueError("weight sequence is empty")
    if any(x < 0 for x in w[1:]):
        raise ValueError("only the leading weight may be negative")
    return w


@lru_cache(maxsize=None)
def _masks_by_size(d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Edge subsets of 1..d as bitmasks (bit j-1 for edge j), grouped by
    size, each group in increasing numeric order, and the offset of each
    group.  This is the basis order of every complex matrix, and the cell
    order of the boundary arrays."""
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(d):  # the sizes of 0..2^d - 1, one more bit at a time
        sizes = np.concatenate((sizes, sizes + 1))
    masks = np.argsort(sizes, kind="stable").astype(np.int32)
    offsets = tuple(accumulate((math.comb(d, k) for k in range(d + 1)), initial=0))
    return masks, offsets


@lru_cache(maxsize=None)
def _boundary_structure(d: int) -> tuple[np.ndarray, ...]:
    """The boundary's dependence on d alone, one entry per (cell, edge of
    the cell), by cell in basis order, then by edge: column pointers, the
    cell index of the face without the edge, and the slot of its signed
    binomial in `build_complex`'s table (the run of edges holding the edge,
    the edge, and the parity of the missing edges below it)."""
    masks, _ = _masks_by_size(d)
    index = np.argsort(masks).astype(np.int32)  # cell index of each mask
    bits = masks[:, None] & (1 << np.arange(d, dtype=np.int32)) != 0
    cell, edge = np.divmod(np.flatnonzero(bits).astype(np.int32), np.int32(d))  # edges from 0
    indptr = np.searchsorted(cell, np.arange((1 << d) + 1)).astype(np.int32)
    at = np.arange(len(cell), dtype=np.int32)
    below = at - indptr[cell]  # the cell's edges below this one
    first = (np.diff(edge, prepend=0) != 1) | (below == 0)  # entries that start a run
    lo = edge[np.maximum.accumulate(np.where(first, at, 0))]
    last = np.roll(first, -1)  # entries that end one
    hi = edge[np.minimum.accumulate(np.where(last, at, len(at))[::-1])[::-1]]
    slots = ((edge - below) % 2 * d**3 + (lo * d + edge) * d + hi).astype(np.int16)
    return indptr, index[masks[cell] ^ (1 << edge)], slots


@dataclass(eq=False)
class ChainComplex:
    """Weighted path complex.  Its boundary is one CSC matrix over the cells
    of all degrees in basis order (by size, then by mask): cell c has its
    faces, as cell indices, at rows[indptr[c]:indptr[c+1]] and their nonzero
    coefficients at the same places of `residues` (int32 residues mod p, or
    Python ints over Z).  `boundary(k)` is its block d_k."""

    weights: tuple[int, ...]
    p: int | None
    indptr: np.ndarray
    rows: np.ndarray
    residues: np.ndarray
    _ranks: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.weights) - 1

    def dimension(self, k: int) -> int:
        if 0 <= k <= self.d:
            return math.comb(self.d, k)
        return 0

    def dimensions(self) -> tuple[int, ...]:
        return tuple(math.comb(self.d, k) for k in range(self.d + 1))

    def boundary(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d_k, from degree k to k-1, as a CSC triple (indptr, rows,
        residues) with rows counted within degree k-1."""
        if not 1 <= k <= self.d:
            raise ValueError(f"no differential in degree {k}")
        _, offsets = _masks_by_size(self.d)
        start, stop = self.indptr[offsets[k]], self.indptr[offsets[k + 1]]
        return (self.indptr[offsets[k]:offsets[k + 1] + 1] - start,
                self.rows[start:stop] - offsets[k - 1], self.residues[start:stop])

    def differential(self, k: int) -> list[list[int]]:
        """d_k as dense row lists: integers over Z, residues over Z/p."""
        indptr, rows, residues = self.boundary(k)
        a = np.zeros((self.dimension(k - 1), self.dimension(k)), dtype=residues.dtype)
        a[rows, np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))] = residues
        return a.tolist()

    def ranks(self) -> tuple[int, ...]:
        """Rank of each differential, degree 1 through d; needs a prime field."""
        if self.p is None:
            raise ValueError("rank table requires a prime field complex")
        if self._ranks is None:
            self._ranks = chain_ranks([self.boundary(k) for k in range(1, self.d + 1)], self.p)
        return self._ranks


def build_complex(w, p: int | None = None) -> ChainComplex:
    """Construct the complex over Z (p=None) or over Z/p.

    Only the binomials of the weights are computed here, in O(d^3): one per
    run of edges and edge in it.  One gather puts them in place, signed,
    reduced mod p over Z/p, zeros dropped; a column holds at most one
    nonzero per edge of its cell.  d∘d = 0 is then checked exactly on the
    stored arrays; the ranks over Z/p rely on it.  Sizes past
    MAX_COMPLEX_NONZEROS are refused up front.
    """
    if p is not None:
        check_modulus(p)
    w = _weights(w)
    d = len(w) - 1
    if (nonzeros := d * 2**d // 2) > MAX_COMPLEX_NONZEROS:
        raise ValueError(f"d = {d} gives d*2^(d-1) = {nonzeros} boundary nonzeros, "
                         f"over the budget of {MAX_COMPLEX_NONZEROS}")
    indptr, rows, slots = _boundary_structure(d)
    cum = [0, *accumulate(w)]
    binoms: dict[tuple[int, int], int] = {}
    table = [0] * (2 * d**3)  # (lo*d + e)*d + hi for edges lo <= e <= hi, from 0
    for lo in range(d):
        for hi in range(lo, d):
            for e in range(lo, hi + 1):  # C(weight of lo..hi, weight past e)
                key = (cum[hi + 2] - cum[lo], cum[hi + 2] - cum[e + 1])
                if key not in binoms:
                    c = binom_int(*key)
                    binoms[key] = (c, -c) if p is None else (c % p, -c % p)
                slot = (lo * d + e) * d + hi
                table[slot], table[slot + d**3] = binoms[key]  # the second half negated
    residues = np.array(table, dtype=object if p is None else np.int32)[slots]
    kept = residues != 0
    before = np.zeros(len(kept) + 1, dtype=np.int32)  # kept entries before each one
    np.cumsum(kept, out=before[1:])
    cx = ChainComplex(w, p, before[indptr], rows[kept], residues[kept])
    _verify_square_zero(cx)
    return cx


# Products per pass of the d∘d check; it bounds the check's temporaries.
SQUARE_CHUNK = 2**14


def _verify_square_zero(cx: ChainComplex) -> None:
    """Check d∘d = 0 exactly on the stored arrays: each product of an entry
    (r, c) with an entry (s, r) is summed per (c, s), over Z or mod p, where
    a product of residues < 2**31 fits int64 and is reduced before the sum.
    Chunks of about SQUARE_CHUNK products end at column boundaries, so every
    sum is whole."""
    indptr, rows, residues, p = cx.indptr, cx.rows, cx.residues, cx.p
    ncells = len(indptr) - 1
    sizes = indptr[1:] - indptr[:-1]
    step = SQUARE_CHUNK // max(1, cx.d)  # entries; each gives fewer than d products
    c1 = 0
    while c1 < ncells:
        c0, c1 = c1, max(c1 + 1, int(indptr.searchsorted(indptr[c1] + step, "right")) - 1)
        start, stop = indptr[c0], indptr[c1]
        counts = sizes[rows[start:stop]]
        ends = counts.cumsum()
        if not ends.size or not ends[-1]:
            continue
        picked = np.arange(ends[-1]) + np.repeat(indptr[rows[start:stop]] - ends + counts, counts)
        cols = np.repeat(np.arange(c0 * ncells, c1 * ncells, ncells), sizes[c0:c1])
        keys = np.repeat(cols, counts) + rows[picked]
        upper = residues[start:stop].astype(object if p is None else np.int64)
        products = np.repeat(upper, counts) * residues[picked]
        order = keys.argsort(kind="stable")
        keys = keys[order]
        heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(products[order] if p is None else products[order] % p, heads)
        if (bad := np.flatnonzero(sums if p is None else sums % p)).size:
            masks, _ = _masks_by_size(cx.d)
            k = bin(masks[keys[heads[bad[0]]] // ncells]).count("1")
            raise AssertionError(f"differential square is nonzero at degree {k}")


def homology_dims(cx: ChainComplex) -> tuple[int, ...]:
    """(dim H_0, ..., dim H_d), where dim H_i = dim C_i - rank d_i - rank
    d_{i+1}, with d_0 = d_{d+1} = 0."""
    if cx.p is None:
        raise ValueError("homology dimensions are computed over a prime field")
    ranks = [0] + list(cx.ranks()) + [0]
    dims = tuple(cx.dimension(i) - ranks[i] - ranks[i + 1] for i in range(cx.d + 1))
    if any(c < 0 for c in dims):
        raise AssertionError("negative homology dimension; rank computation broken")
    return dims


def poincare_formula_all_ones(d: int, p: int) -> tuple[int, ...]:
    """Closed form for the homology of the all-ones complex on d edges:
    one class in degree d+1-|alpha|_p per digit tuple alpha of d+1."""
    from .combinatorics import enumerate_A, p_index_total

    coeffs = [0] * (d + 1)
    for alpha in enumerate_A(p, d + 1):
        coeffs[d + 1 - p_index_total(alpha, p)] += 1
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# checks; each returns (status, payload) with a witness when they disagree


def _hook_weights(w0: int, d: int) -> tuple[int, ...]:
    return (w0,) + (1,) * d


def min_power_exceeding(p: int, bound: int) -> int:
    q = 1
    while q <= bound:
        q *= p
    return q


# The (w0, d) whose Z side a process keeps; a sweep's primes at one (w0, d) share it.
HOOK_SMITH_CACHE = 128


@lru_cache(maxsize=HOOK_SMITH_CACHE)
def _hook_smith(w0: int, d: int) -> tuple | None:
    """The Smith invariants over Z of d_1..d_d of C(w0, 1^d) and C(-w0-2d,
    1^d), as two tuples of tuples, or None past SMITH_SIZE_LIMIT."""
    if math.comb(d, d // 2) > SMITH_SIZE_LIMIT:
        return None
    return tuple(tuple(smith_invariants(cx.differential(k)) for k in range(1, d + 1))
                 for cx in (build_complex(_hook_weights(w, d)) for w in (w0, -w0 - 2 * d)))


def check_involution(w0: int, d: int, p: int) -> tuple[str, dict]:
    """Rank comparison between C(w0, 1^d), its negated partner
    C(-w0-2d, 1^d), and the shifted partner C(q-w0-2d, 1^d) over Z/p,
    plus Smith invariants over Z, taken once per (w0, d) per process, when
    the matrices are small enough.  The direct and negated F_p ranks are
    then read off them (the invariants of d_k prime to p), and only the
    shifted complex is built over Z/p; past the Smith limit all three are.  The
    witness is the first degree where the direct and shifted ranks differ,
    else the two Smith lists.  Refuses w0 < 0: there the rank tables
    disagree for many (w0, d, p), most of them with w0 + 2d <= 0 where the
    shift q is 1, and the pairing is not claimed in that range."""
    if d < 0:
        raise ValueError(f"need d >= 0, got d = {d}")
    if w0 < 0:
        raise ValueError(f"need w0 >= 0, got w0 = {w0}")
    check_modulus(p)  # before min_power_exceeding, which never ends for p < 2
    q = min_power_exceeding(p, w0 + 2 * d)
    shifted = build_complex(_hook_weights(q - w0 - 2 * d, d), p)
    ranks_c = list(shifted.ranks())
    if smith := _hook_smith(w0, d):  # fresh lists for every payload
        smith_a, smith_b = ([list(inv) for inv in side] for side in smith)
        ranks_a, ranks_b = ([sum(1 for s in inv if s % p) for inv in side] for side in smith)
    else:  # past the Smith limit the F_p builds are the only path
        smith_a = smith_b = None
        ranks_a, ranks_b = (list(build_complex(_hook_weights(w, d), p).ranks())
                            for w in (w0, -w0 - 2 * d))
    agree_ranks = ranks_a == ranks_b == ranks_c
    agree_smith = None if smith_a is None else smith_a == smith_b
    payload = {
        "shift": q,
        "dimensions": list(shifted.dimensions()),
        "ranks_direct": ranks_a,
        "ranks_negated": ranks_b,
        "ranks_shifted": ranks_c,
        "smith_direct": smith_a,
        "smith_negated": smith_b,
        "agree_ranks": agree_ranks,
        "agree_smith": agree_smith,
    }
    if agree_ranks and agree_smith is not False:
        return AGREE, payload
    k = next((k for k, (a, c) in enumerate(zip(ranks_a, ranks_c)) if a != c), None)
    if k is None:
        payload["witness"] = {"smith_direct": smith_a, "smith_negated": smith_b}
    else:
        payload["witness"] = {"degree": k + 1, "direct": ranks_a[k], "shifted": ranks_c[k]}
    return DISAGREE, payload


def ses_dimension_check(w, split: int, p: int) -> tuple[str, dict]:
    """Checks the degreewise size bookkeeping of the edge-contraction short
    exact sequence: subcomplex = tensor of the two sides, quotient = the
    contracted complex shifted up by one.  The witness is the first failing
    dimension row, then the first failing subadditivity row, else the Euler
    characteristics."""
    w = _weights(w)
    d = len(w) - 1
    if not 0 <= split < d:
        raise ValueError("split index must satisfy 0 <= split < d")
    left, right = w[: split + 1], w[split + 1 :]
    merged = w[:split] + (w[split] + w[split + 1],) + w[split + 2 :]

    d1, d2 = len(left) - 1, len(right) - 1
    h_left = homology_dims(build_complex(left, p))
    h_right = homology_dims(build_complex(right, p))
    h_merged = homology_dims(build_complex(merged, p))
    h_total = homology_dims(build_complex(w, p))

    dim_rows, sub_rows = [], []
    for k in range(d + 1):
        k1s = range(max(0, k - d2), min(d1, k) + 1)  # the k1 with both sides in range
        total = math.comb(d, k)
        tensor = sum(math.comb(d1, k1) * math.comb(d2, k - k1) for k1 in k1s)
        quotient = math.comb(d - 1, k - 1) if k else 0
        dim_rows.append({"degree": k, "total": total, "tensor": tensor, "quotient": quotient,
                         "ok": total == tensor + quotient})
        bound = sum(h_left[k1] * h_right[k - k1] for k1 in k1s) + (h_merged[k - 1] if k else 0)
        sub_rows.append({"degree": k, "homology": h_total[k], "bound": bound,
                         "ok": h_total[k] <= bound})

    # the Euler characteristics are the alternating sums of the dimension rows;
    # the quotient's is minus the merged complex's, one degree down
    chi_total, chi_tensor, chi_quotient = (sum((-1) ** r["degree"] * r[key] for r in dim_rows)
                                           for key in ("total", "tensor", "quotient"))
    euler = {"total": chi_total, "tensor": chi_tensor, "merged": -chi_quotient,
             "ok": chi_total == chi_tensor + chi_quotient}
    payload = {"dimensions": dim_rows, "euler": euler, "subadditivity": sub_rows}
    witness = next((r for r in dim_rows + sub_rows if not r["ok"]), euler)
    if witness["ok"]:
        return AGREE, payload
    payload["witness"] = witness
    return DISAGREE, payload


def stable_hook_cohomology(w0: int, d: int, p: int) -> dict[int, int]:
    """Stable cohomology dimensions of the hook with column sizes (w0, 1^d):
    cohomological degree j holds homology degree d + w0 - j of the complex."""
    if w0 < 1 or d < 0:
        raise ValueError("need w0 >= 1 and d >= 0")
    hdims = homology_dims(build_complex(_hook_weights(w0, d), p))
    return {d + w0 - i: hdims[i] for i in range(d, -1, -1)}


def check_stable_periodicity_hook(w0: int, d: int, p: int, r: int) -> tuple[str, dict]:
    """Compare hook homology before and after adding q = p^r to the first
    column size; q must exceed d.  The witness is the first degree where
    they differ."""
    if w0 < 1 or d < 0:
        raise ValueError("need w0 >= 1 and d >= 0")
    if r < 0:
        raise ValueError("r must be non-negative")
    if (r * (p.bit_length() - 1) >= MAX_PERIOD_BITS  # below p^r's bit count
            or (q := p**r).bit_length() > MAX_PERIOD_BITS):
        raise ValueError(f"period p^r = {p}^{r} has more than {MAX_PERIOD_BITS} bits")
    if q <= d:
        raise ValueError(f"period p^r = {q} must exceed d = {d}")
    base = homology_dims(build_complex(_hook_weights(w0, d), p))
    shifted = homology_dims(build_complex(_hook_weights(w0 + q, d), p))
    payload = {"q": q, "base": list(base), "shifted": list(shifted)}
    if base == shifted:
        return AGREE, payload
    k = next(k for k, (x, y) in enumerate(zip(base, shifted)) if x != y)
    payload["witness"] = {"degree": k, "base": base[k], "shifted": shifted[k]}
    return DISAGREE, payload
