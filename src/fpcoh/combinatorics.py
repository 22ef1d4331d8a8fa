"""Binomial arithmetic, digit combinatorics, ribbons, and two-row tableaux."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate


def binom_int(m: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) top argument.

    For m < 0 this is the falling-factorial value
    C(m, k) = m(m-1)...(m-k+1)/k! = (-1)^k C(-m+k-1, k).
    """
    if k < 0:
        raise ValueError("lower index must be non-negative")
    if m >= 0:
        return math.comb(m, k)
    return (-1) ** k * math.comb(-m + k - 1, k)


def compositions(total: int, caps: tuple[int, ...]):
    """Weak compositions of total with 0 <= part i <= caps[i], in ascending
    lexicographic order; none when total < 0 or total > sum(caps)."""
    tails = list(accumulate(reversed(caps), initial=0))[::-1]  # sums of caps[i:]

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(caps):
            yield prefix
            return
        for v in range(max(0, remaining - tails[i + 1]), min(caps[i], remaining) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    if 0 <= total <= tails[0]:
        yield from rec(0, total, ())


def nim_sum(values) -> int:
    return reduce(lambda a, b: a ^ b, values, 0)


def p_index(m: int, p: int) -> int:
    """The index 2a+b of m = pa+b with b in {0,1}; other residues are invalid."""
    if m < 0:
        raise ValueError("argument must be non-negative")
    a, b = divmod(m, p)
    if b > 1:
        raise ValueError(f"{m} is not congruent to 0 or 1 mod {p}")
    return 2 * a + b


def p_index_total(alpha, p: int) -> int:
    return sum(p_index(x, p) for x in alpha)


def enumerate_A(p: int, d: int):
    """All tuples (a_0, ..., a_k) with sum a_i p^i = d, every a_i >= 0 and
    congruent to 0 or 1 mod p, written without trailing zeros."""
    if d < 0:
        raise ValueError("d must be non-negative")

    def rec(remaining: int):
        if remaining == 0:
            return [()]
        out = []
        first = remaining % p
        if first > 1:
            return out
        for a0 in range(first, remaining + 1, p):
            if a0 % p > 1:
                continue
            for tail in rec((remaining - a0) // p):
                out.append((a0,) + tail)
        return out

    return sorted(rec(d))


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


# ---------------------------------------------------------------------------
# ribbons


@dataclass(frozen=True)
class RibbonShape:
    """Skew shape outer/inner containing no 2x2 square."""

    outer: tuple[int, ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        outer = tuple(int(x) for x in self.outer)
        inner = tuple(int(x) for x in self.inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        if not outer:
            raise ValueError("outer partition is empty")
        if any(x <= 0 for x in outer) or any(x < 0 for x in inner):
            raise ValueError("partition parts must be positive")
        if any(outer[i] < outer[i + 1] for i in range(len(outer) - 1)):
            raise ValueError("outer is not weakly decreasing")
        if any(inner[i] < inner[i + 1] for i in range(len(inner) - 1)):
            raise ValueError("inner is not weakly decreasing")
        if len(inner) > len(outer):
            raise ValueError("inner has more rows than outer")
        padded = inner + (0,) * (len(outer) - len(inner))
        if any(padded[i] > outer[i] for i in range(len(outer))):
            raise ValueError("inner does not fit inside outer")
        spans = _column_spans(outer, padded)
        for j in range(len(spans) - 1):
            if spans[j] is None or spans[j + 1] is None:
                continue
            if spans[j + 1][1] > spans[j][0]:
                raise ValueError("shape contains a 2x2 square")

    def size(self) -> int:
        padded = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return sum(o - i for o, i in zip(self.outer, padded))


def _column_spans(outer, inner_padded):
    """(top row, bottom row) of each column, 1-based; None for empty columns."""
    ncols = outer[0]
    spans = []
    for j in range(1, ncols + 1):
        rows = [i + 1 for i in range(len(outer)) if inner_padded[i] < j <= outer[i]]
        spans.append((min(rows), max(rows)) if rows else None)
    return spans


def ribbon_to_columns(shape: RibbonShape) -> tuple[int, ...]:
    """Column sizes of a connected ribbon, read left to right."""
    padded = shape.inner + (0,) * (len(shape.outer) - len(shape.inner))
    spans = _column_spans(shape.outer, padded)
    if any(s is None for s in spans):
        raise ValueError("ribbon is disconnected: empty column")
    for j in range(len(spans) - 1):
        if spans[j + 1][1] < spans[j][0]:
            raise ValueError("ribbon is disconnected")
    return tuple(s[1] - s[0] + 1 for s in spans)


def columns_to_ribbon(columns) -> RibbonShape:
    """Connected ribbon with the given column sizes, leftmost first."""
    sizes = tuple(int(x) for x in columns)
    if not sizes or any(x < 1 for x in sizes):
        raise ValueError("column sizes must be positive")
    ncols = len(sizes)
    top = [0] * ncols
    bottom = [0] * ncols
    top[ncols - 1] = 1
    bottom[ncols - 1] = sizes[-1]
    for j in range(ncols - 2, -1, -1):
        top[j] = bottom[j + 1]
        bottom[j] = top[j] + sizes[j] - 1
    nrows = bottom[0]
    outer = []
    inner = []
    for i in range(1, nrows + 1):
        cols = [j + 1 for j in range(ncols) if top[j] <= i <= bottom[j]]
        outer.append(max(cols))
        inner.append(min(cols) - 1)
    while inner and inner[-1] == 0:
        inner.pop()
    return RibbonShape(tuple(outer), tuple(inner))


def hook_columns(w0: int, d: int) -> tuple[int, ...]:
    """Column sizes (w0, 1, ..., 1) of the hook partition (d+1, 1^(w0-1))."""
    if w0 < 1 or d < 0:
        raise ValueError("need w0 >= 1 and d >= 0")
    return (w0,) + (1,) * d


# ---------------------------------------------------------------------------
# two-row tableaux


@dataclass(frozen=True, order=True)
class TwoRowTableau:
    """Filling of a two-row shape (a, b): top word u of length a >= b,
    bottom word v of length b."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(int(x) for x in self.top))
        object.__setattr__(self, "bottom", tuple(int(x) for x in self.bottom))
        if len(self.bottom) > len(self.top):
            raise ValueError("bottom row longer than top row")
        if any(x < 1 for x in self.top + self.bottom):
            raise ValueError("entries must be positive integers")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.top), len(self.bottom))

    def weight(self, n: int) -> tuple[int, ...]:
        counts = [0] * n
        for x in self.top + self.bottom:
            if x > n:
                raise ValueError(f"entry {x} exceeds alphabet size {n}")
            counts[x - 1] += 1
        return tuple(counts)


def _weakly_increasing_words(n: int, length: int, max_run: int | None = None):
    """All weakly increasing words over 1..n, lexicographic order.  max_run
    bounds the length of any constant run."""

    word: list[int] = []

    def rec(pos: int):
        if pos == length:
            yield tuple(word)
            return
        lo = word[-1] if word else 1
        for x in range(lo, n + 1):
            if max_run is not None and len(word) >= max_run:
                if all(word[-k] == x for k in range(1, max_run + 1)):
                    continue
            word.append(x)
            yield from rec(pos + 1)
            word.pop()

    yield from rec(0)


def is_semistandard(t: TwoRowTableau) -> bool:
    u, v = t.top, t.bottom
    if any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        return False
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        return False
    return all(u[i] < v[i] for i in range(len(v)))


def enumerate_ssyt(n: int, a: int, b: int) -> list[TwoRowTableau]:
    """Semistandard fillings of shape (a, b) with entries in 1..n: weakly
    increasing rows, strictly increasing columns.  Lexicographic on (u, v)."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    out = []
    for u in _weakly_increasing_words(n, a):
        for v in _column_strict_bottoms(n, u, b):
            out.append(TwoRowTableau(u, v))
    return out


def _column_strict_bottoms(n: int, u: tuple[int, ...], b: int):
    word: list[int] = []

    def rec(pos: int):
        if pos == b:
            yield tuple(word)
            return
        lo = max(word[-1] if word else 1, u[pos] + 1)
        for x in range(lo, n + 1):
            word.append(x)
            yield from rec(pos + 1)
            word.pop()

    yield from rec(0)


def _equal_column_rule(u: tuple[int, ...], v: tuple[int, ...], j: int, p: int) -> bool:
    """Rule for a column j (0-based) with u_j = v_j: the run of that value to
    the right in u plus the run to the left in v must have length >= p."""
    x = u[j]
    r = j
    while r + 1 < len(u) and u[r + 1] == x:
        r += 1
    s = j
    while s - 1 >= 0 and v[s - 1] == x:
        s -= 1
    return (r - j + 1) + (j - s + 1) >= p


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


def enumerate_pssyt(n: int, a: int, b: int, p: int) -> list[TwoRowTableau]:
    """p-semistandard fillings of shape (a, b), lexicographic on (u, v)."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    if p < 2:
        raise ValueError("p must be at least 2")
    out = []
    for u in _weakly_increasing_words(n, a, max_run=p - 1):
        for v in _weakly_increasing_words(n, b, max_run=p - 1):
            if any(u[i] > v[i] for i in range(b)):
                continue
            if all(
                u[j] != v[j] or _equal_column_rule(u, v, j, p) for j in range(b)
            ):
                out.append(TwoRowTableau(u, v))
    return out
