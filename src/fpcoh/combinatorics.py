"""Binomial arithmetic, digit combinatorics, and two-row tableaux."""

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
    lexicographic order; none when total < 0 or total > sum(caps).  The next
    one raises the rightmost part that can grow by one and refills the parts
    after it, each as small as the caps after it allow."""
    n = len(caps)
    tails = list(accumulate(reversed(caps), initial=0))[::-1]  # sums of caps[i:]
    if not 0 <= total <= tails[0]:
        return
    parts = [0] * n
    i, rest = -1, total  # refill the parts after i with rest
    while True:
        for j in range(i + 1, n):
            v = rest - tails[j + 1]  # what the caps after j cannot hold
            parts[j] = v = v if v > 0 else 0
            rest -= v
        yield tuple(parts)
        i, rest = n - 1, 0  # rest is the sum of parts[i + 1:]
        while i >= 0 and (rest == 0 or parts[i] == caps[i]):
            rest += parts[i]
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        rest -= 1


def decreasing_compositions(total: int, caps: tuple[int, ...]):
    """The weakly decreasing members of compositions(total, caps), in the same
    order.  With equal caps they are one representative per orbit of the
    permutations of the parts (see orbit)."""

    def rec(i: int, remaining: int, prefix: tuple[int, ...], top: int):
        if i == len(caps):
            if remaining == 0:
                yield prefix
            return
        lo = -(-remaining // (len(caps) - i))  # the later parts are at most v
        for v in range(max(lo, 0), min(caps[i], top, remaining) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,), v)

    yield from rec(0, total, (), total)


def orbit(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct rearrangements of parts, in ascending lexicographic order:
    next permutation from the sorted parts, so no rearrangement repeats."""
    word, out = sorted(parts), []
    while True:
        out.append(tuple(word))
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


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


def _words(n: int, length: int, cap: int) -> list[tuple[int, ...]]:
    """Weakly increasing words over 1..n in lexicographic order, no letter
    repeated more than cap times: their letter counts are the compositions
    of length with parts at most cap, read in reverse order."""
    return [
        tuple(x for x, c in enumerate(counts, 1) for _ in range(c))
        for counts in reversed(list(compositions(length, (cap,) * n)))
    ]


def enumerate_ssyt(n: int, a: int, b: int) -> list[TwoRowTableau]:
    """Semistandard fillings of shape (a, b) with entries in 1..n: weakly
    increasing rows, strictly increasing columns.  Lexicographic on (u, v)."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    out = []
    for u in _words(n, a, a):
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


def enumerate_pssyt(n: int, a: int, b: int, p: int) -> list[TwoRowTableau]:
    """p-semistandard fillings of shape (a, b), lexicographic on (u, v)."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    if p < 2:
        raise ValueError("p must be at least 2")
    out = []
    bottoms = _words(n, b, p - 1)
    for u in _words(n, a, p - 1):
        for v in bottoms:
            if any(u[i] > v[i] for i in range(b)):
                continue
            if all(
                u[j] != v[j] or _equal_column_rule(u, v, j, p) for j in range(b)
            ):
                out.append(TwoRowTableau(u, v))
    return out
