"""Binomial arithmetic, digit combinatorics, and two-row tableaux.

A two-row tableau is the pair (u, v) of its top and bottom words, tuples of
letters 1..n; the enumerators list them in lexicographic order on (u, v).
For each top word, the bottom words are walked one column at a time, so
only the letters a column allows are ever tried."""

from __future__ import annotations

import math
from collections.abc import Iterator
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

Tableau = tuple  # (u, v): top word of length a, bottom word of length b <= a


def _words(n: int, length: int, cap: int) -> list[tuple[int, ...]]:
    """Weakly increasing words over 1..n in lexicographic order, no letter
    repeated more than cap times: their letter counts are the compositions
    of length with parts at most cap, read in reverse order."""
    return [
        tuple(x for x, c in enumerate(counts, 1) for _ in range(c))
        for counts in reversed(list(compositions(length, (cap,) * n)))
    ]


def enumerate_ssyt(n: int, a: int, b: int) -> list[Tableau]:
    """Semistandard fillings (u, v) of shape (a, b) with entries in 1..n:
    weakly increasing rows, strictly increasing columns.  Lexicographic on
    (u, v).  They are the (a + 2)-semistandard ones: no row has room for a
    run of a + 1 letters, the run cap, and the runs around an equal column
    hold at most a + 1 < a + 2 letters, so no column may be equal."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    return list(enumerate_pssyt(n, a, b, a + 2))


def enumerate_pssyt(n: int, a: int, b: int, p: int) -> Iterator[Tableau]:
    """p-semistandard fillings (u, v) of shape (a, b), yielded lexicographic on (u, v):
    weakly increasing rows with no run of p equal letters, weakly increasing
    columns, and at a column j with u_j = v_j = x, the run of x in u from j
    rightwards plus the run of x in v up to j hold at least p letters.

    Each bottom word v is walked column by column below a top word u, with
    letters from max(u_j, v_(j-1)) up to n in ascending order; a letter that
    breaks the run cap or the equal-column rule ends its branch at once."""
    if b > a or a < 0 or b < 0:
        raise ValueError("invalid shape")
    if p < 2:
        raise ValueError("p must be at least 2")
    bottoms: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per bottom word
    v, runs = [0] * b, [0] * b  # runs[j]: the run of v[j] in v up to j
    for u in _words(n, a, p - 1):
        if not b:
            yield u, ()
            continue
        right = [1] * a  # right[j]: the run of u[j] in u from j rightwards
        for j in range(a - 2, -1, -1):
            if u[j] == u[j + 1]:
                right[j] = right[j + 1] + 1
        j, x = 0, u[0]  # next: try letters x, x + 1, ... at column j
        while j >= 0:
            while x <= n:
                run = runs[j - 1] + 1 if j and x == v[j - 1] else 1
                if run < p and (x != u[j] or right[j] + run >= p):
                    break
                x += 1
            if x > n:  # column j is spent: back to the next letter of j - 1
                j -= 1
                x = v[j] + 1
                continue
            v[j], runs[j] = x, run
            if j < b - 1:
                j += 1
                x = max(u[j], x)
            else:
                w = tuple(v)
                yield u, bottoms.setdefault(w, w)
                x += 1
