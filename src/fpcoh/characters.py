"""Laurent polynomial characters in a fixed number of torus variables.

All constructors take the variable count n explicitly; polynomials in
different variable counts never mix.  Coefficients are arbitrary-precision
integers.

The two-row Schur characters multiply no polynomials: the coefficient of
h_a h_b at a multidegree m counts the x <= m with |x| = a, so each
coefficient is a difference of two such counts, taken once per S_n orbit of
multidegrees.  `h` and `h_trunc` remain as the complete sums themselves.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .combinatorics import compositions, decreasing_compositions, nim_sum, orbit


class LaurentPolynomial:
    """Integer Laurent polynomial in n variables, stored sparsely.  `terms`
    is {exponent tuple: int}, taken as given; zero coefficients are dropped."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None) -> None:
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        terms = terms or {}
        if set(map(len, terms)) - {nvars}:
            raise ValueError("exponent vector length mismatch")
        self._terms = {e: c for e, c in terms.items() if c}

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._terms.items())

    def coefficient(self, exps) -> int:
        return self._terms.get(tuple(int(x) for x in exps), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _check_compatible(self, other: "LaurentPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"cannot combine polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            new = out.get(e, 0) + c
            if new:
                out[e] = new
            elif e in out:
                del out[e]
        return LaurentPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(
                self.nvars, {e: c * other for e, c in self._terms.items()}
            )
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({(0,) * self.nvars: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self._terms.items()))))

    def dimension(self) -> int:
        """Value at t_1 = ... = t_n = 1."""
        return sum(self._terms.values())

    def frobenius(self, q: int) -> "LaurentPolynomial":
        """Substitute t_i -> t_i^q."""
        if q < 1:
            raise ValueError("q must be positive")
        return LaurentPolynomial(
            self.nvars,
            {tuple(q * x for x in e): c for e, c in self._terms.items()},
        )

    def to_records(self) -> list[dict]:
        return [
            {"exponents": list(e), "coeff": c} for e, c in sorted(self._terms.items())
        ]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            mono = "*".join(
                f"t{i + 1}" if x == 1 else f"t{i + 1}^{x}"
                for i, x in enumerate(e)
                if x
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.nvars}, {self._terms!r})"


def h(d: int, n: int) -> LaurentPolynomial:
    """Complete homogeneous sum of all degree-d monomials; zero for d < 0."""
    if d < 0:
        return LaurentPolynomial(n)
    return LaurentPolynomial(n, {e: 1 for e in compositions(d, (d,) * n)})


def h_trunc(d: int, q: int, n: int) -> LaurentPolynomial:
    """Degree-d monomials with every exponent strictly below q; zero for d < 0."""
    if q < 1:
        raise ValueError("q must be positive")
    if d < 0:
        return LaurentPolynomial(n)
    return LaurentPolynomial(n, {e: 1 for e in compositions(d, (q - 1,) * n)})


def _two_row(a: int, b: int, n: int, cap: int, window) -> LaurentPolynomial:
    """s[m] = N_m(a) - N_m(a + 1) over the m with |m| = a + b and parts at
    most cap, where N_m(k) counts the x with |x| = k and window(m_k) = (lo,
    hi) bounding x_k.  N_m is the product of the t^lo + ... + t^hi cut after
    t^(a + 1), taken once per weakly decreasing m and copied over its orbit."""
    if a < -1:  # h_a = h_(a+1) = 0
        return LaurentPolynomial(n)
    terms = {}
    top = a + 1
    for m in decreasing_compositions(a + b, (cap,) * n):
        counts = [1] + [0] * top  # counts[k] = N(k) over the parts so far
        for e in m:
            lo, hi = window(e)
            sums = [0, *accumulate(counts)]  # sums[k] = counts[0] + ... + counts[k - 1]
            counts = [0] * min(lo, top + 1) + [
                sums[k - lo + 1] - sums[max(k - hi, 0)] for k in range(lo, top + 1)
            ]
        c = (counts[a] if a >= 0 else 0) - counts[top]
        if c:
            terms.update(dict.fromkeys(orbit(m), c))
    return LaurentPolynomial(n, terms)


def schur2(a: int, b: int, n: int) -> LaurentPolynomial:
    """Two-row Schur character h_a h_b - h_{a+1} h_{b-1}, by counting: the
    coefficient of h_a h_b at m is the number of x with 0 <= x <= m and
    |x| = a.  Holds for negative a or b too: schur2(-1, b) = -h(b - 1)."""
    return _two_row(a, b, n, a + b, lambda e: (0, e))


def schur2_trunc(a: int, b: int, q: int, n: int) -> LaurentPolynomial:
    """Truncated two-row Schur character, the same difference of products of
    truncated complete sums: x and m - x both below q bound x_k by
    max(0, m_k - q + 1) <= x_k <= min(m_k, q - 1).

    May be virtual (negative coefficients) for general arguments.
    """
    if q < 1:
        raise ValueError("q must be positive")
    return _two_row(a, b, n, 2 * q - 2, lambda e: (max(0, e - q + 1), min(e, q - 1)))


def nim_poly(m: int, n: int) -> LaurentPolynomial:
    """Sum of monomials of degree 2m whose exponents have nim-sum zero."""
    if m < 0:
        raise ValueError("m must be non-negative")
    terms = {e: 1 for e in compositions(2 * m, (2 * m,) * n) if nim_sum(e) == 0}
    return LaurentPolynomial(n, terms)
