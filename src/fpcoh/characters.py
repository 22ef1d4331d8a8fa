"""Laurent polynomial characters in a fixed number of torus variables.

All constructors take the variable count n explicitly; polynomials in
different variable counts never mix.  Coefficients are arbitrary-precision
integers.
"""

from __future__ import annotations

from operator import add

from .combinatorics import compositions, nim_sum


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


def schur2(a: int, b: int, n: int) -> LaurentPolynomial:
    """Two-row Schur character h_a h_b - h_{a+1} h_{b-1}."""
    return h(a, n) * h(b, n) - h(a + 1, n) * h(b - 1, n)


def schur2_trunc(a: int, b: int, q: int, n: int) -> LaurentPolynomial:
    """Truncated two-row Schur character, from truncated complete sums.

    May be virtual (negative coefficients) for general arguments.
    """
    return h_trunc(a, q, n) * h_trunc(b, q, n) - h_trunc(a + 1, q, n) * h_trunc(
        b - 1, q, n
    )


def nim_poly(m: int, n: int) -> LaurentPolynomial:
    """Sum of monomials of degree 2m whose exponents have nim-sum zero."""
    if m < 0:
        raise ValueError("m must be non-negative")
    terms = {e: 1 for e in compositions(2 * m, (2 * m,) * n) if nim_sum(e) == 0}
    return LaurentPolynomial(n, terms)
