"""Reference helpers shared by several test files; the package itself has no
use for them."""

import math
from collections import Counter
from itertools import accumulate, combinations, combinations_with_replacement

import numpy as np

from fpcoh.characters import LaurentPolynomial, h, h_trunc
from fpcoh.combinatorics import compositions
from fpcoh.determinantal import (
    IdealPowerSlice,
    _Block,
    _code,
    expand_minor_product,
    slice_characters,
)
from fpcoh.incidence import omega_block
from fpcoh.linalg import PrimeFieldMatrix, reduce_into, rref_with_order


def tableau_sum(tableaux, n: int) -> LaurentPolynomial:
    """Sum of the content monomials t^T of the given two-row tableaux (u, v)
    with entries in 1..n."""
    out: dict[tuple[int, ...], int] = {}
    for u, v in tableaux:
        if not set(u + v) <= set(range(1, n + 1)):
            raise ValueError(f"entries of {(u, v)} outside 1..{n}")
        e = tuple((u + v).count(k) for k in range(1, n + 1))
        out[e] = out.get(e, 0) + 1
    return LaurentPolynomial(n, out)


def dense_rank(a, p: int) -> int:
    """Rank over Z/p by dense forward elimination in numpy, pivoting on the
    first nonzero of each column: an oracle independent of
    `linalg.reduce_into`, which every rank in the package runs."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        row = (a[r, c + 1 :] * inv) % p
        idx = r + 1 + np.nonzero(a[r + 1 :, c])[0]
        if idx.size:
            # factor * row stays below 2**62 since both factors are < p < 2**31
            a[idx, c + 1 :] = (a[idx, c + 1 :] - a[idx, c][:, None] * row) % p
        r += 1
    return r


def trial_division_is_prime(p: int) -> bool:
    """Primality by trial division with the odd numbers up to sqrt(p): the
    oracle for the Miller-Rabin `linalg.is_prime`."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def omega_matrix(n: int, d: int, e: int, m, p: int) -> PrimeFieldMatrix:
    """The block `incidence.omega_block` describes, as a dense matrix over Z/p."""
    rows, columns = omega_block(n, d, e, m)
    a = np.zeros((rows, len(columns)), dtype=np.int64)
    for c, column in enumerate(columns):
        a[column, c] = 1
    return PrimeFieldMatrix(p, a)


def omega_rank(n: int, d: int, e: int, m, p: int) -> int:
    """Rank of an omega block over Z/p, its columns fed to `reduce_into` as
    `h_characters` feeds them."""
    pivots: dict[int, dict[int, int]] = {}
    for column in omega_block(n, d, e, m)[1]:
        reduce_into(dict.fromkeys(column, 1), pivots, p)
    return len(pivots)


def kernel_basis(m: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space, one vector per free column."""
    reduced, pivots = rref_with_order(m, list(range(m.cols)))
    a = reduced.to_array()
    p = reduced.p
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-int(a[r, f])) % p
        basis.append(tuple(v))
    return basis


def filtration_character(
    n: int, a: int, b: int, i: int, truncated: bool, p: int
) -> LaurentPolynomial:
    """Character of the i-th filtration quotient in bidegree (a, b):
    blockwise rank of the i-th slice minus rank of the (i+1)-st."""
    chars = slice_characters(n, a, b, [i, i + 1], truncated, p)
    return chars[i] - chars[i + 1]


def product_block_columns(n: int, a: int, b: int, cap: int) -> dict:
    """{multidegree: sorted monomials x + y} over the whole product of the
    x in degree a and the y in degree b with every exponent at most cap,
    grouped by x + y: the columns of every determinantal block at once, an
    oracle for the columns each block lists from its own multidegree."""
    ys = list(compositions(b, (cap,) * n))
    out: dict[tuple[int, ...], list] = {}
    for x in compositions(a, (cap,) * n):
        for y in ys:
            out.setdefault(tuple(map(sum, zip(x, y))), []).append(x + y)
    return {m: sorted(monos) for m, monos in out.items()}


def minor_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (u, v), u < v, of the 2x2 minors x_u y_v - x_v y_u (0-based)."""
    return list(combinations(range(n), 2))


def generator_specs(n: int, a: int, b: int, i: int, truncated: bool, p: int, multidegrees):
    """Every generator of the i-th power in bidegree (a, b) in the given
    multidegrees, as {multidegree: [(minors, code of the x-monomial)]},
    nothing expanded: each product of i minors times each monomial.  A
    multidegree is the minors' weight (how often each column occurs) plus
    x + y, so it fixes the y-monomial."""
    if a < i or b < i:
        return {}
    caps = (p - 1 if truncated else a + b,) * n
    ys = list(compositions(b - i, caps))
    shifts: dict[tuple[int, ...], list] = {}
    for x in compositions(a - i, caps):
        code = _code(x, a + 1)
        for y in ys:
            shifts.setdefault(tuple(map(sum, zip(x, y))), []).append(code)
    by_weight: dict[tuple[int, ...], list] = {}
    for minors in combinations_with_replacement(minor_pairs(n), i):
        weight = tuple(sum(k in pair for pair in minors) for k in range(n))
        by_weight.setdefault(weight, []).append(minors)
    groups: dict[tuple[int, ...], list] = {m: [] for m in multidegrees}
    for weight, products in by_weight.items():
        for xy, codes in shifts.items():
            specs = groups.get(tuple(map(sum, zip(weight, xy))))
            if specs is not None:
                specs += [(minors, code) for minors in products for code in codes]
    return {m: specs for m, specs in groups.items() if specs}


def full_scan_slice(n: int, a: int, b: int, i: int, truncated: bool, p: int) -> IdealPowerSlice:
    """The i-th power's slice in bidegree (a, b) with every multidegree
    block eliminated from every one of its generators: the oracle for
    `ideal_power_slice`, which eliminates one block per S_n orbit from one
    generator per classical leading monomial and carries its basis to the
    rest of the orbit."""
    cap = p - 1 if truncated else a + b
    multidegrees = list(compositions(a + b, (2 * cap,) * n))
    zero = (0,) * n
    products: dict[tuple, list[tuple[int, int]]] = {}
    blocks = {}
    for m, specs in generator_specs(n, a, b, i, truncated, p, multidegrees).items():
        block = _Block(m, a, cap, p)
        for minors, shift in specs:
            if minors not in products:
                expansion = expand_minor_product(n, minors, zero, zero).items()
                products[minors] = [
                    (_code(mono[:n], a + 1), c % p) for mono, c in expansion if c % p
                ]
            block.add(shift, products[minors])
        if block.rank:
            blocks[m] = block
    return IdealPowerSlice(blocks)


def per_member_carry(block: _Block, o: tuple[int, ...]) -> tuple[list, dict, tuple]:
    """(columns, echelon rows, column order) of orbit member o, carried from
    the representative block as `_Block.carried` did before members with
    one column order shared their rows: this member's own re-echelonisation
    of the permuted rows, the oracle for the shared one."""
    n = len(o)
    pi = [0] * n
    for j, k in enumerate(sorted(range(n), key=o.__getitem__, reverse=True)):
        pi[k] = j
    moved = [tuple(mono[k] for k in (*pi, *(n + j for j in pi))) for mono in block.monomials]
    order = tuple(sorted(range(len(moved)), key=moved.__getitem__))
    rename = {c: new for new, c in enumerate(order)}
    pivots: dict = {}
    for row in block._pivots.values():
        reduce_into({rename[c]: x for c, x in row.items()}, pivots, block.p)
    return [moved[c] for c in order], pivots, order


def classical_leading_monomials(n: int, a: int, b: int, i: int) -> set[tuple[int, ...]]:
    """The leading monomials of the classical I^i in bidegree (a, b), in
    any characteristic, by the closed form: in(I^i) = in(I)^i for the
    maximal minors of a 2 x n matrix (Conca, JPAA 1997), and the leading
    term of a minor is x_u y_v with u < v.  So x^alpha y^beta is one iff it
    holds i disjoint pairs x_u y_v, u < v; a greedy pass over v counts them,
    matching y_v against the x's seen before v."""
    out = set()
    ys = list(compositions(b, (b,) * n))
    for x in compositions(a, (a,) * n):
        for y in ys:
            seen = pairs = 0
            for xv, yv in zip(x, y):
                matched = min(seen, yv)
                pairs += matched
                seen += xv - matched
            if pairs >= i:
                out.add(x + y)
    return out


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


def recursive_compositions(total: int, caps: tuple[int, ...]):
    """Weak compositions of total with part i at most caps[i], in ascending
    lexicographic order, by one recursive generator frame per part: the
    oracle for the one-loop `combinatorics.compositions`."""
    tails = list(accumulate(reversed(caps), initial=0))[::-1]  # sums of caps[i:]

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(caps):
            yield prefix
            return
        for v in range(max(0, remaining - tails[i + 1]), min(caps[i], remaining) + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    if 0 <= total <= tails[0]:
        yield from rec(0, total, ())


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


def is_p_semistandard(t, p: int) -> bool:
    """Whether the tableau (u, v) has weakly increasing rows and columns,
    constant runs in each row of length at most p-1, and the run rule at
    every column with equal entries."""
    u, v = t
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


def scanned_pssyt(n: int, a: int, b: int, p: int) -> list[tuple]:
    """Every pair of weakly increasing words (u, v) over 1..n of lengths a and
    b, in lexicographic order, kept when p-semistandard: the oracle for the
    column walk of `combinatorics.enumerate_pssyt`."""
    letters = range(1, n + 1)
    bottoms = list(combinations_with_replacement(letters, b))
    return [
        (u, v)
        for u in combinations_with_replacement(letters, a)
        for v in bottoms
        if is_p_semistandard((u, v), p)
    ]


def product_schur2(a: int, b: int, n: int, q: int | None = None) -> LaurentPolynomial:
    """h_a h_b - h_(a+1) h_(b-1) by multiplying polynomials, with the
    complete sums truncated below q when q is given: the oracle for the
    counting `characters.schur2` and `schur2_trunc`."""
    hq = h if q is None else (lambda d, n: h_trunc(d, q, n))
    return hq(a, n) * hq(b, n) - hq(a + 1, n) * hq(b - 1, n)


def is_symmetric(f: LaurentPolynomial) -> bool:
    """True when f is invariant under all permutations of its variables: the
    oracle for the S_n orbit reduction in `incidence.h_characters`."""
    groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for e, c in f.terms():
        groups.setdefault(tuple(sorted(e, reverse=True)), {})[e] = c
    for key, members in groups.items():
        if len(set(members.values())) != 1:
            return False
        perms = math.factorial(f.nvars)
        for mult in Counter(key).values():
            perms //= math.factorial(mult)
        if len(members) != perms:
            return False
    return True


def str_length_summary(f: LaurentPolynomial) -> str:
    """f as text, or its term count and dimension when the text passes 120
    characters, decided by formatting f: the oracle for `cli._char_summary`."""
    text = str(f)
    if len(text) > 120:
        return f"<{len(f.terms())} terms, dimension {f.dimension()}>"
    return text


def assert_json_ready(value, path: str = "document") -> None:
    """Fail unless value holds only str keys and dict, list, str, int, bool
    and None values, which is all a report document may hold."""
    if value is None or type(value) in (str, int, bool):
        return
    if type(value) is list:
        for k, x in enumerate(value):
            assert_json_ready(x, f"{path}[{k}]")
        return
    assert type(value) is dict, f"{path} is a {type(value).__name__}"
    for k, x in value.items():
        assert type(k) is str, f"{path} has the {type(k).__name__} key {k!r}"
        assert_json_ready(x, f"{path}[{k!r}]")


def json_documents(st):
    """A hypothesis strategy for documents of every kind a report may hold,
    with the escapes and big integers the encoder must get right; the same
    documents `test_render_json_matches_json_dumps_property` draws."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=2**64), st.integers(max_value=-2**64),
        st.text(), st.text(alphabet=st.characters(max_codepoint=0x9f)),
        st.text(alphabet="é€😀\x00\x1f\x7f\\\"\n\t\u2028"),
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(st.integers(), max_size=5),
            st.dictionaries(st.text(max_size=4), inner, max_size=5),
        ),
        max_leaves=20,
    )
