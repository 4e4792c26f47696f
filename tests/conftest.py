"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
determinants are expanded over permutations or cofactors or eliminated
one pivot column per sweep (and kernels back-substituted one pivot row
at a time), products are convolved on raw dicts, exact
quotients come from a long division that rescans the remainder for its
lowest term at every step (and the values at t = 1 of quotients by
t - 1 and t^(1/2) - t^(-1/2) from that division rather than from
coefficient sums), Seifert pencil
determinants are interpolated from m + 1 integer values instead of being
unpacked from two large ones, balanced equality is decided by
cross-multiplying contents rather than by canonical forms,
representative witnesses are found by trying every candidate triple
(or every plus and minus pair, with a lookup of the zero multiples),
parities are counted by inversions, and polynomial text is matched term by
term against a regular expression of the grammar.
"""
from __future__ import annotations

import collections
import itertools
import math
import random
import re

from alexpoly import (
    BalancedClass,
    LaurentPoly,
    NonIntegerExponent,
    NotDivisible,
    NotSquare,
    RepresentativeWitness,
    SeifertPair,
    check_pass_move,
    search_window,
)
from alexpoly.laurent import T_HALF_DIFF, T_MINUS_ONE
from alexpoly.seifert import IntMatrix, as_int_matrix, transpose

# Moves no triple takes: near misses of a key of skein.MOVES, and JSON
# values that are not strings.
BAD_MOVES = ["slide", "Pass", ["pass"], {"a": 1}, 3, None]


def random_poly(
    rng: random.Random,
    *,
    integral: bool = False,
    max_terms: int = 6,
    halfexp_lo: int = -12,
    halfexp_hi: int = 12,
    coeff_lo: int = -9,
    coeff_hi: int = 9,
) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randint(halfexp_lo, halfexp_hi)
        if integral and k % 2:
            k += 1
        terms[k] = rng.randint(coeff_lo, coeff_hi)
    return LaurentPoly(terms)


def random_nonzero_poly(rng: random.Random, **kwargs) -> LaurentPoly:
    while True:
        f = random_poly(rng, **kwargs)
        if f:
            return f


def dict_product_oracle(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Schoolbook convolution over every term pair, on raw dicts."""
    out: dict[int, int] = {}
    for k, c in f.terms.items():
        for j, d in g.terms.items():
            out[k + j] = out.get(k + j, 0) + c * d
    return LaurentPoly(out)


def exact_div_oracle(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Ascending-exponent long division that takes min() of the whole
    remainder at every step; same quotient and NotDivisible message as
    LaurentPoly.exact_div."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return LaurentPoly()
    f_terms, g_terms = f.terms, g.terms
    g_min = min(g_terms)
    g_low = g_terms[g_min]
    max_q = max(f_terms) - max(g_terms)
    quot: dict[int, int] = {}
    rem = dict(f_terms)
    while rem:
        r_min = min(rem)
        k = r_min - g_min
        if k > max_q:
            raise NotDivisible(f"{f} is not divisible by {g}")
        c, residue = divmod(rem[r_min], g_low)
        if residue:
            raise NotDivisible(f"{f} is not divisible by {g}")
        quot[k] = c
        for e, gc in g_terms.items():
            ne = e + k
            v = rem.get(ne, 0) - c * gc
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return LaurentPoly(quot)


# One term: c, c*t^n or c*t^(k/2), with ASCII digits only.
_TERM = re.compile(r"(-?\d+)(?:\*t\^(?:(-?\d+)|\((-?\d+)/2\)))?", re.ASCII)


def parse_oracle(text: str) -> LaurentPoly:
    """LaurentPoly.parse by one regular-expression match per term, then
    the validating constructor and the str round trip; the same value or
    ValueError message as the library."""
    terms: dict[int, int] = {}
    for part in text.split(" + "):
        m = _TERM.fullmatch(part)
        if m is None:
            raise ValueError(f"cannot parse term {part!r}")
        coeff, whole, half = m.groups()
        terms[2 * int(whole) if whole else int(half) if half else 0] = int(coeff)
    f = LaurentPoly(terms)
    if str(f) != text:
        raise ValueError(f"{text!r} is not in canonical form")
    return f


def pseudo_alinking_oracle(delta: LaurentPoly) -> int:
    """|delta/(t-1)| at t = 1, the quotient built by long division."""
    if not delta.is_integral():
        raise NonIntegerExponent(f"{delta} has half powers of t")
    return abs(exact_div_oracle(delta, T_MINUS_ONE).eval_at_one())


def order_at_one_oracle(f: LaurentPoly, order: int) -> int:
    """f/(t^(1/2) - t^(-1/2))^order at t = 1, dividing order times."""
    for _ in range(order):
        f = exact_div_oracle(f, T_HALF_DIFF)
    return f.eval_at_one()


def z_balanced_oracle(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f = +-t^n * g, by aligning the lowest exponents and comparing."""
    if not f or not g:
        return f == g
    shifted = g.shift(f.min_halfexp - g.min_halfexp)
    return f == shifted or f == -shifted


def q_balanced_oracle(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f = r*t^n * g, by cross-multiplying with the contents: f*content(g)
    must be a unit multiple of a shift of g*content(f)."""
    if not f or not g:
        return f == g
    return z_balanced_oracle(f * g.content(), g * f.content())


def find_representatives_oracle(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> RepresentativeWitness:
    """Sort all (4W+2)^3 candidate triples by total shift (stable over the
    product order of the singles) and return the first that verifies."""
    w = search_window(cp, cm, c0)
    singles = sorted(
        itertools.product(range(-w, w + 1), (1, -1)),
        key=lambda ne: (abs(ne[0]), ne[0] < 0, ne[1] < 0),
    )
    candidates = sorted(
        itertools.product(singles, repeat=3),
        key=lambda triple: sum(abs(n) for n, _ in triple),
    )
    reps = (cp.representative, cm.representative, c0.representative)
    for triple in candidates:
        shifted = [
            rep.shift(2 * n) * sign for rep, (n, sign) in zip(reps, triple)
        ]
        if check_pass_move(*shifted).holds:
            shifts = tuple((sign, n) for n, sign in triple)
            return RepresentativeWitness(shifts)
    return RepresentativeWitness()


def find_representatives_lookup_oracle(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> RepresentativeWitness:
    """find_representatives_oracle over the same (4W+2)^3 candidates and
    order key, with (4W+2)^2 checks: each plus x minus pair of singles
    looks up the zero singles whose right-hand side (t - 1)*s0*t^n0*r0
    equals its left-hand side."""
    w = search_window(cp, cm, c0)
    singles = list(itertools.product(range(-w, w + 1), (1, -1)))
    rp, rm, r0 = cp.representative, cm.representative, c0.representative
    zeros = collections.defaultdict(list)
    for n0, s0 in singles:
        zeros[T_MINUS_ONE * r0.shift(2 * n0) * s0].append((n0, s0))
    minus = [((nm, sm), rm.shift(2 * nm) * sm) for nm, sm in singles]
    best = None
    for np_, sp in singles:
        plus = rp.shift(2 * np_) * sp
        for single, g in minus:
            for zero in zeros.get(plus - g, ()):
                triple = ((np_, sp), single, zero)
                key = (
                    sum(abs(n) for n, _ in triple),
                    *((abs(n), n < 0, sign < 0) for n, sign in triple),
                )
                if best is None or key < best[0]:
                    best = (key, triple)
    if best is None:
        return RepresentativeWitness()
    return RepresentativeWitness(tuple((s, n) for n, s in best[1]))


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(perm)), 2)
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def perm_det_oracle(entries) -> LaurentPoly:
    """Determinant by full permutation expansion (Laurent entries)."""
    n = len(entries)
    total = LaurentPoly()
    for perm in itertools.permutations(range(n)):
        term = LaurentPoly.constant(_parity(perm))
        for i, j in enumerate(perm):
            term = dict_product_oracle(term, entries[i][j])
        total = total + term
    return total


def cofactor_det_oracle(rows) -> LaurentPoly:
    """Determinant by cofactor expansion along the first row (Laurent entries)."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.constant(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = LaurentPoly()
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = head * cofactor_det_oracle(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def one_step_bareiss_oracle(rows):
    """One-step fraction-free Bareiss elimination of a list copy of square
    rows, with the return value of seifert._bareiss.

    The entries are ints or LaurentPolys.  Column by column, the entry in
    row k (k the number of pivots so far) becomes the pivot, after a swap
    with the first row below holding a nonzero entry there if it is zero;
    a column with no nonzero entry from row k down is passed over.  Rows
    below the pivot are updated right of the pivot column only, and each
    update divides exactly by the previous pivot.  Returns the eliminated
    rows, the pivot columns, the original index of each row and the sign
    of that row permutation.
    """
    a = [list(row) for row in rows]
    n = len(a)
    pivots, order, sign, prev = [], list(range(n)), 1, 1
    for col in range(n):
        k = len(pivots)
        if not a[k][col]:
            p = next((i for i in range(k + 1, n) if a[i][col]), None)
            if p is None:
                continue
            a[k], a[p], order[k], order[p] = a[p], a[k], order[p], order[k]
            sign = -sign
        pivot_row = a[k]
        pivot, tail = pivot_row[col], pivot_row[col + 1 :]
        for row in a[k + 1 :]:
            aic = row[col]
            row[col + 1 :] = [
                (pivot * x - aic * y) // prev for x, y in zip(row[col + 1 :], tail)
            ]
        pivots.append(col)
        prev = pivot
    return a, pivots, order, sign


def corank_one_kernel_oracle(m: IntMatrix):
    """seifert._corank_one_kernel by back substitution, one pivot row at a
    time, on one_step_bareiss_oracle's rows: (y, row, g) for a square
    integer matrix of rank size - 1, else None.  y[free] is the last
    pivot, so by Cramer's rule g*y is a column of adj(m) up to sign, y
    primitive, and row is the original index of the row reduced to zero."""
    n = len(m)
    if any(len(r) != n for r in m):
        return None
    a, pivots, order, _ = one_step_bareiss_oracle(m)
    if len(pivots) != n - 1:
        return None
    last = a[n - 2][pivots[-1]] if pivots else 1
    y = [0 if j in pivots else last for j in range(n)]
    for col, row in zip(reversed(pivots), reversed(a[: n - 1])):
        y[col] = -sum(v * w for v, w in zip(row[col + 1 :], y[col + 1 :])) // row[col]
    g = math.gcd(*y)
    return [v // g for v in y], order[n - 1], g


def one_step_det_oracle(rows, one, zero):
    """Determinant of square rows over the ring of one and zero, from
    one_step_bareiss_oracle: the sign times the last of n pivots, else zero."""
    if not rows:
        return one
    a, pivots, _, sign = one_step_bareiss_oracle(rows)
    return sign * a[-1][-1] if len(pivots) == len(a) else zero


def pencil_det_interp_oracle(pair: SeifertPair) -> LaurentPoly:
    """det(t*S - N) of a square pair, by evaluation and interpolation.

    The determinant f is an integer polynomial of degree at most n in t,
    n the matrix size (not pair.n), so its values at t = 0..n fix it.
    Each value is a one-step Bareiss determinant.  Step k of the forward
    differences is divided by k, which is exact: it leaves Delta^k f(i)/k!,
    and those Newton coefficients of an integer polynomial at consecutive
    integer nodes are integers.  The Newton form is then expanded to
    monomials by Horner's rule.
    """
    rows, cols = pair.shape
    if rows != cols:
        raise NotSquare(f"{rows}x{cols} matrix has no determinant")
    n = rows
    pencil = tuple(zip(pair.S, pair.N))
    coeffs = [
        one_step_det_oracle(
            [[x * s - v for s, v in zip(srow, nrow)] for srow, nrow in pencil], 1, 0
        )
        for x in range(n + 1)
    ]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) // k
    # f = c0 + x*(c1 + (x-1)*(c2 + ... + (x-n+1)*cn)), innermost first.
    poly = [coeffs[n]]
    for k in range(n - 1, -1, -1):
        poly = [coeffs[k] - k * poly[0]] + [
            a - k * b for a, b in zip(poly, poly[1:])
        ] + [poly[-1]]
    return LaurentPoly({2 * e: c for e, c in enumerate(poly)})


def perm_det_int_oracle(m: IntMatrix) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = _parity(perm)
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += prod
    return total


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo=-3, hi=3) -> IntMatrix:
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """Unimodular matrix built from elementary row operations on identity."""
    if n == 0:
        return ()
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        if op == 0 and n > 1:
            j = rng.randrange(n)
            if i != j:
                factor = rng.randint(-2, 2)
                for c in range(n):
                    m[i][c] += factor * m[j][c]
        elif op == 1 and n > 1:
            j = rng.randrange(n)
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return as_int_matrix(m)


def symplectic(m: int) -> IntMatrix:
    """Standard symplectic 2m x 2m matrix, block diagonal [[0,1],[-1,0]]."""
    size = 2 * m
    rows = [[0] * size for _ in range(size)]
    for b in range(m):
        rows[2 * b][2 * b + 1] = 1
        rows[2 * b + 1][2 * b] = -1
    return as_int_matrix(rows)


def congruence(u: IntMatrix, k: IntMatrix) -> IntMatrix:
    """U * K * U^t with plain integer loops."""
    n = len(u)
    uk = tuple(
        tuple(sum(u[i][a] * k[a][j] for a in range(n)) for j in range(n))
        for i in range(n)
    )
    return tuple(
        tuple(sum(uk[i][a] * u[j][a] for a in range(n)) for j in range(n))
        for i in range(n)
    )


def alinking_block_pair(rng: random.Random, size: int) -> SeifertPair:
    """Pair whose intersection form is a zero row over an identity block."""
    s = random_int_matrix(rng, size, size, -4, 4)
    form = [[0] * size] + [
        [int(i == j) for j in range(size)] for i in range(1, size)
    ]
    n = tuple(
        tuple(sv - fv for sv, fv in zip(srow, frow)) for srow, frow in zip(s, form)
    )
    return SeifertPair(s, n, 1, 2)


def twinkling_block_pair(rng: random.Random, half_blocks: int) -> SeifertPair:
    """Pair with N = S^t whose intersection form has a zero first row and
    column over a unimodular skew block (a symplectic congruate)."""
    m = 2 * half_blocks
    skew = congruence(random_unimodular(rng, m), symplectic(half_blocks))
    block = [[skew[i][j] if i < j else 0 for j in range(m)] for i in range(m)]
    symmetric = random_int_matrix(rng, m, m, -2, 2)
    for i in range(m):
        for j in range(m):
            block[i][j] += symmetric[min(i, j)][max(i, j)]
    first = [rng.randint(-3, 3) for _ in range(m)]
    s11 = rng.randint(-4, 4)
    rows = [[s11] + first] + [[first[i]] + block[i] for i in range(m)]
    s = as_int_matrix(rows)
    return SeifertPair(s, transpose(s), 1, 1)


def move_triple(pair: SeifertPair, i: int) -> tuple[SeifertPair, ...]:
    """(plus, minus, zero) pairs of a local move at basis cycle i.

    Plus raises S_ii and N_ii of pair by 1, minus is pair itself, and zero
    drops row and column i.  det(t*S - N) is linear in row i, where plus
    and minus differ by t - 1 at (i, i), so det(t*S+ - N+) - det(t*S- -
    N-) = (t - 1) * det(t*S0 - N0).
    """

    def bump(m):
        return tuple(
            tuple(v + int(r == c == i) for c, v in enumerate(row))
            for r, row in enumerate(m)
        )

    def drop(m):
        return tuple(row[:i] + row[i + 1 :] for row in m[:i] + m[i + 1 :])

    plus = SeifertPair(bump(pair.S), bump(pair.N), pair.p, pair.n)
    zero = SeifertPair(drop(pair.S), drop(pair.N), pair.p, pair.n)
    return plus, pair, zero
