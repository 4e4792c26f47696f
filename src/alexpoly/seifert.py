"""Seifert matrix pairs, Alexander matrices, and exact determinants.

A Seifert pair holds the positive and negative Seifert matrices S and N
of a link (entries are linking numbers of basis cycles with push-offs),
plus the cycle degree p and the submanifold dimension n.  Every matrix
built from a pair is one pencil x*S - y*N (``_pencil``): the Alexander
matrix t*S - N, the normalized matrix t^(1/2)*S - t^(-1/2)*N and the
intersection form S - N, whose exact determinants carry the invariants.

Matrices are immutable tuples of tuples.  One fraction-free Bareiss
elimination (``_bareiss``) serves every determinant and kernel, and none
of them uses rationals: its entries are ints or Laurent polynomials, and
each of its divisions is exact in either ring.

- ``int_det`` runs it on an integer matrix, ``det`` on a matrix of
  Laurent polynomials, both through one body (``_det``);
- ``pencil_det`` takes det(t*S - N) of size m from integer determinants
  of x*S - N, with b from a Hadamard bound on the coefficients: from one
  at x = 2^(2b) while m*b <= 512, where interpreter overhead outweighs
  the big-integer work, else from two at x = 2^b and x = -2^b, whose
  entries are half as long; it unpacks the coefficients from the values'
  binary digits (the normalized determinant is that polynomial shifted);
- ``_corank_one_kernel`` reads the kernel of an integer matrix such as
  S - N off it by back substitution.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import NotSquare, NotUnimodular, ShapeMismatch, short_repr
from .laurent import ONE, ZERO, LaurentPoly, T, T_HALF
from .record import _Record

IntMatrix = tuple[tuple[int, ...], ...]


# -- integer matrix helpers ---------------------------------------------------


def _freeze(rows: Iterable[Iterable], kind: type, what: str) -> tuple[tuple, ...]:
    """Freeze rectangular rows of entries of exactly type kind; what names the matrix."""
    out = tuple(tuple(row) for row in rows)
    for row in out:
        for v in row:
            if type(v) is not kind:
                raise TypeError(f"{what} entries must be {kind.__name__}s, got {short_repr(v)}")
    if out and any(len(r) != len(out[0]) for r in out):
        raise ShapeMismatch("rows have unequal lengths")
    return out


def as_int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """Freeze a row-major iterable of ints, checking rectangularity."""
    return _freeze(rows, int, "matrix")


def _require_square(rows: Sequence[Sequence], why: str = "has no determinant") -> None:
    """Raise NotSquare, "RxC matrix <why>", unless the rows are square."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare(f"{n}x{len(rows[0])} matrix {why}")


def transpose(m: IntMatrix) -> IntMatrix:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    if not a or not b:
        return tuple(() for _ in a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _bareiss(rows: Sequence[Sequence]) -> tuple[list[list], list[int], list[int], int]:
    """Fraction-free Bareiss elimination of a list copy of square rows.

    The entries are ints or LaurentPolys: each division by the previous
    pivot is exact (``//``) in either ring.  Column by column, the entry in
    row k (k the number of pivots so far) becomes the pivot, after a swap
    with the first row below holding a nonzero entry there if it is zero;
    a column with no nonzero entry from row k down is passed over.  Rows
    below the pivot are updated right of the pivot column only; what they
    hold in it and to its left is stale, and no caller reads it.

    Returns the eliminated rows, the pivot columns, the original index of
    each row and the sign of that row permutation.  With n pivots the
    determinant is the sign times a[n-1][n-1]; with fewer it is zero.
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


def _det(rows: Sequence[Sequence], one, zero):
    """Exact determinant of square rows over the ring of one and zero."""
    _require_square(rows)
    if not rows:
        return one
    a, pivots, _, sign = _bareiss(rows)
    return sign * a[-1][-1] if len(pivots) == len(a) else zero


def _corank_one_kernel(m: IntMatrix) -> tuple[list[int], int, int] | None:
    """(y, row, g) for a square integer matrix of rank size - 1, else None.

    Bareiss elimination with row swaps, passing over columns without a
    pivot, reduces original row `row` to zero.  Back substitution from
    y[free] = the last pivot, the minor without that row and the free
    column, is exact by Cramer's rule and gives column `row` of adj(m) up
    to sign: g*y with y primitive.  As adj(m) = c*y*x^t, x the primitive
    left kernel vector, m has Smith form diag(1, ..., 1, 0) iff g == |x[row]|.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        return None
    a, pivots, order, _ = _bareiss(m)
    if len(pivots) != n - 1:
        return None
    last = a[n - 2][pivots[-1]] if pivots else 1
    y = [0 if j in pivots else last for j in range(n)]
    for col, row in zip(reversed(pivots), reversed(a[: n - 1])):
        y[col] = -sum(v * w for v, w in zip(row[col + 1 :], y[col + 1 :])) // row[col]
    g = math.gcd(*y)
    return [v // g for v in y], order[n - 1], g


def int_det(m: IntMatrix) -> int:
    """Exact integer determinant (fraction-free Bareiss)."""
    return _det(m, 1, 0)


# -- core data types ----------------------------------------------------------


class SeifertPair(_Record):
    """Positive/negative Seifert matrices with dimension metadata.

    S and N must share one shape; p is the cycle degree (0 <= p <= n+1),
    n >= 1 the dimension of the submanifold.
    """

    S: IntMatrix
    N: IntMatrix
    p: int
    n: int

    def __init__(self, S, N, p: int, n: int):
        self.__dict__.update(S=as_int_matrix(S), N=as_int_matrix(N), p=p, n=n)
        if type(p) is not int or type(n) is not int:
            raise TypeError(f"p and n must be ints, got p={short_repr(p)}, n={short_repr(n)}")
        if self.shape != (len(self.N), len(self.N[0]) if self.N else 0):
            raise ShapeMismatch("S and N must have identical shape")
        if n < 1 or not 0 <= p <= n + 1:
            raise ValueError(f"need n >= 1 and 0 <= p <= n+1, got p={short_repr(p)}, n={short_repr(n)}")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.S), len(self.S[0]) if self.S else 0)


class AlexanderMatrix(_Record):
    """A rectangular matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __init__(self, entries: Iterable[Iterable[LaurentPoly]]):
        self.__dict__.update(entries=_freeze(entries, LaurentPoly, "Alexander matrix"))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)


class UnimodularPair(_Record):
    """Basis-change matrices (P for the x-basis, Q for the y-basis)."""

    P: IntMatrix
    Q: IntMatrix

    def __init__(self, P, Q):
        self.__dict__.update(P=as_int_matrix(P), Q=as_int_matrix(Q))
        for name, m in (("P", self.P), ("Q", self.Q)):
            if abs(d := int_det(m)) != 1:
                raise NotUnimodular(f"{name} has determinant {short_repr(d)}")


# -- matrix constructions -----------------------------------------------------


def _pencil(pair: SeifertPair, x, y) -> list[list]:
    """The rows of x*S - y*N as lists, for ints or LaurentPolys x and y."""
    return [[x * s - y * n for s, n in zip(srow, nrow)] for srow, nrow in zip(pair.S, pair.N)]


def alexander_matrix(pair: SeifertPair) -> AlexanderMatrix:
    """The matrix t*S - N."""
    return AlexanderMatrix(_pencil(pair, T, ONE))


def normalized_matrix(pair: SeifertPair) -> AlexanderMatrix:
    """The matrix t^(1/2)*S - t^(-1/2)*N."""
    return AlexanderMatrix(_pencil(pair, T_HALF, LaurentPoly.half_power(-1)))


def intersection_form(pair: SeifertPair) -> IntMatrix:
    """S - N, the matrix of the homological intersection pairing."""
    return tuple(map(tuple, _pencil(pair, 1, 1)))


# -- determinants -------------------------------------------------------------


def det(m: AlexanderMatrix) -> LaurentPoly:
    """Exact determinant over the Laurent ring (empty matrix: 1)."""
    return _det(m.entries, ONE, ZERO)


def _balanced_digits(value: int, width: int) -> list[int]:
    """The digits d_j of value = sum_j d_j * 2^(width*j), balanced:
    -2^(width-1) <= d_j < 2^(width-1).  width must be >= 2."""
    if width < 2:
        raise ValueError(f"balanced digits need width >= 2, got {short_repr(width)}")
    full = 1 << width
    half, mask = full >> 1, full - 1
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= full
        digits.append(d)
        value = (value - d) >> width
    return digits


def pencil_det(pair: SeifertPair) -> LaurentPoly:
    """det(t*S - N) of a square pair, by Kronecker substitution.

    The determinant f is an integer polynomial of degree at most m in t,
    m the matrix size (not pair.n).  For |t| = 1, Hadamard's inequality
    bounds |f(t)|^2 by h2, the product over the rows of |S_i|^2 + |N_i|^2
    + 2*|<S_i, N_i>|, so by Parseval every coefficient has |c_k| <=
    sqrt(h2).  Take b with 2^(4b-2) > h2: every coefficient is then a
    balanced digit in base 2^(2b).  So one integer Bareiss determinant
    fixes f: f(2^(2b)) packs every coefficient.  So do two: at X = 2^b,
    (f(X) + f(-X))/2 packs the even coefficients and (f(X) - f(-X))/(2X)
    the odd ones.  Both routes unpack the same digits of width 2b, each
    part with its step and offset in the exponent.  A zero pencil (h2 = 0:
    a row of t*S - N is zero) needs no branch of its own: b = 1, the
    determinants are 0, and the digits unpack to ZERO.  A pair that is
    not square raises NotSquare from int_det.

    Cost: m^3/3 steps per elimination, on integers of up to about m*b
    bits at X = 2^b and about 2*m*b at X = 2^(2b), where b is a quarter of
    the bits of h2 (so b grows linearly in m).  While m*b <= 512 a step
    costs mostly interpreter overhead, whatever the length of its
    integers, so one point is 1.2-1.8x faster than two.  The two cost
    about the same for m*b from 600 to 800; above that the quadratic
    division of the longer integers makes one point slower (0.8x at
    m*b = 1,150).  Below m = 40 either route beats m + 1 eliminations on
    small integers; towards the 64 x 64 cap the big-integer division
    dominates and it takes a few seconds.
    """
    h2 = 1
    for srow, nrow in zip(pair.S, pair.N):
        h2 *= sum(s * s + v * v for s, v in zip(srow, nrow)) + 2 * abs(
            sum(s * v for s, v in zip(srow, nrow))
        )
    b = (h2.bit_length() + 5) // 4
    if len(pair.S) * b <= 512:
        parts = ((1, 0, int_det(_pencil(pair, 1 << 2 * b, 1))),)
    else:
        at_plus, at_minus = (int_det(_pencil(pair, x, 1)) for x in (1 << b, -(1 << b)))
        parts = ((2, 0, (at_plus + at_minus) >> 1), (2, 1, (at_plus - at_minus) >> (b + 1)))
    terms = {}
    for step, offset, packed in parts:
        for j, c in enumerate(_balanced_digits(packed, 2 * b)):
            terms[2 * (step * j + offset)] = c
    return LaurentPoly(terms)


# -- matrix moves -------------------------------------------------------------


def check_duality(pair_a: SeifertPair, pair_b: SeifertPair) -> bool:
    """Whether pair_a.N = (-1)^(p*n+1) * transpose(pair_b.S).

    pair_a must have degree p and pair_b the complementary degree n+1-p
    over the same n, with pair_b shaped as the transpose of pair_a.
    """
    if pair_a.n != pair_b.n or pair_b.p != pair_a.n + 1 - pair_a.p:
        raise ShapeMismatch(
            f"degrees (p={short_repr(pair_a.p)}, n={short_repr(pair_a.n)}) and "
            f"(p={short_repr(pair_b.p)}, n={short_repr(pair_b.n)}) are not complementary"
        )
    rows, cols = pair_a.shape
    if pair_b.shape != (cols, rows):
        raise ShapeMismatch(f"expected {cols}x{rows} partner, got {pair_b.shape}")
    sign = (-1) ** (pair_a.p * pair_a.n + 1)
    return pair_a.N == tuple(tuple(sign * v for v in row) for row in transpose(pair_b.S))


def basis_change(pair: SeifertPair, u: UnimodularPair) -> SeifertPair:
    """Transform both pairings by the same bases: S -> P*S*Q^t, N -> P*N*Q^t."""
    rows, cols = pair.shape
    if len(u.P) != rows or len(u.Q) != cols:
        raise ShapeMismatch(
            f"basis change ({len(u.P)}, {len(u.Q)}) does not fit a {rows}x{cols} pair"
        )
    qt = transpose(u.Q)
    return SeifertPair(
        mat_mul(mat_mul(u.P, pair.S), qt),
        mat_mul(mat_mul(u.P, pair.N), qt),
        pair.p,
        pair.n,
    )


def stabilize(
    m: AlexanderMatrix, sign: int, filler: Sequence[LaurentPoly]
) -> AlexanderMatrix:
    """Border a square matrix as [[sign*t, filler], [0, m]].

    This is the block form produced by adding a trivial handle to the
    underlying hypersurface; it multiplies the determinant by sign*t.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_square(m.entries, "cannot be stabilized")
    filler = tuple(filler)
    if len(filler) != len(m.entries):
        raise ShapeMismatch(f"filler length {len(filler)} != {len(m.entries)} columns")
    top = (T * sign,) + filler
    body = tuple((ZERO,) + row for row in m.entries)
    return AlexanderMatrix((top,) + body)
