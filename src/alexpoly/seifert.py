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
each of its divisions is exact in either ring.  It is Bareiss's three-step
elimination (Math. Comp. 22, 1968): each sweep over the rows below takes
three pivot columns where their leading 2x2 and 3x3 minors are nonzero,
with one exact division per entry, so it makes about a third of the
sweeps and a third of the divisions of one column per sweep.  It has one
swap rule, for the first pivot of a sweep, and it returns a record of
its sweeps, from which the determinant and the kernel read their pivots.

- ``int_det`` runs it on an integer matrix, ``det`` on a matrix of
  Laurent polynomials, both through one body (``_det``);
- ``pencil_det`` takes det(t*S - N) of size m from integer determinants
  of its pencils (Kronecker substitution), b from a Hadamard bound on
  the coefficients, on one of two routes: one wide determinant at
  x = 2^(2b) while m*b <= 512, where interpreter overhead outweighs the
  big-integer work, else the narrow f(2^(b+1)) and its mirror
  det(S - 2^(b+1)*N), read from both ends, of which a pair with
  N = +-S^t, its own mirror, needs only the first.  The normalized
  determinant is that polynomial shifted;
- ``_corank_one_kernel`` reads the kernel of an integer matrix such as
  S - N off it by back substitution, solving each three-step sweep as
  one 3x3 system by its adjugate.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import mul

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


def _adjugate_columns(b0: Sequence, b1: Sequence, b2: Sequence) -> list[tuple]:
    """The columns b1 x b2, b2 x b0 and b0 x b1 of adj(B), B the 3x3 matrix
    of rows b0, b1, b2: B times column i is det(B) in entry i, else 0."""
    (p, q, r), (u, v, w), (x, y, z) = b0, b1, b2
    return [
        (v * z - w * y, w * x - u * z, u * y - v * x),
        (y * r - z * q, z * p - x * r, x * q - y * p),
        (q * w - r * v, r * u - p * w, p * v - q * u),
    ]


def _bareiss(rows: Sequence[Sequence]) -> tuple[list[list], list[tuple], list[int], int]:
    """Fraction-free three-step Bareiss elimination of a list copy of square rows.

    The entries are ints or LaurentPolys.  At step k (k pivots so far)
    entry (i, j) is the minor on rows 0..k-1, i and on the pivot columns
    and j, so by Sylvester's identity every s x s minor of step-k entries
    is prev^(s-1) times a minor of the matrix, prev the last pivot, and
    each division by a power of prev is exact (``//``) in either ring
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968).  Each sweep starts at the
    next column: the entry in row k becomes the pivot p0, after a swap with
    the first row below holding a nonzero entry there if it is zero; a
    column with no such entry is passed over.  That is the one swap rule.
    When rows k..k+2 have a nonzero leading 2x2 minor and a nonzero 3x3
    minor B in the three columns from there, the sweep takes all three
    columns, and c0 = det(B) / prev^2 is its pivot: each row below, with
    entries x in those columns, gets the multipliers g_i = x . adj_i /
    prev^2 from the columns adj_i of adj(B), and each of its entries z
    right of them, above which rows k..k+2 hold w_0..w_2, becomes (c0*z -
    g_0*w_0 - g_1*w_1 - g_2*w_2) / prev, one pass and one division per
    entry for three pivots.  Rows k+1 and k+2 stay at step k.  Otherwise,
    and where fewer than three columns remain, the sweep takes one column.
    At step k+1 each entry in column col+1 is its row's 2x2 minor with row
    k over prev, and at step k+2 each entry in column col+2 is its row's
    3x3 minor with rows k and k+1 over prev^2, so a three-step sweep is
    taken just where one column per sweep would swap for neither its
    second nor its third pivot, and after a one-step sweep the next swap
    picks the row the one-step elimination picks: the swaps, the sign and
    the pivots are those of one column per sweep.  So is each row from its
    pivot column on, except the second and third rows of a three-step
    sweep, which hold step-k entries.  Left of the pivot column, and in
    pivot columns below their pivot, a row holds stale entries, and no
    caller reads them.

    Returns the eliminated rows, the sweeps, the original index of each
    row and the sign of that row permutation.  Each sweep is (col, width,
    pivot): its first column, its number of columns (1 or 3) and the last
    pivot it made (p0 or c0).  When the widths add up to the size, the
    determinant is the sign times the last pivot; otherwise it is zero.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sweeps, order, sign, prev = [], list(range(n)), 1, 1
    k = col = 0
    while col < n:
        if not a[k][col]:
            p = next((i for i in range(k + 1, n) if a[i][col]), None)
            if p is None:
                col += 1
                continue
            a[k], a[p], order[k], order[p] = a[p], a[k], order[p], order[k]
            sign = -sign
        r0 = a[k]
        p0 = r0[col]
        if col + 2 < n:
            r1, r2 = a[k + 1], a[k + 2]
            (a0, a1, a2), (b0, b1, b2), (e0, e1, e2) = _adjugate_columns(
                r0[col : col + 3], r1[col : col + 3], r2[col : col + 3]
            )
            c0 = r2[col] * e0 + r2[col + 1] * e1 + r2[col + 2] * e2
            if e2 and c0:
                pp = prev * prev
                c0 //= pp
                t0, t1, t2 = r0[col + 3 :], r1[col + 3 :], r2[col + 3 :]
                for row in a[k + 3 :]:
                    x, y, z = row[col : col + 3]
                    g0 = (x * a0 + y * a1 + z * a2) // pp
                    g1 = (x * b0 + y * b1 + z * b2) // pp
                    g2 = (x * e0 + y * e1 + z * e2) // pp
                    row[col + 3 :] = [
                        (c0 * v - g0 * w0 - g1 * w1 - g2 * w2) // prev
                        for v, w0, w1, w2 in zip(row[col + 3 :], t0, t1, t2)
                    ]
                sweeps.append((col, 3, c0))
                prev = c0
                k, col = k + 3, col + 3
                continue
        tail = r0[col + 1 :]
        for row in a[k + 1 :]:
            aic = row[col]
            row[col + 1 :] = [(p0 * x - aic * y) // prev for x, y in zip(row[col + 1 :], tail)]
        sweeps.append((col, 1, p0))
        prev = p0
        k, col = k + 1, col + 1
    return a, sweeps, order, sign


def _det(rows: Sequence[Sequence], one, zero):
    """Exact determinant of square rows over the ring of one and zero."""
    _require_square(rows)
    if not rows:
        return one
    _, sweeps, _, sign = _bareiss(rows)
    if sum(width for _, width, _ in sweeps) < len(rows):
        return zero
    return sign * sweeps[-1][2]


def _corank_one_kernel(m: IntMatrix) -> tuple[list[int], int, int] | None:
    """(y, row, g) for a square integer matrix of rank size - 1, else None.

    Bareiss elimination with row swaps, passing over columns without a
    pivot, reduces original row `row` to zero.  Back substitution from
    y[free] = the last pivot, the minor without that row and the free
    column, is exact by Cramer's rule and gives column `row` of adj(m) up
    to sign: g*y with y primitive.  As adj(m) = c*y*x^t, x the primitive
    left kernel vector, m has Smith form diag(1, ..., 1, 0) iff g == |x[row]|.

    The sweeps are solved from the last.  A three-step sweep at column c
    has rows k..k+2 at step k, whose entries in columns c..c+2 form B with
    det(B) = prev^2*pivot, prev the pivot of the sweep before (1 for the
    first); with s the sums of its three rows against y right of the sweep,
    B*y[c:c+3] = -s, so y[c:c+3] = -adj(B)*s / (prev^2*pivot).  A one-step
    sweep gives p0*y[c] = -s0.  Each division is exact, as the integer
    vector y solves the equations.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        return None
    a, sweeps, order, _ = _bareiss(m)
    if sum(width for _, width, _ in sweeps) != n - 1:
        return None
    prevs = [1] + [pivot for _, _, pivot in sweeps]
    y = [prevs[-1]] * n
    for c, width, _ in sweeps:
        y[c : c + width] = [0] * width
    k = n - 1
    for (c, width, pivot), prev in zip(reversed(sweeps), reversed(prevs[:-1])):
        k -= width
        r0 = a[k]
        if width == 3:
            r1, r2, right = a[k + 1], a[k + 2], y[c + 3 :]
            s0 = sum(map(mul, r0[c + 3 :], right))
            s1 = sum(map(mul, r1[c + 3 :], right))
            s2 = sum(map(mul, r2[c + 3 :], right))
            (a0, a1, a2), (b0, b1, b2), (e0, e1, e2) = _adjugate_columns(
                r0[c : c + 3], r1[c : c + 3], r2[c : c + 3]
            )
            d = prev * prev * pivot
            y[c : c + 3] = (
                -(s0 * a0 + s1 * b0 + s2 * e0) // d,
                -(s0 * a1 + s1 * b1 + s2 * e1) // d,
                -(s0 * a2 + s1 * b2 + s2 * e2) // d,
            )
        else:
            y[c] = -sum(map(mul, r0[c + 1 :], y[c + 1 :])) // r0[c]
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


def _two_ended_digits(value: int, mirror: int, width: int, size: int) -> list[int]:
    """The coefficients c_0..c_size of the integer polynomial f with
    value = f(2^width) and mirror = 2^(width*size) * f(2^-width) (the same
    coefficients reversed), given |c_k| < 2^(2*width-3).

    Read from both ends: value mod 2^width is c_0's residue, and mirror's
    top digits, mirror >> width*size, give c_0 but for the carry of the
    lower terms, below a quarter of 2^width (plus one for the floor), so
    c_0 is the number of that residue nearest them; c_size likewise from
    mirror's low digit and value's top digits.  Both values less both
    ends, shifted down one digit, hold c_1..c_(size-1) the same way; for
    even size the middle coefficient is what remains.  width must be >= 2.
    """
    full = 1 << width
    half, mask = full >> 1, full - 1
    low, high = [], []
    top = size
    while top > 0:
        shift = width * top
        first, last = (
            estimate + ((residue - estimate + half) & mask) - half
            for residue, estimate in ((value, mirror >> shift), (mirror, value >> shift))
        )
        low.append(first)
        high.append(last)
        value = (value - first - (last << shift)) >> width
        mirror = (mirror - last - (first << shift)) >> width
        top -= 2
    if not top:
        low.append(value)
    return low + high[::-1]


def pencil_det(pair: SeifertPair) -> LaurentPoly:
    """det(t*S - N) of a square pair, by Kronecker substitution.

    The determinant f is an integer polynomial of degree at most m in t,
    m the matrix size (not pair.n).  For |t| = 1, Hadamard's inequality
    bounds |f(t)|^2 by h2, the product over the rows of |S_i|^2 + |N_i|^2
    + 2*|<S_i, N_i>|, so by Parseval every coefficient has |c_k| <=
    sqrt(h2).  Take b with 2^(4b-2) > h2: every coefficient is then a
    balanced digit in base 2^(2b), so one integer Bareiss determinant,
    f(2^(2b)), packs them all (the wide route).  The narrow route needs
    half that width: at X = 2^(b+1), f(X) and its mirror X^m * f(1/X) =
    det(S - X*N) are read from both ends (_two_ended_digits), as |c_k| <
    2^(2b-1) = 2^(2(b+1)-3).  A pair with N = sigma*S^t, sigma = +-1 (a
    knot's (V, V^t), and every middle pair of the twist identity), is its
    own mirror up to sign: f(t) = det(t*S^t - sigma*S) = (-sigma)^m * t^m
    * f(1/t), so its mirror costs no second determinant, and it takes the
    narrow route at every size.  The pair is tested entry by entry, after
    the square check, for sigma = 1 and then -1.  A zero pencil (h2 = 0: a
    row of t*S - N is zero) needs no branch of its own: b = 1, the
    determinants are 0, and the digits unpack to ZERO.

    Cost: about m^3/9 entry updates per three-step elimination, each of
    four products and one exact division, on integers of up to about m*b
    bits on the narrow route and 2*m*b on the wide one, where b is a
    quarter of the bits of h2 (so b grows linearly in m).  While m*b <=
    512 an update costs mostly interpreter overhead, whatever the length
    of its integers, so one wide point beats two narrow ones: it takes
    0.74-0.90 of their time at m*b = 364-525.  The two cost about the same
    at m*b = 610-690 (0.98-1.06); above that the quadratic division of
    the longer integers makes the wide point slower (1.08-1.20 at m*b =
    770-950, 1.1-1.5 at 1,100).  These are int_det times at each route's
    points, medians of 15 interleaved batches over four random +-3,
    knot-like, +-100 or +-10^6 pairs per size, of sizes 6 to 22 (Python
    3.11.7, 2-vCPU VM).  Below m = 40 either route beats m + 1
    eliminations on small integers; at the 64 x 64 cap the big-integer
    division dominates, and two narrow determinants take 3.4-5.6 s on +-3
    entries and 7.6-10.7 s with every entry +-15.  A pair with N = +-S^t
    takes one, so about half as long: 1.7-2.7 s on knot-type pairs (N =
    S^t) with entries in [-3, 3] and 4.2-5.4 s with every entry +-15
    (three pairs each, three runs in a busy sitting, where the two-step
    elimination took 3.9-5.7, 9.4-11.6, 1.9-3.3 and 4.8-6.3 s).
    """
    _require_square(pair.S)
    S, N, m = pair.S, pair.N, len(pair.S)
    h2 = 1
    for srow, nrow in zip(S, N):
        h2 *= sum(map(mul, srow, srow)) + sum(map(mul, nrow, nrow)) + 2 * abs(
            sum(map(mul, srow, nrow))
        )
    b = (h2.bit_length() + 5) // 4
    sigma = next(
        (s for s in (1, -1) if all(N[i][j] == s * S[j][i] for i in range(m) for j in range(m))), 0
    )
    if sigma or m * b > 512:
        x = 1 << b + 1
        value = int_det(_pencil(pair, x, 1))
        mirror = (-sigma) ** m * value if sigma else int_det(_pencil(pair, 1, x))
        digits = _two_ended_digits(value, mirror, b + 1, m)
    else:
        digits = _balanced_digits(int_det(_pencil(pair, 1 << 2 * b, 1)), 2 * b)
    return LaurentPoly({2 * k: c for k, c in enumerate(digits)})


# -- matrix moves -------------------------------------------------------------


def check_duality(pair_a: SeifertPair, pair_b: SeifertPair) -> bool:
    """Whether pair_a.N = sigma * transpose(pair_b.S) and pair_b.N = sigma *
    transpose(pair_a.S), with sigma = (-1)^(p*n+1).

    pair_a must have degree p and pair_b the complementary degree n+1-p
    over the same n, with pair_b shaped as the transpose of pair_a.  Both
    equations are the one symmetry of linking numbers: x linked with y
    pushed one way is y linked with x pushed the other way, times sigma,
    which is the same in both degrees as n*(n+1) is even.
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
    return all(
        x.N == tuple(tuple(sign * v for v in row) for row in transpose(y.S))
        for x, y in ((pair_a, pair_b), (pair_b, pair_a))
    )


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
