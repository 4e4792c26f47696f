"""Link invariants computed from Seifert pairs and their determinants.

The two polynomial invariants are the Z- and Q-balanced classes of
det(t*S - N) and the normalized polynomial det(t^(1/2)*S - t^(-1/2)*N).
The integer invariants are values at t = 1 of those polynomials divided
by t - 1 or by a power of t^(1/2) - t^(-1/2) (pseudo-alinking,
pseudo-twinkling and the first/second order values), or are read off the
matrices at the kernel vectors of the intersection form S - N, in any
basis.  The Arf invariant works on the diagonal Seifert pairings of a
Z2-symplectic basis.

No quotient is built.  Write u = t^(1/2) and f = sum of c_k*u^k over the
half-exponent keys k.  Each divisor d is monic up to a unit, so d divides
f over the integers exactly when it does over Q, that is when f vanishes
at the roots of d to their order.  If f = d*q with d(1) = 0, then
f'(1) = d'(1)*q(1), and if f = d^2*q, then f''(1) = 2*d'(1)^2*q(1); the
derivatives of f at 1 are sums over the coefficients.  For t - 1 in the
variable t, q(1) = delta'(1) = sum of (k/2)*c_k:

>>> delta = LaurentPoly.parse('-5 + 2*t^1 + 3*t^3')
>>> (delta // T_MINUS_ONE).eval_at_one(), sum(k // 2 * c for k, c in delta.terms.items())
(11, 11)
"""
from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .balance import BalancedClass, Ring, _require_integral
from .errors import NotDivisible, PreconditionViolated, ShapeMismatch, short_repr
from .laurent import LaurentPoly, T_HALF_DIFF, T_MINUS_ONE, ZERO
from .record import _Record
from .seifert import (
    SeifertPair, _corank_one_kernel, _require_square, intersection_form, pencil_det, transpose
)


class NormalizedInput(_Record):
    """A middle-dimension Seifert pair plus the injectivity flag.

    The pair must carry n = 4k+1 and p = 2k+1, and be square: it pairs
    H_{2k+1} with itself, so a non-square pair raises NotSquare whatever
    the flag.  middle_condition states whether the degree-2k Alexander
    matrix induces an injective map on the covering homology; that is
    topological data the caller supplies, and when it is false the
    normalized polynomial is zero by definition.
    """

    pair: SeifertPair
    middle_condition: bool

    def __init__(self, pair: SeifertPair, middle_condition: bool):
        if type(middle_condition) is not bool:
            raise TypeError(f"middle_condition must be a bool, got {short_repr(middle_condition)}")
        n, p = pair.n, pair.p
        if n % 4 != 1 or 2 * p != n + 1:
            raise ValueError(f"need n = 4k+1 and p = 2k+1, got p={short_repr(p)}, n={short_repr(n)}")
        _require_square(pair.S)
        self.__dict__.update(pair=pair, middle_condition=middle_condition)


class ArfData(_Record):
    """Diagonal Seifert pairings a_i = lk(x_i, x_i+) and b_i = lk(y_i, y_i+), i = 1..len(a)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a, b):
        self.__dict__.update(a=tuple(a), b=tuple(b))
        for v in self.a + self.b:
            if type(v) is not int:
                raise TypeError(f"pairings must be ints, got {short_repr(v)}")
        if not self.a:
            raise ValueError("need at least one pairing per list")
        if len(self.a) != len(self.b):
            raise ShapeMismatch(
                f"need as many pairings in b as in a, got {len(self.a)} and {len(self.b)}"
            )


class InvariantReport(_Record):
    """Computed polynomial, both balanced classes, and derived integers."""

    polynomial: LaurentPoly
    class_z: BalancedClass
    class_q: BalancedClass

    def __init__(self, polynomial: LaurentPoly, class_z: BalancedClass, class_q: BalancedClass):
        self.__dict__.update(polynomial=polynomial, class_z=class_z, class_q=class_q)

    @property
    def scalars(self) -> Mapping[str, int]:
        """A read-only mapping, new on each read: determinant_at_one, and
        pseudo_alinking when that value is 0."""
        at_one = self.polynomial.eval_at_one()
        scalars = {"determinant_at_one": at_one}
        if at_one == 0:
            scalars["pseudo_alinking"] = pseudo_alinking_from_poly(self.polynomial)
        return MappingProxyType(scalars)


def z_alexander(pair: SeifertPair) -> BalancedClass:
    """Z-balanced class of det(t*S - N)."""
    return BalancedClass.from_poly(pencil_det(pair), Ring.Z)


def q_alexander(pair: SeifertPair) -> BalancedClass:
    """Q-balanced class of det(t*S - N)."""
    return BalancedClass.from_poly(pencil_det(pair), Ring.Q)


def normalized_alexander(data: NormalizedInput) -> LaurentPoly:
    """det(t^(1/2)*S - t^(-1/2)*N), or zero if the middle condition fails.

    The matrix is t^(-1/2) * (t*S - N), so its determinant is
    det(t*S - N) shifted by t^(-size/2), size the matrix size.
    """
    if not data.middle_condition:
        return ZERO
    size = len(data.pair.S)
    return pencil_det(data.pair).shift(-size)


def report(pair: SeifertPair) -> InvariantReport:
    """Polynomial and both classes for a square pair; the report derives
    its scalar extras from the polynomial."""
    poly = pencil_det(pair)
    return InvariantReport(
        poly, BalancedClass.from_poly(poly, Ring.Z), BalancedClass.from_poly(poly, Ring.Q)
    )


def _moments(f: LaurentPoly) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Sums of c_k, k*c_k and k^2*c_k over the terms c_k*t^(k/2) of f,
    each as (sum over even k, sum over odd k)."""
    e0 = o0 = e1 = o1 = e2 = o2 = 0
    for k, c in f._terms.items():
        kc = k * c
        if k & 1:
            o0 += c
            o1 += kc
            o2 += k * kc
        else:
            e0 += c
            e1 += kc
            e2 += k * kc
    return (e0, o0), (e1, o1), (e2, o2)


def _not_divisible(f: LaurentPoly, divisor) -> NotDivisible:
    return NotDivisible(f"{short_repr(f)} is not divisible by {divisor}")


def pseudo_alinking_from_poly(delta: LaurentPoly) -> int:
    """|delta/(t-1) at t=1| for a polynomial divisible by t-1 (0 for 0).

    t - 1 divides delta exactly when delta(1), the coefficient sum, is 0;
    the quotient at 1 is then delta'(1), the sum of (k/2)*c_k.

    >>> delta = LaurentPoly.parse('-5 + 2*t^1 + 3*t^3')
    >>> pseudo_alinking_from_poly(delta), (delta // T_MINUS_ONE).eval_at_one()
    (11, 11)
    """
    _require_integral(delta)
    (at_one, _), (slope, _), _ = _moments(delta)
    if at_one:
        raise _not_divisible(delta, T_MINUS_ONE)
    return abs(slope) // 2


def _distinguished_cycles(pair: SeifertPair) -> tuple[list[int], list[int]]:
    """Primitive left and right kernel vectors x, y of S - N.

    The Smith form of S - N must be diag(1, ..., 1, 0), so adj(S - N) =
    +-y*x^t.  A basis change (P, Q) sends x, y to P^-t x, Q^-t y, so x^t S y
    is the same in every basis; in the block shapes x = y = e_1.
    """
    form = intersection_form(pair)
    right, left = _corank_one_kernel(form), _corank_one_kernel(transpose(form))
    if right is None or right[2] != abs(left[0][right[1]]):
        raise PreconditionViolated("Smith form of S - N is not diag(1, ..., 1, 0)")
    return left[0], right[0]


def pseudo_alinking_from_pair(pair: SeifertPair) -> int:
    """|x^t S y| for the distinguished cycles x, y; |S_11| in block shape."""
    x, y = _distinguished_cycles(pair)
    return abs(sum(a * s * b for a, row in zip(x, pair.S) for s, b in zip(row, y)))


def pseudo_twinkling_from_pair(pair: SeifertPair) -> int:
    """x^t S x for the distinguished cycle x = +-y (as when N = S^t); S_11
    in block shape."""
    x, y = _distinguished_cycles(pair)
    if x != y and x != [-v for v in y]:
        raise PreconditionViolated("left and right kernels of S - N differ")
    return sum(a * s * b for a, row in zip(x, pair.S) for s, b in zip(row, x))


def first_order_at_one(f: LaurentPoly) -> int:
    """f/(t^(1/2) - t^(-1/2)) evaluated at t = 1 (0 for the zero input).

    With u = t^(1/2), the divisor u - 1/u = (u - 1)(u + 1)/u divides f
    exactly when f(1) and f(-1) are 0, that is when the coefficient sums
    over even k and over odd k are both 0.  The quotient at 1 is then
    f'(1)/2, half the sum of k*c_k.

    >>> f = LaurentPoly.parse('-2*t^(-1/2) + -1*t^(1/2) + 3*t^(3/2)')
    >>> first_order_at_one(f), (f // T_HALF_DIFF).eval_at_one()
    (5, 5)
    """
    (even, odd), slope, _ = _moments(f)
    if even or odd:
        raise _not_divisible(f, T_HALF_DIFF)
    return sum(slope) // 2


def second_order_at_one(f: LaurentPoly) -> int:
    """f/(t^(1/2) - t^(-1/2))^2 evaluated at t = 1 (0 for the zero input).

    With u = t^(1/2), the square of u - 1/u divides f exactly when f and
    f' vanish at u = 1 and u = -1: the sums of c_k and of k*c_k are 0
    over even k and over odd k.  The quotient at 1 is then f''(1)/8, an
    eighth of the sum of k^2*c_k.

    >>> f = LaurentPoly.parse('2*t^-1 + -1 + -4*t^1 + 3*t^2')
    >>> second_order_at_one(f), (f // T_HALF_DIFF // T_HALF_DIFF).eval_at_one()
    (5, 5)
    """
    (even, odd), slope, curvature = _moments(f)
    if even or odd:
        raise _not_divisible(f, T_HALF_DIFF)
    if any(slope):
        raise _not_divisible(f, f"({T_HALF_DIFF})^2")
    return sum(curvature) // 8


def arf(data: ArfData) -> int:
    """Sum of lk(x_i, x_i+)*lk(y_i, y_i+) mod 2."""
    return sum(x * y for x, y in zip(data.a, data.b)) % 2
