"""Link invariants computed from Seifert pairs and their determinants.

The two polynomial invariants are the Z- and Q-balanced classes of
det(t*S - N) and the normalized polynomial det(t^(1/2)*S - t^(-1/2)*N).
The integer invariants are extracted from those polynomials by exact
division and evaluation at t = 1 (pseudo-alinking, pseudo-twinkling and
the first/second order values), or read off the matrices at the kernel
vectors of the intersection form S - N, in any basis.  The Arf invariant
works on the diagonal Seifert pairings of a Z2-symplectic basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .balance import BalancedClass, Ring, _require_integral
from .errors import NotDivisible, PreconditionViolated, ShapeMismatch
from .laurent import LaurentPoly, T_HALF_DIFF, T_MINUS_ONE, ZERO
from .seifert import SeifertPair, _corank_one_kernel, intersection_form, pencil_det


@dataclass(frozen=True)
class NormalizedInput:
    """A middle-dimension Seifert pair plus the injectivity flag.

    The pair must carry n = 4k+1 and p = 2k+1.  middle_condition states
    whether the degree-2k Alexander matrix induces an injective map on
    the covering homology; that is topological data the caller supplies,
    and when it is false the normalized polynomial is zero by definition.
    """

    pair: SeifertPair
    middle_condition: bool

    def __post_init__(self):
        n, p = self.pair.n, self.pair.p
        if n % 4 != 1 or 2 * p != n + 1:
            raise ValueError(f"need n = 4k+1 and p = 2k+1, got p={p}, n={n}")


@dataclass(frozen=True)
class ArfData:
    """Diagonal Seifert pairings lk(x_i, x_i+) and lk(y_i, y_i+)."""

    nu: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, nu: int, a, b):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))
        if nu < 1:
            raise ValueError("nu must be positive")
        if len(self.a) != nu or len(self.b) != nu:
            raise ShapeMismatch(
                f"need {nu} pairings per list, got {len(self.a)} and {len(self.b)}"
            )


@dataclass(frozen=True)
class InvariantReport:
    """Computed polynomial, both balanced classes, and derived integers.

    scalars is a read-only view of a private copy of the mapping passed in.
    """

    polynomial: LaurentPoly
    class_z: BalancedClass
    class_q: BalancedClass
    scalars: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "scalars", MappingProxyType(dict(self.scalars)))


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
    """Polynomial and both classes for a square pair, plus scalar extras."""
    poly = pencil_det(pair)
    scalars = {"determinant_at_one": poly.eval_at_one()}
    try:
        scalars["pseudo_alinking"] = pseudo_alinking_from_poly(poly)
    except NotDivisible:
        pass
    return InvariantReport(
        polynomial=poly,
        class_z=BalancedClass.from_poly(poly, Ring.Z),
        class_q=BalancedClass.from_poly(poly, Ring.Q),
        scalars=scalars,
    )


def pseudo_alinking_from_poly(delta: LaurentPoly) -> int:
    """|delta/(t-1) at t=1| for a polynomial divisible by t-1 (0 for 0)."""
    _require_integral(delta)
    return abs(delta.exact_div(T_MINUS_ONE).eval_at_one())


def _distinguished_cycles(pair: SeifertPair) -> tuple[list[int], list[int]]:
    """Primitive left and right kernel vectors x, y of S - N.

    The Smith form of S - N must be diag(1, ..., 1, 0), so adj(S - N) =
    +-y*x^t.  A basis change (P, Q) sends x, y to P^-t x, Q^-t y, so x^t S y
    is the same in every basis; in the block shapes x = y = e_1.
    """
    form = intersection_form(pair)
    right, left = _corank_one_kernel(form), _corank_one_kernel(tuple(zip(*form)))
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
    """f/(t^(1/2) - t^(-1/2)) evaluated at t = 1 (0 for the zero input)."""
    return f.exact_div(T_HALF_DIFF).eval_at_one()


def second_order_at_one(f: LaurentPoly) -> int:
    """f/(t^(1/2) - t^(-1/2))^2 evaluated at t = 1 (0 for the zero input)."""
    return f.exact_div(T_HALF_DIFF).exact_div(T_HALF_DIFF).eval_at_one()


def arf(data: ArfData) -> int:
    """Sum of lk(x_i, x_i+)*lk(y_i, y_i+) mod 2."""
    return sum(x * y for x, y in zip(data.a, data.b)) % 2
