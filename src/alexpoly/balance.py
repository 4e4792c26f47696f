"""Balanced-class equivalence of Laurent polynomials over Z and Q.

Two integer-power polynomials are Z-balanced when one is the other times
a unit +-t^n, and Q-balanced when one is the other times r*t^n for some
nonzero rational r.  Classes are represented by a fixed canonical form so
that two polynomials are equivalent exactly when their canonical forms
are equal.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NonIntegerExponent
from .laurent import LaurentPoly, _wrap


class Ring(enum.Enum):
    """Coefficient ring tag for balanced classes."""

    Z = "Z"
    Q = "Q"


def _require_integral(f: LaurentPoly) -> None:
    if not f.is_integral():
        raise NonIntegerExponent(f"{f} has half powers of t")


def z_balanced_eq(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff f = +-t^n * g for some integer n.

    Both inputs must use integer powers of t only.
    """
    return canonicalize(f, Ring.Z) == canonicalize(g, Ring.Z)


def q_balanced_eq(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff f = r*t^n * g for some integer n and nonzero rational r.

    Both inputs must use integer powers of t only.
    """
    return canonicalize(f, Ring.Q) == canonicalize(g, Ring.Q)


def canonicalize(f: LaurentPoly, ring: Ring) -> LaurentPoly:
    """Canonical representative of the balanced class of f.

    For Z: shift so the minimum exponent is 0 and flip the sign so the
    leading (highest-degree) coefficient is positive.  For Q: divide
    additionally by the content.  Zero maps to zero.
    """
    _require_integral(f)
    if not f:
        return f
    terms = f._terms
    low = min(terms)
    negative = terms[max(terms)] < 0
    if ring is Ring.Z:
        if negative:
            return _wrap({k - low: -v for k, v in terms.items()})
        return f if low == 0 else f.shift(-low)
    scale = -f.content() if negative else f.content()
    return _wrap({k - low: v // scale for k, v in terms.items()})


@dataclass(frozen=True)
class BalancedClass:
    """A balanced class, stored via its canonical representative."""

    representative: LaurentPoly
    ring: Ring

    @classmethod
    def from_poly(cls, f: LaurentPoly, ring: Ring) -> BalancedClass:
        return cls(canonicalize(f, ring), ring)

    def contains(self, f: LaurentPoly) -> bool:
        return canonicalize(f, self.ring) == self.representative

    def __str__(self) -> str:
        return f"{self.ring.value}-class of {self.representative}"
