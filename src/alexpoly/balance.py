"""Balanced-class equivalence of Laurent polynomials over Z and Q.

Two integer-power polynomials are Z-balanced when one is the other times
a unit +-t^n, and Q-balanced when one is the other times r*t^n for some
nonzero rational r.  Classes are represented by a fixed canonical form so
that two polynomials are equivalent exactly when their canonical forms
are equal.
"""
from __future__ import annotations

import enum

from .errors import NonIntegerExponent, short_repr
from .laurent import LaurentPoly, _adopt
from .record import _Record


class Ring(enum.Enum):
    """Coefficient ring tag for balanced classes."""

    Z = "Z"
    Q = "Q"


def _require_integral(f: LaurentPoly) -> None:
    if not f.is_integral():
        raise NonIntegerExponent(f"{short_repr(f)} has half powers of t")


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

    Shift so the minimum exponent is 0 and divide by the scale: 1 for Z,
    the content for Q, negated when the leading (highest-degree)
    coefficient is negative.  A scale of 1 only shifts, and returns f
    itself when f already starts at t^0.  Zero maps to zero.
    """
    if not isinstance(ring, Ring):
        raise TypeError(f"ring must be Ring.Z or Ring.Q, got {short_repr(ring)}")
    _require_integral(f)
    if not f:
        return f
    terms = f._terms
    low = min(terms)
    scale = f.content() if ring is Ring.Q else 1
    if terms[max(terms)] < 0:
        scale = -scale
    if scale == 1:
        return f if low == 0 else f.shift(-low)
    return _adopt({k - low: v // scale for k, v in terms.items()})


class BalancedClass(_Record):
    """A balanced class, stored via its canonical representative.

    The constructor takes the canonical representative itself; use
    ``from_poly`` for any other member of the class.
    """

    representative: LaurentPoly
    ring: Ring

    def __init__(self, representative: LaurentPoly, ring: Ring):
        if not isinstance(representative, LaurentPoly):
            raise TypeError(f"a representative must be a LaurentPoly, got {short_repr(representative)}")
        if canonicalize(representative, ring) != representative:
            raise ValueError(
                f"{short_repr(representative)} is not the canonical {ring.value} representative"
            )
        self.__dict__.update(representative=representative, ring=ring)

    @classmethod
    def from_poly(cls, f: LaurentPoly, ring: Ring) -> BalancedClass:
        """The class of any member f.

        Its representative is canonical by construction, so it is set
        without the constructor's check, which would canonicalize again.
        """
        self = object.__new__(cls)
        self.__dict__.update(representative=canonicalize(f, ring), ring=ring)
        return self

    def contains(self, f: LaurentPoly) -> bool:
        return canonicalize(f, self.ring) == self.representative

    def __str__(self) -> str:
        return f"{self.ring.value}-class of {self.representative}"
