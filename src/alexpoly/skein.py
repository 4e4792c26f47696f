"""Skein-style identity checks for move triples, and representative search.

The pass-move identity compares dp - dm with (t - 1)*d0 over integer
powers; the twist-move identity compares dp - dm with
(t^(1/2) - t^(-1/2))*d0 on the half grid.  Both are exact: a verdict
carries the two sides and their residual.

Balanced classes only determine polynomials up to units, so a triple of
classes satisfies the pass-move identity when SOME unit multiples of the
canonical representatives do.  find_representatives searches the finite
window of unit multipliers +-t^n with |n| <= 1 + (sum of degree spans)
and reports the first witness, smallest total shift first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .balance import BalancedClass, Ring, _require_integral
from .laurent import LaurentPoly, T_HALF_DIFF, T_MINUS_ONE


@dataclass(frozen=True)
class SkeinVerdict:
    """Outcome of one identity check; holds iff residual is zero."""

    holds: bool
    lhs: LaurentPoly
    rhs: LaurentPoly
    residual: LaurentPoly


@dataclass(frozen=True)
class RepresentativeWitness:
    """Unit multipliers (sign, exponent) for (plus, minus, zero), if any."""

    found: bool
    shifts: tuple[tuple[int, int], ...] = ()


def _verdict(lhs: LaurentPoly, rhs: LaurentPoly) -> SkeinVerdict:
    residual = lhs - rhs
    return SkeinVerdict(holds=not residual, lhs=lhs, rhs=rhs, residual=residual)


def check_pass_move(
    dp: LaurentPoly, dm: LaurentPoly, d0: LaurentPoly
) -> SkeinVerdict:
    """Check dp - dm = (t - 1) * d0 exactly (integer powers only)."""
    for f in (dp, dm, d0):
        _require_integral(f)
    return _verdict(dp - dm, T_MINUS_ONE * d0)


def check_twist_move(
    dp: LaurentPoly, dm: LaurentPoly, d0: LaurentPoly
) -> SkeinVerdict:
    """Check dp - dm = (t^(1/2) - t^(-1/2)) * d0 exactly."""
    return _verdict(dp - dm, T_HALF_DIFF * d0)


def _span_t(f: LaurentPoly) -> int:
    span = f.span_halfexp()
    return 0 if span is None else span // 2


def search_window(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> int:
    """Half-width of the exponent search window for find_representatives."""
    reps = (cp.representative, cm.representative, c0.representative)
    return 1 + sum(_span_t(f) for f in reps)


def find_representatives(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> RepresentativeWitness:
    """Search unit multiples of the class representatives for a pass-move
    identity.

    Candidates (sign, exponent) run over sign in {+1, -1} and exponents
    in [-W, W] with W = search_window(...); they are tried in ascending
    total shift, ties broken by exponent magnitude, then positive
    exponent, then positive sign, separately for the plus, minus and
    zero slots.  The first candidate that makes check_pass_move hold is
    returned; absence of a witness inside the window is reported as
    found=False (it is not a proof of nonexistence).
    """
    for c in (cp, cm, c0):
        if c.ring is not Ring.Z:
            raise ValueError("representative search needs Z-ring classes")
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
            return RepresentativeWitness(found=True, shifts=shifts)
    return RepresentativeWitness(found=False)
