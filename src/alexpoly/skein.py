"""Skein-style identity checks for move triples, and representative witnesses.

The pass-move identity compares dp - dm with (t - 1)*d0 over integer
powers; the twist-move identity compares dp - dm with
(t^(1/2) - t^(-1/2))*d0 on the half grid.  Both are exact: a verdict
carries the two sides and their residual.  It compares the two sides
first and builds the residual lhs - rhs only when they differ; when they
are equal the residual is the shared ZERO.

Balanced classes only determine polynomials up to units, so a triple of
classes satisfies the pass-move identity when SOME unit multiples of the
canonical representatives do.  find_representatives derives all of them
from lowest exponents and leading signs, with no search window and no
division, and returns the one of least total shift.
"""
from __future__ import annotations

from .balance import BalancedClass, Ring, _require_integral
from .laurent import LaurentPoly, T_HALF_DIFF, T_MINUS_ONE, ZERO
from .record import _Record


class SkeinVerdict(_Record):
    """Outcome of one identity check; holds iff residual is zero."""

    lhs: LaurentPoly
    rhs: LaurentPoly
    residual: LaurentPoly

    def __init__(self, lhs: LaurentPoly, rhs: LaurentPoly, residual: LaurentPoly):
        self.__dict__.update(lhs=lhs, rhs=rhs, residual=residual)

    @property
    def holds(self) -> bool:
        return not self.residual


class RepresentativeWitness(_Record):
    """Unit multipliers (sign, exponent) for (plus, minus, zero); empty if
    no unit multiples satisfy the identity."""

    shifts: tuple[tuple[int, int], ...]

    def __init__(self, shifts: tuple[tuple[int, int], ...] = ()):
        self.__dict__.update(shifts=shifts)

    @property
    def found(self) -> bool:
        return bool(self.shifts)


def _verdict(lhs: LaurentPoly, rhs: LaurentPoly) -> SkeinVerdict:
    return SkeinVerdict(lhs, rhs, ZERO if lhs == rhs else lhs - rhs)


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


def search_window(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> int:
    """W = 1 + the sum of the degree spans of the three representatives.

    No shift of the witness find_representatives returns exceeds W.
    """
    reps = (cp.representative, cm.representative, c0.representative)
    # Z classes have even half-exponents, which >> 1 halves exactly.
    return 1 + sum((f.span_halfexp() or 0) >> 1 for f in reps)


def _relative_witnesses(
    rp: LaurentPoly, rm: LaurentPoly, r0: LaurentPoly
) -> list[tuple]:
    """Every (sp, sm, s0, d, e) with sp*t^d*rp - sm*rm = s0*t^e*u.

    rp, rm and r0 are canonical Z representatives and u = (t - 1)*r0, so
    all four start at t^0 and end in a positive coefficient.  A tuple
    stands for the witnesses (sp, n + d), (sm, n), (s0, n + e) of every
    n.  A zero class is a free slot, with sign None: any (sign, exponent)
    fills it, and the other two classes must match.  Plus zero needs
    rm = u, minus zero needs rp = u, and zero zero needs rp = rm.

    Otherwise the right side vanishes at t = 1, so sp*rp(1) == sm*rm(1).
    For each such sign pair, lowest exponents decide:

    - d = 0: e is the lowest exponent of sp*rp - sm*rm, s0 its leading sign;
    - d > 0: e = 0, and for each s0, d is the lowest exponent of
      sm*rm + s0*u, which must be sp*t^d*rp;
    - d < 0: e = d, and for each s0, -d is the lowest exponent of
      sp*rp - s0*u, which must be sm*t^(-d)*rm.

    Each case fixes the shifts and one comparison checks them, so the at
    most twenty tuples found are all there are.  Highest exponents bound
    |d| and |e| by search_window.
    """
    u = T_MINUS_ONE * r0
    if not (rp or rm or r0):
        return [(None, None, None, 0, 0)]
    if not rp:
        return [(None, s, -s, 0, 0) for s in (1, -1)] if rm == u else []
    if not rm:
        return [(s, None, s, 0, 0) for s in (1, -1)] if rp == u else []
    if not r0:
        return [(s, s, None, 0, 0) for s in (1, -1)] if rp == rm else []
    vp, vm = rp.eval_at_one(), rm.eval_at_one()
    signs = [(sp, sm) for sp in (1, -1) for sm in (1, -1) if sp * vp == sm * vm]
    found = []
    for sp, sm in signs:
        plus, minus = rp * sp, rm * sm
        diff = plus - minus  # d = 0
        if diff:
            terms = diff._terms
            low = min(terms)
            s0 = 1 if terms[max(terms)] > 0 else -1
            if diff == u.shift(low) * s0:
                found.append((sp, sm, s0, 0, low >> 1))
        for s0 in (1, -1):
            # d > 0 with e = 0, then d < 0 with e = d.
            for sign, lhs, rhs in ((1, minus + u * s0, plus), (-1, plus - u * s0, minus)):
                k = lhs.min_halfexp or 0
                if k > 0 and lhs == rhs.shift(k):
                    d = sign * (k >> 1)
                    found.append((sp, sm, s0, d, min(d, 0)))
    return found


def _order(shifts: tuple[tuple[int, int], ...]) -> tuple:
    """Position of a witness in the order of find_representatives."""
    total = sum(abs(n) for _, n in shifts)
    return (total, *((abs(n), n < 0, sign < 0) for sign, n in shifts))


def find_representatives(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> RepresentativeWitness:
    """Find unit multiples of the class representatives that satisfy the
    pass-move identity.

    A witness is ((sp, np), (sm, nm), (s0, n0)): the representatives of
    the plus, minus and zero classes times sp*t^np, sm*t^nm and s0*t^n0.
    Witnesses are ordered by ascending total shift |np| + |nm| + |n0|,
    ties broken by exponent magnitude, then positive exponent, then
    positive sign, separately for the plus, minus and zero slots in that
    order.  The first witness in that order is returned; empty shifts
    (found is False) mean that no unit multiples satisfy the identity.

    Divided by t^nm, a witness is relative: (sp, sm, s0, np - nm, n0 - nm).
    _relative_witnesses derives all of those.  The total shift of
    (sp, sm, s0, d, e) placed at nm, |nm + d| + |nm| + |nm + e|, is least
    only at nm = median(-d, 0, -e), which leaves at most one nonzero shift;
    a free slot takes +t^0.  So the first witness is the least of these
    placements.
    """
    for c in (cp, cm, c0):
        if c.ring is not Ring.Z:
            raise ValueError("representative witnesses need Z-ring classes")
    placements = []
    for sp, sm, s0, d, e in _relative_witnesses(
        cp.representative, cm.representative, c0.representative
    ):
        nm = sorted((-d, 0, -e))[1]
        slots = ((sp, nm + d), (sm, nm), (s0, nm + e))
        placements.append(tuple((1 if s is None else s, n) for s, n in slots))
    return RepresentativeWitness(min(placements, key=_order, default=()))
