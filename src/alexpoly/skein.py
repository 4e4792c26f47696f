"""Skein-style identity checks for move triples, and representative search.

The pass-move identity compares dp - dm with (t - 1)*d0 over integer
powers; the twist-move identity compares dp - dm with
(t^(1/2) - t^(-1/2))*d0 on the half grid.  Both are exact: a verdict
carries the two sides and their residual.

Balanced classes only determine polynomials up to units, so a triple of
classes satisfies the pass-move identity when SOME unit multiples of the
canonical representatives do.  find_representatives searches the finite
window of unit multipliers +-t^n with |n| <= W = 1 + (sum of degree
spans) and reports the first witness, smallest total shift first, in the
same order as trying every candidate triple would.  It enumerates only
the plus and minus multipliers: evaluating the identity at t = 1 kills
the right-hand side, which leaves the sign pairs with sp*dp(1) ==
sm*dm(1), and the zero multiplier is derived from one exact division by
t - 1 per relative shift.  W is capped at MAX_SEARCH_WINDOW; a larger
window raises PreconditionViolated.
"""
from __future__ import annotations

from dataclasses import dataclass

from .balance import BalancedClass, Ring, _require_integral, canonicalize
from .errors import PreconditionViolated
from .laurent import LaurentPoly, T_HALF_DIFF, T_MINUS_ONE

# Largest search window find_representatives accepts.  The search does
# O(W) divisions and O(W^2) comparisons, so the cap bounds its work on
# any input; three representatives of degree span up to 42 fit under it.
MAX_SEARCH_WINDOW = 128


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


def _rank(n: int, sign: int) -> tuple[int, bool, bool]:
    """Position of the single (sign, t^n) in the search order."""
    return (abs(n), n < 0, sign < 0)


def find_representatives(
    cp: BalancedClass, cm: BalancedClass, c0: BalancedClass
) -> RepresentativeWitness:
    """Search unit multiples of the class representatives for a pass-move
    identity.

    Candidates (sign, exponent) run over sign in {+1, -1} and exponents
    in [-W, W] with W = search_window(...); they are ordered by
    ascending total shift, ties broken by exponent magnitude, then
    positive exponent, then positive sign, separately for the plus,
    minus and zero slots in that order.  The first candidate in that
    order that makes check_pass_move hold is returned; absence of a
    witness inside the window is reported as found=False (it is not a
    proof of nonexistence).

    The zero multiplier is derived rather than enumerated.  At t = 1 the
    right-hand side vanishes, so a sign pair (sp, sm) is viable only if
    sp*rp(1) == sm*rm(1).  For each viable pair and each relative shift
    d = np - nm, D = sp*t^d*rp - sm*rm is the difference with nm = 0.  A
    zero class needs D = 0 and takes the first single (+1, 0); otherwise
    q = D / (t - 1) must be a unit multiple s0*t^e of r0, which gives
    the zero multiplier (s0, nm + e) for every nm.  That is at most
    4*(4W + 1) exact divisions, and the smallest order key among the
    survivors is the first witness of the full enumeration.

    Raises PreconditionViolated when W exceeds MAX_SEARCH_WINDOW.
    """
    for c in (cp, cm, c0):
        if c.ring is not Ring.Z:
            raise ValueError("representative search needs Z-ring classes")
    w = search_window(cp, cm, c0)
    if w > MAX_SEARCH_WINDOW:
        raise PreconditionViolated(
            f"search window {w} exceeds the cap of {MAX_SEARCH_WINDOW}"
        )
    rp, rm, r0 = cp.representative, cm.representative, c0.representative
    vp, vm = rp.eval_at_one(), rm.eval_at_one()
    signs = [(sp, sm) for sp in (1, -1) for sm in (1, -1) if sp * vp == sm * vm]
    best = None
    # total >= |np| + |nm| >= |d|, so once |d| exceeds the best total no
    # later shift can win.
    for d in sorted(range(-2 * w, 2 * w + 1), key=abs):
        if best is not None and abs(d) > best[0][0]:
            break
        shifted = rp.shift(2 * d)
        for sp, sm in signs:
            diff = shifted * sp - rm * sm
            if r0:
                # diff vanishes at t = 1, so t - 1 divides it; the quotient
                # spans one less than diff.
                if diff.span_halfexp() != r0.span_halfexp() + 2:
                    continue
                q = diff.exact_div(T_MINUS_ONE)
                if canonicalize(q, Ring.Z) != r0:
                    continue
                e = q.min_halfexp // 2
                s0 = 1 if q.terms[q.max_halfexp] > 0 else -1
            elif diff:
                continue
            for nm in range(max(-w, -w - d), min(w, w - d) + 1):
                np_ = nm + d
                n0, sign0 = (nm + e, s0) if r0 else (0, 1)
                if abs(n0) > w:
                    continue
                key = (
                    abs(np_) + abs(nm) + abs(n0),
                    _rank(np_, sp),
                    _rank(nm, sm),
                    _rank(n0, sign0),
                )
                if best is None or key < best[0]:
                    best = (key, ((sp, np_), (sm, nm), (sign0, n0)))
    if best is None:
        return RepresentativeWitness(found=False)
    return RepresentativeWitness(found=True, shifts=best[1])
