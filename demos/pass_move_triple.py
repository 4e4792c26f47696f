"""Walk through the pass-move identity on a knot triple.

Three surfaces that differ only inside a small ball have Alexander
polynomials tied together by dp - dm = (t - 1) * d0.  The classes only
pin the polynomials down up to a unit +-t^n, so we also ask for a
witness: unit multiples of the canonical representatives that satisfy
the identity on the nose.
"""
from alexpoly import (
    BalancedClass,
    ONE,
    Ring,
    T,
    check_pass_move,
    find_representatives,
)

dp = T
dm = 2 * T - 1
d0 = -ONE

print(f"plus:  {dp}")
print(f"minus: {dm}")
print(f"zero:  {d0}")

verdict = check_pass_move(dp, dm, d0)
print(f"\n(plus - minus)          = {verdict.lhs}")
print(f"(t - 1) * zero          = {verdict.rhs}")
print(f"identity holds exactly: {verdict.holds}")

# Canonical class representatives forget the unit; the witness recovers one.
classes = [BalancedClass.from_poly(f, Ring.Z) for f in (dp, dm, ONE)]
print("\ncanonical representatives:", ", ".join(str(c.representative) for c in classes))

witness = find_representatives(*classes)
print(f"witness found: {witness.found}")
for label, (sign, n) in zip(("plus", "minus", "zero"), witness.shifts):
    print(f"  {label}: multiply by {'+' if sign > 0 else '-'}t^{n}")
