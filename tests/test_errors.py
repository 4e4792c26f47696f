"""Every error message quotes its values through errors.short_repr.

A polynomial is quoted whole up to 2,000 characters of text, a longer one
by its first and last 1,000; an int past the int-to-text limit by its sign
and bit length; any other value is cut to 24 characters.  So a refused
value of any size gives a message of bounded length.
"""
import pytest

from alexpoly import (
    ArfData,
    BalancedClass,
    LaurentPoly,
    NonIntegerExponent,
    NormalizedInput,
    NotDivisible,
    NotUnimodular,
    Ring,
    SeifertPair,
    ShapeMismatch,
    UnimodularPair,
    canonicalize,
    check_duality,
    first_order_at_one,
    pseudo_alinking_from_poly,
    second_order_at_one,
)
from alexpoly.documents import laurent_from_text
from alexpoly.errors import InvalidDocument, short_repr
from alexpoly.invariants import T_HALF_DIFF

# 2,001 terms on the half grid, and 1,001 integral ones whose coefficient
# sum is not 0; RAMP times T_HALF_DIFF does not telescope, as ONES would.
HALF = LaurentPoly({k: 1 for k in range(-1000, 1001)})
ONES = LaurentPoly({k: 1 for k in range(0, 2001, 2)})
RAMP = LaurentPoly({k: k + 1 for k in range(0, 2001, 2)})
BIG = 10**4000  # 4,001 digits, inside the int-to-text limit
BIG_CUT = "1000000000...00000000000"
HUGE = 10**5000  # 5,001 digits, past the default limit of 4,300
HUGE_CUT = "<16610-bit int>"
LONG = "x" * 300_000
LONG_CUT = "'xxxxxxxxx...xxxxxxxxxx'"
PAIR = SeifertPair([[0]], [[0]], 1, 1)


def cut(f: LaurentPoly) -> str:
    text = str(f)
    assert len(text) > 2000
    return f"{text[:1000]} ... {text[-1000:]}"


def padded(length: int) -> LaurentPoly:
    """A polynomial whose text has exactly `length` characters (length >= 1,000)."""
    count, digits = divmod(length, 11)  # each "1*t^dddd + " takes 11
    f = LaurentPoly({0: int("1" * digits), **{2 * k: 1 for k in range(1000, 1000 + count)}})
    assert len(str(f)) == length
    return f


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: canonicalize(HALF, Ring.Z), NonIntegerExponent,
         f"{cut(HALF)} has half powers of t"),
        (lambda: BalancedClass(ONES.shift(2), Ring.Z), ValueError,
         f"{cut(ONES.shift(2))} is not the canonical Z representative"),
        (lambda: pseudo_alinking_from_poly(ONES), NotDivisible,
         f"{cut(ONES)} is not divisible by -1 + 1*t^1"),
        (lambda: first_order_at_one(ONES), NotDivisible,
         f"{cut(ONES)} is not divisible by {T_HALF_DIFF}"),
        (lambda: second_order_at_one(RAMP * T_HALF_DIFF), NotDivisible,
         f"{cut(RAMP * T_HALF_DIFF)} is not divisible by ({T_HALF_DIFF})^2"),
        (lambda: ONES.exact_div(2 * HALF), NotDivisible,
         f"{cut(ONES)} is not divisible by {cut(2 * HALF)}"),
        (lambda: ONES.shift(LONG), TypeError, f"a shift must be an int, got {LONG_CUT}"),
        (lambda: SeifertPair([[0]], [[0]], BIG, 2), ValueError,
         f"need n >= 1 and 0 <= p <= n+1, got p={BIG_CUT}, n=2"),
        (lambda: SeifertPair([[0]], [[0]], 1, -BIG), ValueError,
         "need n >= 1 and 0 <= p <= n+1, got p=1, n=-100000000...00000000000"),
        (lambda: NormalizedInput(SeifertPair([[0]], [[0]], 1, BIG), True), ValueError,
         f"need n = 4k+1 and p = 2k+1, got p=1, n={BIG_CUT}"),
        (lambda: NormalizedInput(PAIR, LONG), TypeError,
         f"middle_condition must be a bool, got {LONG_CUT}"),
        (lambda: laurent_from_text(f"1*t^{BIG}"), InvalidDocument,
         "half-exponent 2000000000...00000000000 is past the cap of 100000"),
        (lambda: ArfData([LONG], [1]), TypeError, f"pairings must be ints, got {LONG_CUT}"),
        (lambda: UnimodularPair([[BIG]], [[1]]), NotUnimodular, f"P has determinant {BIG_CUT}"),
        (lambda: check_duality(*[SeifertPair([[0]], [[0]], 1, BIG)] * 2), ShapeMismatch,
         f"degrees (p=1, n={BIG_CUT}) and (p=1, n={BIG_CUT}) are not complementary"),
        (lambda: SeifertPair([[0]], [[0]], HUGE, 1), ValueError,
         f"need n >= 1 and 0 <= p <= n+1, got p={HUGE_CUT}, n=1"),
        (lambda: UnimodularPair([[HUGE]], [[1]]), NotUnimodular,
         f"P has determinant {HUGE_CUT}"),
        (lambda: check_duality(*[SeifertPair([[0]], [[0]], 1, HUGE)] * 2), ShapeMismatch,
         f"degrees (p=1, n={HUGE_CUT}) and (p=1, n={HUGE_CUT}) are not complementary"),
    ],
    ids=[
        "require-integral", "balanced-class", "alinking", "first-order", "second-order",
        "exact-div", "shift", "pair-p", "pair-n", "normalized-n",
        "normalized-flag", "halfexp-cap", "arf-entry", "unimodular", "duality",
        "pair-p-huge", "unimodular-huge", "duality-huge",
    ],
)
def test_oversized_value_is_quoted_cut_short(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert len(message) < 4200 and "\n" not in message


@pytest.mark.parametrize("length", [1588, 2000])
def test_polynomial_up_to_2000_characters_is_quoted_whole(length):
    f = padded(length)
    assert short_repr(f) == str(f)
    with pytest.raises(NotDivisible) as info:
        pseudo_alinking_from_poly(f)
    assert str(info.value) == f"{f} is not divisible by -1 + 1*t^1"


def test_polynomial_past_2000_characters_keeps_both_ends():
    f = padded(2001)
    text = str(f)
    assert short_repr(f) == f"{text[:1000]} ... {text[-1000:]}"
    assert len(short_repr(f)) == 2005

