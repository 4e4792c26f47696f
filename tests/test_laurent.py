import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexpoly import (
    LaurentPoly, NotDivisible, ONE, Ring, SeifertPair, T, T_HALF, ZERO, canonicalize
)
from alexpoly.documents import parse_document
from alexpoly.laurent import T_HALF_DIFF, T_MINUS_ONE
from alexpoly.seifert import pencil_det
from conftest import (
    dict_product_oracle,
    exact_div_oracle,
    parse_oracle,
    random_int_matrix,
    random_nonzero_poly,
    random_poly,
)

SEED = 20260809
CASES = 1000

T_INV = LaurentPoly.t_power(-1)
T_HALF_INV = LaurentPoly.half_power(-1)


def test_bool_exponents_shifts_and_divisors_count_as_ints():
    assert T**True == T
    assert T.shift(True) == T * T_HALF
    assert (2 * T).exact_div(2) == (2 * T).exact_div(ONE + 1) == T
    assert (2 * T).exact_div(True) == 2 * T
    assert LaurentPoly.constant(True) == ONE
    assert LaurentPoly.half_power(True) == T_HALF
    assert LaurentPoly.t_power(True) == T
    # The term map still holds only ints, never a bool.
    for f in (LaurentPoly.constant(True), LaurentPoly.half_power(True)):
        assert {type(k) for k in f.terms} | {type(c) for c in f.terms.values()} == {int}


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly.constant(1.5),
        lambda: LaurentPoly.half_power(1.0),
        lambda: LaurentPoly.t_power(0.5),
    ],
)
def test_float_helper_arguments_raise(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "op, want",
    [
        (lambda: T + "a", TypeError),
        (lambda: T - "a", TypeError),
        (lambda: "a" - T, TypeError),
        (lambda: T * "a", TypeError),
        (lambda: T // "a", TypeError),
        (lambda: T == "a", False),
        (lambda: T != "a", True),
    ],
    ids=["add", "sub", "rsub", "mul", "floordiv", "eq", "ne"],
)
def test_other_operand_types_are_not_implemented(op, want):
    if want is TypeError:
        with pytest.raises(TypeError):
            op()
    else:
        assert op() is want


class TestAdd:
    def test_pass_triple_difference(self):
        assert T + (-(2 * T - 1)) == 1 - T

    def test_zero_is_identity(self):
        f = 3 * T - T_INV
        assert f + ZERO == f

    def test_additive_inverse(self):
        f = T + T_INV - 1
        assert f + (1 - T - T_INV) == ZERO


class TestMul:
    def test_by_constant(self):
        assert (T - 1) * (-ONE) == 1 - T

    def test_one_is_identity(self):
        f = 2 * T - 1
        assert f * ONE == f

    def test_half_power_product(self):
        f = T_HALF - T_HALF_INV
        g = -T_HALF + T_HALF_INV
        expected = dict_product_oracle(f, g)
        assert expected == -T + 2 - T_INV
        assert f * g == expected


class TestExactDiv:
    def test_quadratic_by_linear(self):
        q = 2 * T - 1
        g = T - 1
        f = dict_product_oracle(q, g)
        assert f == 2 * T * T - 3 * T + 1
        assert f.exact_div(g) == q

    def test_zero_dividend(self):
        assert ZERO.exact_div(T - 1) == ZERO

    def test_self_division(self):
        assert (T - 1).exact_div(T - 1) == ONE
        assert (4 * (T - 1) - 3 * (T - 1)).exact_div(T - 1) == ONE

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            T.exact_div(T - 1)

    def test_fractional_coefficient_raises(self):
        with pytest.raises(NotDivisible):
            (T + 1).exact_div(LaurentPoly.constant(2))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            T.exact_div(ZERO)

    def test_true_division_is_not_defined(self):
        with pytest.raises(TypeError):
            T / T

    def test_floordiv_is_exact_and_takes_an_int(self):
        assert (T * T - 1) // (T - 1) == T + 1
        assert (4 * T - 6) // 2 == 2 * T - 3
        assert ZERO // 5 == ZERO
        with pytest.raises(NotDivisible):
            (T + 1) // 2
        with pytest.raises(ZeroDivisionError):
            T // 0


class TestEvalAtOne:
    def test_multiple_of_t_minus_one(self):
        assert (4 * (T - 1)).eval_at_one() == 0

    def test_trefoil_polynomial(self):
        assert (T + T_INV - 1).eval_at_one() == 1

    def test_zero(self):
        assert ZERO.eval_at_one() == 0


class TestInvertVariable:
    def test_symmetric_polynomial(self):
        f = T + T_INV - 1
        assert f.invert_variable() == f

    def test_half_power(self):
        assert T_HALF.invert_variable() == T_HALF_INV

    def test_zero(self):
        assert ZERO.invert_variable() == ZERO


class TestInversionSymmetry:
    def test_symmetric(self):
        assert (T + T_INV - 1).is_inversion_symmetric()

    def test_monomial(self):
        assert not T.is_inversion_symmetric()

    def test_antisymmetric(self):
        assert not (-T_HALF + T_HALF_INV).is_inversion_symmetric()


class TestGrammar:
    def test_rendering(self):
        assert str(-T_INV + 2 - T) == "-1*t^-1 + 2 + -1*t^1"
        assert str(T_HALF) == "1*t^(1/2)"
        assert str(-T_HALF + T_HALF_INV) == "1*t^(-1/2) + -1*t^(1/2)"
        assert str(ZERO) == "0"
        assert str(LaurentPoly({3: -2})) == "-2*t^(3/2)"

    def test_parse_rendering_examples(self):
        for text in ("-1*t^-1 + 2 + -1*t^1", "1*t^(1/2)", "0", "-7"):
            assert str(LaurentPoly.parse(text)) == text

    def test_parse_rejects_descending_order(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("1*t^1 + 2")

    def test_parse_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("0*t^1")

    def test_parse_rejects_even_half_numerator(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("1*t^(2/2)")

    def test_parse_rejects_junk(self):
        for text in ("t", "1*t", "1 - 2*t^1", "1 +2", "nope"):
            with pytest.raises(ValueError):
                LaurentPoly.parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1*t^0",
            "007",
            "1*t^-0",
            "-0",
            "1*t^(03/2)",
            "1 + 1",
            " 1 ",
            "\u0663",  # ARABIC-INDIC DIGIT THREE
            "1*t^\u0661",  # ARABIC-INDIC DIGIT ONE
            "1*t^01",
        ],
    )
    def test_parse_rejects_non_canonical(self, text):
        with pytest.raises(ValueError):
            LaurentPoly.parse(text)


class TestConstructor:
    # bool is a subclass of int, but True renders as "True", which parse rejects.
    def test_rejects_bool_coefficient(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: True})

    def test_rejects_bool_half_exponent(self):
        with pytest.raises(TypeError):
            LaurentPoly({True: 1})

    def test_none_and_empty_mappings_are_zero(self):
        assert LaurentPoly() == LaurentPoly(None) == LaurentPoly({}) == ZERO

    # Falsy arguments used to pass as the zero polynomial; a list of pairs
    # went through dict().
    @pytest.mark.parametrize("terms", [0, False, "", 5, [(0, 1)], ()], ids=repr)
    def test_rejects_a_non_mapping(self, terms):
        with pytest.raises(TypeError, match=f"not {type(terms).__name__}$"):
            LaurentPoly(terms)

    def test_bad_term_error_quotes_a_bounded_repr(self):
        with pytest.raises(TypeError, match="must be an integer") as info:
            LaurentPoly({0: 1, 2: [0] * 300_000})
        assert str(info.value).startswith("term 2: [0, 0, 0, 0, 0, 0, ...]: ")
        assert len(str(info.value)) < 100


class TestBoolOperands:
    # As an arithmetic operand a bool is its int, as it is for Python ints.
    def test_add(self):
        assert T + True == True + T == T + 1
        assert T + False == False + T == T
        assert ZERO + True == ONE

    def test_sub(self):
        assert T - True == T - 1
        assert True - T == 1 - T
        assert T - False == T and False - T == -T
        assert ONE - True == ZERO

    def test_results_render_as_ints(self):
        assert str(T_HALF + True) == "1 + 1*t^(1/2)"
        assert (True - T).terms == {0: 1, 2: -1}

    def test_mul_agrees(self):
        assert T * True == True * T == T
        assert T * False == ZERO


class TestQueries:
    def test_zero_has_no_degree_span(self):
        assert ZERO.min_halfexp is None
        assert ZERO.max_halfexp is None

    def test_span(self):
        f = T - T_INV
        assert f.min_halfexp == -2
        assert f.max_halfexp == 2

    def test_integral(self):
        assert (T - 1).is_integral()
        assert not (T_HALF - 1).is_integral()
        assert ZERO.is_integral()

    def test_content(self):
        assert (4 * T - 6).content() == 2
        assert ZERO.content() == 0

    def test_hash_agrees_with_equality_to_ints(self):
        assert ONE == 1 and hash(ONE) == hash(1) and 1 in {ONE}
        assert hash(ZERO) == 0 and 0 in {ZERO}
        assert LaurentPoly.constant(-7) in {-7}
        assert ONE == True and True in {ONE} and T != True and ZERO == False
        assert len({T, T - 1 + 1, LaurentPoly({2: 1})}) == 1

    def test_pow(self):
        assert (T - 1) ** 2 == T * T - 2 * T + 1
        assert T_HALF**-3 == LaurentPoly.half_power(-3)
        assert (T - 1) ** 0 == ONE
        with pytest.raises(ValueError):
            (T - 1) ** -1


def test_ring_laws_randomized():
    rng = random.Random(SEED)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_poly(rng)
        h = random_poly(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_exact_div_inverts_mul_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_nonzero_poly(rng)
        assert (f * g).exact_div(g) == f


def test_exact_div_scales_linearly():
    # Dense 50,000-term quotients by t - 1 and, twice, by t^(1/2) -
    # t^(-1/2).  A division that rescans the whole remainder at every step
    # took about two minutes on inputs of this size.
    rng = random.Random(SEED + 7)
    size = 50_000
    g = LaurentPoly({2 * i: rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(size)})
    h = LaurentPoly({i - size: rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(size)})
    f_integral, f_half = T_MINUS_ONE * g, T_HALF_DIFF * T_HALF_DIFF * h
    start = time.perf_counter()
    q_integral = f_integral.exact_div(T_MINUS_ONE)
    q_half = f_half.exact_div(T_HALF_DIFF).exact_div(T_HALF_DIFF)
    elapsed = time.perf_counter() - start
    assert q_integral == g and q_half == h
    assert elapsed < 5.0, f"{elapsed:.2f} s for three {size}-term divisions"


def test_is_integral_matches_all_keys_even_randomized():
    rng = random.Random(SEED + 8)
    cases = [ZERO]
    for _ in range(CASES):
        bits = rng.choice((4, 20, 64, 65, 200))
        keys = {rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 8))}
        if rng.random() < 0.5:
            keys = {2 * k for k in keys}
        cases.append(LaurentPoly(dict.fromkeys(keys, 1)))
    for odd in (-1, -(2**64) - 1, 2**64 + 1, -(2**300) + 1, 7):
        evens = dict.fromkeys(range(-10_000, 10_000, 2), 1)
        cases += [LaurentPoly({**evens, odd: 1}), LaurentPoly(evens), LaurentPoly({odd: -2})]
    seen = Counter()
    for f in cases:
        expected = all(k % 2 == 0 for k in f.terms)
        assert f.is_integral() is expected, sorted(f.terms)[:8]
        seen[expected, any(k < 0 for k in f.terms), any(abs(k) > 2**64 for k in f.terms)] += 1
    assert len(seen) == 8 and min(seen.values()) >= 10, seen


def _quotient_or_error(divide, f: LaurentPoly, g: LaurentPoly):
    try:
        return divide(f, g)
    except NotDivisible as exc:
        return f"NotDivisible: {exc}"


def _random_divisor(rng: random.Random, half: bool) -> LaurentPoly:
    """T_MINUS_ONE, T_HALF_DIFF, or 1-4 terms with coefficients up to 4 in
    size, so the lowest coefficient is often not a unit."""
    if rng.randrange(4) == 0:
        return rng.choice((T_MINUS_ONE, T_HALF_DIFF))
    keys = rng.sample(range(-8, 9), rng.randint(1, 4))
    step = 1 if half else 2
    return LaurentPoly({step * k: rng.choice((-1, 1)) * rng.randint(1, 4) for k in keys})


def test_exact_div_matches_long_division_oracle_randomized():
    rng = random.Random(SEED + 6)
    kinds = ("divisible", "not divisible", "zero", "sparse", "half", "non-unit low")
    seen = dict.fromkeys(kinds, 0)
    for i in range(1200):
        half = rng.random() < 0.4
        g = _random_divisor(rng, half)
        sparse = i % 5 == 0  # a few terms spread over 800 half-exponents
        width = 400 if sparse else 12
        q = random_poly(rng, integral=not half, max_terms=3 if sparse else 8,
                        halfexp_lo=-width, halfexp_hi=width)
        f = q * g
        pick = rng.randrange(6)
        if pick == 0:  # perturb one coefficient, inside or just past the span
            k = rng.choice(sorted(f.terms) + [rng.randint(-width - 20, width + 20)])
            f = f + LaurentPoly({k: rng.choice((-1, 1))})
        elif pick == 1:  # a content the quotient may not absorb
            g = g * rng.randint(2, 3)
        elif pick == 2:  # an unrelated dividend
            f = random_poly(rng, integral=not half, halfexp_lo=-width, halfexp_hi=width)
        got = _quotient_or_error(LaurentPoly.exact_div, f, g)
        assert got == _quotient_or_error(exact_div_oracle, f, g), (f, g)
        seen["divisible" if isinstance(got, LaurentPoly) else "not divisible"] += 1
        seen["zero"] += not f
        seen["sparse"] += sparse and len(f.terms) > 1
        seen["half"] += not f.is_integral() or not g.is_integral()
        seen["non-unit low"] += abs(g.terms[g.min_halfexp]) > 1
    assert min(seen.values()) >= 50, seen


def test_eval_at_one_is_multiplicative_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_poly(rng)
        assert (f * g).eval_at_one() == f.eval_at_one() * g.eval_at_one()


def test_invert_variable_is_involutive_homomorphism():
    rng = random.Random(SEED + 3)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_poly(rng)
        assert f.invert_variable().invert_variable() == f
        assert (f + g).invert_variable() == f.invert_variable() + g.invert_variable()
        assert (f * g).invert_variable() == f.invert_variable() * g.invert_variable()


def test_render_parse_roundtrip_randomized():
    rng = random.Random(SEED + 4)
    for _ in range(CASES):
        f = random_poly(rng)
        assert LaurentPoly.parse(str(f)) == f


def _parsed_or_error(parse, text: str):
    try:
        return parse(text).terms
    except ValueError as exc:
        return type(exc), str(exc)


def _coefficient_edit(edit):
    """A mutation that rewrites the coefficient of one term."""

    def mutate(rng, parts):
        i = rng.randrange(len(parts))
        coeff, star, exp = parts[i].partition("*t^")
        parts[i] = edit(rng, coeff) + star + exp

    return mutate


def _exponent_edit(edit):
    """A mutation that rewrites the exponent text of one term (``t^0`` for
    the constant term)."""

    def mutate(rng, parts):
        i = rng.randrange(len(parts))
        coeff, _, exp = parts[i].partition("*t^")
        parts[i] = f"{coeff}*t^{edit(rng, exp or '0')}"

    return mutate


def _swap(rng, parts):
    i, j = rng.randrange(len(parts)), rng.randrange(len(parts))
    parts[i], parts[j] = parts[j], parts[i]


def _pad(rng, parts):
    if rng.randrange(2):
        parts[0] = " " + parts[0]
    else:
        parts[-1] += " "


def _duplicate(rng, parts):
    i = rng.randrange(len(parts))
    parts.insert(i, parts[i])


def _truncate(rng, parts):
    i = rng.randrange(len(parts))
    parts[i] = parts[i].partition("*t^")[0] + rng.choice(("*t^(", "*t^", "*t", "*"))


def _non_ascii_digit(rng, parts):
    i = rng.randrange(len(parts))
    j = rng.choice([j for j, ch in enumerate(parts[i]) if ch.isdigit()])
    digit = chr(rng.choice((0x660, 0xFF10)) + int(parts[i][j]))  # Arabic-Indic, fullwidth
    parts[i] = parts[i][:j] + digit + parts[i][j + 1:]


_PARSE_MUTATIONS = (
    _coefficient_edit(lambda rng, c: "+" + c.lstrip("-")),
    _coefficient_edit(lambda rng, c: c + "_0"),
    _coefficient_edit(lambda rng, c: ("-0" if c[0] == "-" else "0") + c.lstrip("-")),
    _coefficient_edit(lambda rng, c: "-0"),
    _coefficient_edit(lambda rng, c: rng.choice(" \t") + c),
    _coefficient_edit(lambda rng, c: rng.choice("123456789") + "0" * 4999),
    _exponent_edit(lambda rng, e: "0"),
    _exponent_edit(lambda rng, e: f"({2 * rng.randint(-5, 5)}/2)"),
    _exponent_edit(lambda rng, e: f"({rng.randint(-9, 9)}/3)"),
    _exponent_edit(lambda rng, e: "+" + e),
    _exponent_edit(lambda rng, e: "1" + "0" * 4999),
    _pad,
    _swap,
    _duplicate,
    _truncate,
    _non_ascii_digit,
)


def _parse_outcome_kind(outcome) -> str:
    if isinstance(outcome, dict):
        return "accepted"
    message = outcome[1]
    if message.startswith("cannot parse term "):
        return "cannot parse term"
    if message.startswith("Exceeds the limit "):
        return "digit limit"
    assert message.endswith(" is not in canonical form"), message
    return "not in canonical form"


def test_parse_matches_oracle_randomized():
    # Canonical renderings, and renderings with one to three edits: each
    # parses to the oracle's value or fails with its exact error.
    rng = random.Random(SEED + 8)
    big = "1" * 5000
    texts = [
        "", " ", "0", "-0", " 0", "0 ", "1 + ", " + 1", "1 +  + 2",
        f"+{big}", f"{big}*t^{big}1", f"-1*t^({big}/2) + {big}",
        f"{big} + x", f"x + {big}", f"{big}*t^x", f"1*t^(1/2) + 2*t^{big}",
    ]
    for _ in range(3000):
        sparse = rng.randrange(3) == 0
        span = 4000 if sparse else 16
        text = str(random_poly(
            rng, integral=rng.randrange(2) == 0, max_terms=12,
            halfexp_lo=-span, halfexp_hi=span,
        ))
        if rng.randrange(4):
            parts = text.split(" + ")
            for _ in range(rng.randint(1, 3)):
                rng.choice(_PARSE_MUTATIONS)(rng, parts)
            text = " + ".join(parts)
        texts.append(text)
    outcomes = Counter()
    for text in texts:
        got = _parsed_or_error(LaurentPoly.parse, text)
        assert got == _parsed_or_error(parse_oracle, text), text[:200]
        outcomes[_parse_outcome_kind(got)] += 1
    assert outcomes["accepted"] > 600
    assert outcomes["cannot parse term"] > 1000
    assert outcomes["not in canonical form"] > 300
    if hasattr(sys, "get_int_max_str_digits"):
        assert outcomes["digit limit"] > 200


def _dict_sum_oracle(f: LaurentPoly, g: LaurentPoly, sign: int = 1) -> LaurentPoly:
    """f + sign*g added term by term on raw dicts."""
    out = f.terms
    for k, c in g.terms.items():
        out[k] = out.get(k, 0) + sign * c
    return LaurentPoly(out)


def _assert_stored_without_zeros(h: LaurentPoly, oracle: LaurentPoly) -> None:
    assert 0 not in h._terms.values(), h._terms
    assert h == oracle and hash(h) == hash(oracle)


# Sparse: a few terms far apart; dense: many terms on a short span.
_SHAPES = [
    dict(max_terms=6, halfexp_lo=-200, halfexp_hi=200),
    dict(max_terms=40, halfexp_lo=-20, halfexp_hi=20),
]


def test_cancelled_terms_are_never_stored_randomized():
    """Sums and products whose terms cancel, in part or in whole, keep no 0.

    g repeats about half of f's terms negated, so f + g cancels them, and
    (g + f)*(g - f) cancels its cross terms inside the product.
    """
    _assert_stored_without_zeros((1 + T) * (1 - T), LaurentPoly({0: 1, 4: -1}))
    _assert_stored_without_zeros((1 + T) * (1 - T), 1 - T**2)
    rng = random.Random(SEED + 11)
    for case in range(CASES):
        shape = _SHAPES[case % 2]
        integral = case % 4 < 2
        f = random_poly(rng, integral=integral, **shape)
        planted = {k: -c for k, c in f.terms.items() if rng.random() < 0.5}
        g = LaurentPoly({**random_poly(rng, integral=integral, **shape).terms, **planted})
        _assert_stored_without_zeros(f - f, ZERO)
        _assert_stored_without_zeros(f + (-f), ZERO)
        _assert_stored_without_zeros(f + g, _dict_sum_oracle(f, g))
        _assert_stored_without_zeros((f + g) - g, f)
        _assert_stored_without_zeros(f - g, _dict_sum_oracle(f, g, -1))
        for divisor, high, low in ((T_MINUS_ONE, 2, 0), (T_HALF_DIFF, 1, -1)):
            h = divisor * f
            _assert_stored_without_zeros(h, dict_product_oracle(divisor, f))
            _assert_stored_without_zeros(h, f.shift(high) - f.shift(low))
        _assert_stored_without_zeros((g + f) * (g - f), dict_product_oracle(g + f, g - f))
        _assert_stored_without_zeros((g + f) * (g - f), g * g - f * f)


def _without_zeros(h: LaurentPoly) -> LaurentPoly:
    assert type(h) is LaurentPoly and 0 not in h._terms.values(), h._terms
    return h


def _singular_pair(rng: random.Random, n: int) -> SeifertPair:
    """A pair whose last column is the same combination of the others in S and N."""
    weights = [rng.randint(-2, 2) for _ in range(n - 1)]
    s, nm = ([list(row) for row in random_int_matrix(rng, n, n)] for _ in range(2))
    for m in (s, nm):
        for row in m:
            row[-1] = sum(w * v for w, v in zip(weights, row))
    return SeifertPair(s, nm, 1, 2)


_UNITS = [ONE, -ONE, T, -T_HALF, LaurentPoly.half_power(-3), -LaurentPoly.t_power(-2)]


def test_no_operation_stores_a_zero_randomized():
    """No public operation returns a polynomial that holds a zero term.

    Results built from a polynomial's own nonzero ints are taken over
    unchecked, so this guards every such path; outside maps with zeros
    go through the constructor, its helpers and the document loader.
    """
    assert _without_zeros(LaurentPoly.parse("0")) == ZERO
    for text in ("1 + 0*t^1", "0*t^-1 + 1", "0 + 1*t^(1/2)", "0*t^(1/2)"):
        with pytest.raises(ValueError, match="not in canonical form"):
            LaurentPoly.parse(text)
    rng = random.Random(SEED + 13)
    for case in range(CASES):
        integral = case % 2 == 0
        f, g = (random_poly(rng, integral=integral) for _ in range(2))
        n = rng.randint(-9, 9)
        for other in (g, -f, f, n, 0, True, False):
            for h in (f + other, other + f, f - other, other - f, f * other, other * f):
                _without_zeros(h)
        shift = rng.randint(-5, 5)
        for h in (-f, f.shift(shift), f.invert_variable(), f ** rng.randint(0, 3)):
            _without_zeros(h)
        _without_zeros(rng.choice(_UNITS) ** rng.randint(-3, -1))
        for divisor in (g, rng.choice([-3, -1, 1, 2, True])):
            if divisor:
                assert _without_zeros((f * divisor).exact_div(divisor)) == f
                assert _without_zeros((f * divisor) // divisor) == f
        if integral:
            for ring in Ring:
                _without_zeros(canonicalize(f * n, ring))
                _without_zeros(canonicalize(f.shift(2 * shift), ring))
        assert _without_zeros(LaurentPoly.parse(str(f))) == f
        raw = {rng.randint(-6, 6): rng.randint(-2, 2) for _ in range(rng.randrange(8))}
        nonzero = {k: c for k, c in raw.items() if c}
        assert _without_zeros(LaurentPoly(raw))._terms == nonzero
        doc = {"kind": "laurent", "terms": {str(k): c for k, c in raw.items()}}
        assert _without_zeros(parse_document(doc))._terms == nonzero
        c, k = rng.randint(-1, 1), rng.randint(-4, 4)
        for h in (LaurentPoly.constant(c), LaurentPoly.t_power(k), LaurentPoly.half_power(k)):
            _without_zeros(h)
    for n in range(1, 7):
        for _ in range(10):
            assert _without_zeros(pencil_det(_singular_pair(rng, n))) == ZERO
            s, nm = random_int_matrix(rng, n, n), random_int_matrix(rng, n, n)
            _without_zeros(pencil_det(SeifertPair(s, nm, 1, 2)))


def test_mul_matches_dict_oracle_randomized():
    rng = random.Random(SEED + 5)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_poly(rng)
        assert f * g == dict_product_oracle(f, g)


# Near-misses of the grammar: hand-built terms with signs, leading zeros
# and non-ASCII digits, and canonical renderings with one small edit.
_DIGITS = st.text(alphabet="0123456789\u0663", min_size=1, max_size=3)
_SIGNED = st.builds(lambda sign, d: sign + d, st.sampled_from(["", "-", "+"]), _DIGITS)
_TERM_TEXT = st.one_of(
    _SIGNED,
    st.builds("{}*t^{}".format, _SIGNED, _SIGNED),
    st.builds("{}*t^({}/2)".format, _SIGNED, _SIGNED),
    st.text(alphabet="0123456789-+*t^()/ ", max_size=8),
)
_BUILT = st.builds(
    lambda pad, terms, sep: pad + sep.join(terms) + pad,
    st.sampled_from(["", "", " "]),
    st.lists(_TERM_TEXT, min_size=1, max_size=4),
    st.sampled_from([" + ", " + ", " + ", "+", " +"]),
)
_RENDERING = st.builds(
    lambda terms: str(LaurentPoly(terms)),
    st.dictionaries(st.integers(-12, 12), st.integers(-12, 12), max_size=4),
)
_EDITED = st.builds(
    lambda text, at, cut, piece: text[:at] + piece + text[at + cut:],
    _RENDERING,
    st.integers(0, 40),
    st.integers(0, 2),
    st.sampled_from(["", "0", "1", "-", "+", " ", "^0", "*t^1", " + 1", "\u0663"]),
)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.one_of(_BUILT, _EDITED))
def test_parse_accepts_only_canonical_renderings(text):
    assert _parsed_or_error(LaurentPoly.parse, text) == _parsed_or_error(parse_oracle, text)
