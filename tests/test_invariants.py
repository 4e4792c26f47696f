import collections
import dataclasses
import math
import random
import time

import pytest

from alexpoly import (
    ArfData,
    BalancedClass,
    InvariantReport,
    LaurentPoly,
    NonIntegerExponent,
    NormalizedInput,
    NotDivisible,
    NotSquare,
    ONE,
    PreconditionViolated,
    Ring,
    SeifertPair,
    ShapeMismatch,
    T,
    T_HALF,
    UnimodularPair,
    ZERO,
    alexander_matrix,
    arf,
    basis_change,
    det,
    first_order_at_one,
    intersection_form,
    normalized_alexander,
    normalized_matrix,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
    pseudo_twinkling_from_pair,
    q_alexander,
    report,
    second_order_at_one,
    z_alexander,
)
from alexpoly.seifert import _corank_one_kernel, mat_mul, pencil_det, transpose
from conftest import (
    alinking_block_pair,
    order_at_one_oracle,
    perm_det_int_oracle,
    pseudo_alinking_oracle,
    random_int_matrix,
    random_poly,
    random_unimodular,
    twinkling_block_pair,
)

SEED = 20260812

T_INV = LaurentPoly.t_power(-1)
T_HALF_INV = LaurentPoly.half_power(-1)
HALF_DIFF = T_HALF - T_HALF_INV

V_PLUS = SeifertPair([[0, -1], [0, -1]], [[0, 0], [-1, -1]], 1, 1)
V_MINUS = SeifertPair([[-1, -1], [0, -1]], [[-1, 0], [-1, -1]], 1, 1)
V_ZERO = SeifertPair([[-1]], [[-1]], 1, 1)


class TestAlexanderClasses:
    def test_z_class_keeps_content(self):
        c = z_alexander(SeifertPair([[4]], [[4]], 1, 2))
        assert c == BalancedClass.from_poly(4 * (T - 1), Ring.Z)

    def test_z_class_of_monomial(self):
        c = z_alexander(SeifertPair([[1]], [[0]], 1, 2))
        assert c == BalancedClass.from_poly(T, Ring.Z)
        assert c.representative == ONE

    def test_empty_pair(self):
        c = z_alexander(SeifertPair([], [], 1, 2))
        assert c == BalancedClass.from_poly(ONE, Ring.Z)

    def test_q_class_drops_content(self):
        for s in (4, 3):
            c = q_alexander(SeifertPair([[s]], [[s]], 1, 2))
            assert c == BalancedClass.from_poly(T - 1, Ring.Q)

    def test_q_class_of_zero(self):
        c = q_alexander(SeifertPair([[0]], [[0]], 1, 2))
        assert c.representative == ZERO

    def test_not_square(self):
        pair = SeifertPair([[1, 0]], [[0, 0]], 1, 2)
        with pytest.raises(NotSquare):
            z_alexander(pair)

    def test_report_scalars(self):
        out = report(SeifertPair([[4]], [[4]], 1, 2))
        assert out.polynomial == 4 * (T - 1)
        assert out.scalars["determinant_at_one"] == 0
        assert out.scalars["pseudo_alinking"] == 4
        assert dict(out.scalars) == {"determinant_at_one": 0, "pseudo_alinking": 4}

    def test_report_is_immutable(self):
        out = report(SeifertPair([[4]], [[4]], 1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.polynomial = ONE
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.scalars = {}
        with pytest.raises(TypeError):
            out.scalars["pseudo_alinking"] = 0
        with pytest.raises(TypeError):
            del out.scalars["determinant_at_one"]
        assert out.scalars["pseudo_alinking"] == 4

    def test_report_derives_scalars_from_the_polynomial(self):
        out = InvariantReport(ONE, z_alexander(V_ZERO), q_alexander(V_ZERO))
        assert out.scalars == {"determinant_at_one": 1}
        with pytest.raises(TypeError):
            out.scalars["determinant_at_one"] = 5
        assert out.scalars == {"determinant_at_one": 1}


class TestNormalizedAlexander:
    def test_twist_plus(self):
        data = NormalizedInput(V_PLUS, middle_condition=True)
        assert normalized_alexander(data) == ONE

    def test_twist_minus(self):
        data = NormalizedInput(V_MINUS, middle_condition=True)
        assert normalized_alexander(data) == T + T_INV - 1

    def test_twist_zero(self):
        data = NormalizedInput(V_ZERO, middle_condition=True)
        assert normalized_alexander(data) == -T_HALF + T_HALF_INV

    def test_failed_middle_condition(self):
        data = NormalizedInput(V_MINUS, middle_condition=False)
        assert normalized_alexander(data) == ZERO

    def test_dimension_metadata_checked(self):
        with pytest.raises(ValueError):
            NormalizedInput(SeifertPair([[1]], [[1]], 1, 2), middle_condition=True)

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (1, 0)])
    @pytest.mark.parametrize("middle_condition", [True, False])
    def test_non_square_pair_rejected(self, rows, cols, middle_condition):
        zero = [[0] * cols for _ in range(rows)]
        message = f"^{rows}x{cols} matrix has no determinant$"
        with pytest.raises(NotSquare, match=message):
            NormalizedInput(SeifertPair(zero, zero, 3, 5), middle_condition)


class TestPseudoAlinkingFromPoly:
    def test_content_four(self):
        assert pseudo_alinking_from_poly(4 * (T - 1)) == 4

    def test_zero(self):
        assert pseudo_alinking_from_poly(ZERO) == 0

    def test_unit_content(self):
        assert pseudo_alinking_from_poly(T - 1) == 1

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            pseudo_alinking_from_poly(T + 1)

    def test_rejects_half_powers(self):
        with pytest.raises(NonIntegerExponent):
            pseudo_alinking_from_poly(HALF_DIFF)


class TestPseudoAlinkingFromPair:
    def test_one_by_one(self):
        assert pseudo_alinking_from_pair(SeifertPair([[4]], [[4]], 1, 2)) == 4
        assert pseudo_alinking_from_pair(SeifertPair([[0]], [[0]], 1, 2)) == 0

    def test_two_by_two(self):
        pair = SeifertPair([[3, 0], [1, 1]], [[3, 0], [1, 0]], 1, 2)
        assert intersection_form(pair) == ((0, 0), (0, 1))
        assert pseudo_alinking_from_pair(pair) == 3
        assert pseudo_alinking_from_poly(det(alexander_matrix(pair))) == 3

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            pseudo_alinking_from_pair(SeifertPair([[1]], [[0]], 1, 2))


class TestPseudoTwinkling:
    def test_one_by_one(self):
        assert pseudo_twinkling_from_pair(V_ZERO) == -1
        assert pseudo_twinkling_from_pair(SeifertPair([[0]], [[0]], 1, 1)) == 0

    def test_three_by_three(self):
        s = [[2, 0, 0], [0, 0, 1], [0, 0, 0]]
        pair = SeifertPair(s, transpose(s), 1, 1)
        assert intersection_form(pair) == ((0, 0, 0), (0, 0, 1), (0, -1, 0))
        assert pseudo_twinkling_from_pair(pair) == 2
        assert first_order_at_one(det(normalized_matrix(pair))) == 2

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            pseudo_twinkling_from_pair(SeifertPair([[1]], [[0]], 1, 1))
        with pytest.raises(PreconditionViolated):
            pseudo_twinkling_from_pair(SeifertPair([[1, 0], [0, 1]], [[1, 0], [0, 1]], 1, 1))


class TestOrderValues:
    def test_first_order_unit(self):
        assert first_order_at_one(HALF_DIFF) == 1

    def test_first_order_twist_zero(self):
        assert first_order_at_one(-T_HALF + T_HALF_INV) == -1

    def test_first_order_zero(self):
        assert first_order_at_one(ZERO) == 0

    def test_first_order_not_divisible(self):
        with pytest.raises(NotDivisible):
            first_order_at_one(ONE)

    def test_second_order_twist_difference(self):
        assert second_order_at_one(2 - T - T_INV) == -1

    def test_second_order_square(self):
        assert second_order_at_one(HALF_DIFF * HALF_DIFF) == 1

    def test_second_order_zero(self):
        assert second_order_at_one(ZERO) == 0

    def test_second_order_not_divisible_once(self):
        with pytest.raises(NotDivisible) as exc:
            second_order_at_one(ONE)
        assert str(exc.value) == "1 is not divisible by -1*t^(-1/2) + 1*t^(1/2)"

    def test_second_order_divisible_once_not_twice(self):
        # Named after the input, not after the quotient by the first factor.
        with pytest.raises(NotDivisible) as exc:
            second_order_at_one(HALF_DIFF)
        assert str(exc.value) == (
            "-1*t^(-1/2) + 1*t^(1/2) is not divisible by (-1*t^(-1/2) + 1*t^(1/2))^2"
        )


class TestArf:
    def test_single(self):
        assert arf(ArfData((1,), (1,))) == 1

    def test_zero_row(self):
        assert arf(ArfData((0, 0), (5, 7))) == 0

    def test_mixed(self):
        assert arf(ArfData((1, 1), (1, 0))) == 1

    def test_shape(self):
        with pytest.raises(ShapeMismatch):
            ArfData((1,), (1, 0))


def test_alinking_well_defined_randomized():
    rng = random.Random(SEED)
    for _ in range(1000):
        pair = alinking_block_pair(rng, rng.randint(1, 4))
        via_pair = pseudo_alinking_from_pair(pair)
        via_poly = pseudo_alinking_from_poly(det(alexander_matrix(pair)))
        assert via_pair == via_poly


def test_alinking_zero_equivalence_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        pair = alinking_block_pair(rng, rng.randint(1, 4))
        zero_pair = pseudo_alinking_from_pair(pair) == 0
        zero_poly = pseudo_alinking_from_poly(det(alexander_matrix(pair))) == 0
        assert zero_pair == zero_poly


def test_alinking_is_class_invariant_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        f = (T - 1) * random_poly(rng, integral=True)
        shifted = rng.choice((1, -1)) * f.shift(2 * rng.randint(-6, 6))
        assert pseudo_alinking_from_poly(f) == pseudo_alinking_from_poly(shifted)


def test_twinkling_well_defined_randomized():
    rng = random.Random(SEED + 3)
    for _ in range(1000):
        pair = twinkling_block_pair(rng, rng.randint(0, 2))
        via_pair = pseudo_twinkling_from_pair(pair)
        via_poly = first_order_at_one(det(normalized_matrix(pair)))
        assert via_pair == via_poly
        assert via_pair == pair.S[0][0]


def test_normalized_symmetry_and_intersection_value_randomized():
    rng = random.Random(SEED + 4)
    from alexpoly.seifert import int_det
    from conftest import random_int_matrix

    for _ in range(1000):
        n = rng.choice((2, 4))
        s = random_int_matrix(rng, n, n)
        pair = SeifertPair(s, transpose(s), 1, 1)
        value = normalized_alexander(NormalizedInput(pair, middle_condition=True))
        assert value.is_inversion_symmetric()
        assert value.eval_at_one() == int_det(intersection_form(pair))


def test_arf_invariances_randomized():
    rng = random.Random(SEED + 5)
    for _ in range(1000):
        nu = rng.randint(1, 6)
        a = [rng.randint(-5, 5) for _ in range(nu)]
        b = [rng.randint(-5, 5) for _ in range(nu)]
        base = arf(ArfData(a, b))
        order = list(range(nu))
        rng.shuffle(order)
        assert arf(ArfData([a[i] for i in order], [b[i] for i in order])) == base
        bumped_a = list(a)
        bumped_a[rng.randrange(nu)] += 2
        assert arf(ArfData(bumped_a, b)) == base


def test_orders_at_one_scale_linearly():
    # Both values are read off sums over the coefficients, one pass each.
    # A division that rescans the whole remainder at every step took about
    # two minutes on these inputs; the coefficient sums take about 0.02 s.
    rng = random.Random(SEED + 6)
    size = 50_000
    g = LaurentPoly({2 * i: rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(size)})
    h = LaurentPoly({i - size: rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(size)})
    f_alink, f_second = (T - 1) * g, HALF_DIFF * HALF_DIFF * h
    start = time.perf_counter()
    alink = pseudo_alinking_from_poly(f_alink)
    second = second_order_at_one(f_second)
    elapsed = time.perf_counter() - start
    assert alink == abs(g.eval_at_one())
    assert second == h.eval_at_one()
    assert elapsed < 5.0, f"{elapsed:.2f} s for the coefficient sums of two {size}-term inputs"


def test_alinking_pair_route_in_any_basis_randomized():
    # (P, Q) moves the distinguished cycles off e_1; the value stays |S_11|.
    rng = random.Random(SEED + 7)
    moved_off_block = 0
    for _ in range(400):
        pair = alinking_block_pair(rng, rng.randint(1, 5))
        size = len(pair.S)
        p, q = random_unimodular(rng, size, 12), random_unimodular(rng, size, 12)
        moved = basis_change(pair, UnimodularPair(p, q))
        value = pseudo_alinking_from_pair(moved)
        assert value == pseudo_alinking_from_pair(pair) == abs(pair.S[0][0])
        assert value == pseudo_alinking_from_poly(pencil_det(moved))
        moved_off_block += intersection_form(moved) != intersection_form(pair)
    assert moved_off_block > 250


def test_twinkling_pair_route_in_any_basis_randomized():
    # A unimodular congruence (P, P) keeps N = S^t and the value S_11.
    rng = random.Random(SEED + 8)
    moved_off_block = 0
    for _ in range(400):
        pair = twinkling_block_pair(rng, rng.randint(0, 2))
        p = random_unimodular(rng, len(pair.S), 12)
        moved = basis_change(pair, UnimodularPair(p, p))
        assert moved.N == transpose(moved.S)
        value = pseudo_twinkling_from_pair(moved)
        assert value == pseudo_twinkling_from_pair(pair) == pair.S[0][0]
        normalized = normalized_alexander(NormalizedInput(moved, middle_condition=True))
        assert value == first_order_at_one(normalized)
        moved_off_block += any(intersection_form(moved)[0])
    assert moved_off_block > 200


def _minors_gcd_oracle(a):
    """Gcd of all (m-1)-minors, each expanded over permutations."""
    m = len(a)
    minors = (
        perm_det_int_oracle([row[:j] + row[j + 1 :] for row in a[:i] + a[i + 1 :]])
        for i in range(m)
        for j in range(m)
    )
    return math.gcd(*minors)


def _random_form(rng, m, kind):
    if kind == 0:  # P * diag(d_1, ..., d_(m-1), 0) * Q, some d_i not a unit
        d = [rng.choice((1, 1, 1, -1, 2, 3)) for _ in range(m - 1)] + [0]
        diag = [[d[i] if i == j else 0 for j in range(m)] for i in range(m)]
        p, q = random_unimodular(rng, m), random_unimodular(rng, m)
        return mat_mul(mat_mul(p, diag), q)
    if kind == 1:  # one row an integer combination of the others
        rows = random_int_matrix(rng, m - 1, m, -2, 2)
        coeffs = [rng.randint(-2, 2) for _ in rows]
        combo = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m))
        at = rng.randrange(m)
        return rows[:at] + (combo,) + rows[at:]
    return random_int_matrix(rng, m, m, -1, 1)  # mostly full rank, some lower


def test_smith_test_matches_brute_force_minors_randomized():
    # The pair routes accept S - N exactly when det = 0 and the (m-1)-minors
    # have gcd 1; accepted alinking values equal the polynomial route.
    rng = random.Random(SEED + 9)
    outcomes = collections.Counter()
    for i in range(600):
        m, kind = rng.randint(1, 6), i % 3
        form = _random_form(rng, m, kind)
        n = random_int_matrix(rng, m, m)
        pair = SeifertPair(
            [[f + v for f, v in zip(frow, nrow)] for frow, nrow in zip(form, n)], n, 1, 2
        )
        det, minors = perm_det_int_oracle(form), _minors_gcd_oracle(form)
        kernel = _corank_one_kernel(form)
        assert (kernel is None) == (det != 0 or minors == 0)
        if kernel is not None:
            y = kernel[0]
            assert all(sum(v * w for v, w in zip(row, y)) == 0 for row in form)
            assert math.gcd(*y) == 1
        smith = det == 0 and minors == 1
        if smith:
            value = pseudo_alinking_from_pair(pair)
            assert value == pseudo_alinking_from_poly(pencil_det(pair))
        else:
            for route in (pseudo_alinking_from_pair, pseudo_twinkling_from_pair):
                with pytest.raises(PreconditionViolated, match="Smith form"):
                    route(pair)
        outcomes[kind, smith, kernel is None] += 1
    # Smith forms, corank-one non-Smith forms and other ranks all occur.
    assert outcomes[0, True, False] > 50 and outcomes[0, False, False] > 50
    assert outcomes[1, True, False] > 50 and outcomes[2, False, True] > 50


def test_twinkling_rejects_differing_kernels():
    # Smith form diag(1, 0), but the left kernel is e_2 and the right e_1.
    pair = SeifertPair([[5, 1], [0, 0]], [[5, 0], [0, 0]], 1, 1)
    assert pseudo_alinking_from_pair(pair) == 0
    with pytest.raises(PreconditionViolated, match="kernels of S - N differ"):
        pseudo_twinkling_from_pair(pair)


def test_pair_routes_reject_non_square_forms():
    # A 1x2 pair with S - N = 0: every vector is in the right kernel, so no
    # distinguished cycle exists, and S_11 changes with the basis.
    pair = SeifertPair([[2, 1]], [[2, 1]], 1, 2)
    moved = basis_change(pair, UnimodularPair([[1]], [[1, 1], [0, 1]]))
    assert moved.S[0][0] != pair.S[0][0]
    for route in (pseudo_alinking_from_pair, pseudo_twinkling_from_pair):
        with pytest.raises(PreconditionViolated, match="Smith form"):
            route(pair)


def _order_factor(rng, integral: bool, big: bool) -> LaurentPoly:
    """A dense (consecutive keys) or sparse cofactor on one grid, with
    coefficients below 10 or between 2^64 and 2^70 in size."""
    step = 2 if integral else 1
    if rng.random() < 0.5:
        start = rng.randint(-20, 20)
        keys = [step * (start + i) for i in range(rng.randint(1, 24))]
    else:
        keys = [step * rng.randint(-300, 300) for _ in range(rng.randint(1, 6))]
    size = (2**64, 2**70) if big else (1, 9)
    return LaurentPoly({k: rng.choice((-1, 1)) * rng.randint(*size) for k in keys})


def _order_cases(rng, g: LaurentPoly):
    u_minus_one = T_HALF - 1
    odd_monomial = LaurentPoly.half_power(2 * rng.randint(-10, 10) + 1)
    return (
        (T - 1) * g,
        HALF_DIFF * g,  # divisible once, and twice only if g(1) = g(-1) = 0
        HALF_DIFF * HALF_DIFF * g,
        g,  # f(1) != 0 unless the coefficients cancel
        u_minus_one * g,  # f(1) = 0, and f(-1) != 0 unless g(-1) = 0
        HALF_DIFF * u_minus_one * g,  # f'(1) = 0 but f'(-1) != 0
        HALF_DIFF * g + odd_monomial,  # even-key sum 0, odd-key sum 1
        HALF_DIFF * HALF_DIFF * g - odd_monomial,
    )


def _outcome(route, f):
    try:
        return route(f)
    except (NotDivisible, NonIntegerExponent) as exc:
        return type(exc), str(exc)


def test_orders_at_one_match_division_oracle_randomized():
    # Coefficient sums against quotients built by long division: the same
    # value, or the same error; the messages match too except where the
    # second factor fails, which the sums name after the input.
    rng = random.Random(SEED + 10)
    outcomes = collections.Counter()
    cases = [ZERO] + [
        f
        for i in range(300)
        for f in _order_cases(rng, _order_factor(rng, i % 2 == 0, i % 5 == 0))
    ]
    for f in cases:
        alink = _outcome(pseudo_alinking_from_poly, f)
        assert alink == _outcome(pseudo_alinking_oracle, f), f
        first = _outcome(first_order_at_one, f)
        assert first == _outcome(lambda f: order_at_one_oracle(f, 1), f), f
        second = _outcome(second_order_at_one, f)
        want = _outcome(lambda f: order_at_one_oracle(f, 2), f)
        if type(first) is int and type(second) is not int:
            assert second == (NotDivisible, f"{f} is not divisible by ({HALF_DIFF})^2")
            assert type(want) is tuple and want[0] is NotDivisible, f
        else:
            assert second == want, f
        for name, value in (("alink", alink), ("first", first), ("second", second)):
            if type(value) is tuple:
                kind = value[0].__name__
            else:
                kind = "big" if abs(value) > 2**64 else "value"
            outcomes[name, kind] += 1
        outcomes["once, not twice"] += type(first) is int and type(second) is not int
    # Values, big values and each error occur for every route.
    minimum = {"value": (250, 900, 200), "big": (25, 90, 45), "NotDivisible": (120, 900, 1600)}
    for kind, counts in minimum.items():
        for name, least in zip(("alink", "first", "second"), counts):
            assert outcomes[name, kind] > least, (name, kind)
    assert outcomes["alink", "NonIntegerExponent"] > 1500
    assert outcomes["once, not twice"] > 700
