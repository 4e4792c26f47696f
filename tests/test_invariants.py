import dataclasses
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
    ZERO,
    alexander_matrix,
    arf,
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
from alexpoly.seifert import transpose
from conftest import alinking_block_pair, random_poly, twinkling_block_pair

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

    def test_report_copies_scalars(self):
        scalars = {"determinant_at_one": 0}
        out = InvariantReport(ONE, z_alexander(V_ZERO), q_alexander(V_ZERO), scalars)
        scalars["determinant_at_one"] = 5
        assert out.scalars == {"determinant_at_one": 0}


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


class TestArf:
    def test_single(self):
        assert arf(ArfData(1, (1,), (1,))) == 1

    def test_zero_row(self):
        assert arf(ArfData(2, (0, 0), (5, 7))) == 0

    def test_mixed(self):
        assert arf(ArfData(2, (1, 1), (1, 0))) == 1

    def test_shape(self):
        with pytest.raises(ShapeMismatch):
            ArfData(2, (1,), (1, 0))


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
        base = arf(ArfData(nu, a, b))
        order = list(range(nu))
        rng.shuffle(order)
        assert arf(ArfData(nu, [a[i] for i in order], [b[i] for i in order])) == base
        bumped_a = list(a)
        bumped_a[rng.randrange(nu)] += 2
        assert arf(ArfData(nu, bumped_a, b)) == base


def test_orders_at_one_scale_linearly():
    # A division that rescans the whole remainder at every step took about
    # two minutes on these inputs; the linear division takes about 0.2 s.
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
    assert elapsed < 5.0, f"{elapsed:.2f} s for two {size}-term divisions"
