import random

import pytest

from alexpoly import (
    BalancedClass,
    NonIntegerExponent,
    ONE,
    Ring,
    T,
    T_HALF,
    ZERO,
    canonicalize,
    find_representatives,
    q_balanced_eq,
    z_balanced_eq,
)
from conftest import q_balanced_oracle, random_poly, z_balanced_oracle

SEED = 20260810
CASES = 1000


class TestZBalanced:
    def test_distinct_integer_multiples(self):
        assert not z_balanced_eq(4 * (T - 1), 3 * (T - 1))

    def test_unit_multiple(self):
        f = T * T + 1
        assert z_balanced_eq(f, -(T**3) * f)

    def test_zero_pair(self):
        assert z_balanced_eq(ZERO, ZERO)
        assert not z_balanced_eq(ZERO, T - 1)

    def test_rejects_half_powers(self):
        with pytest.raises(NonIntegerExponent):
            z_balanced_eq(T_HALF, T_HALF)


class TestQBalanced:
    def test_rational_multiples(self):
        assert q_balanced_eq(4 * (T - 1), 3 * (T - 1))

    def test_different_shapes(self):
        assert not q_balanced_eq(T - 1, T * T)

    def test_zero_only_matches_zero(self):
        assert not q_balanced_eq(ZERO, T - 1)
        assert q_balanced_eq(ZERO, ZERO)

    def test_rejects_half_powers(self):
        with pytest.raises(NonIntegerExponent):
            q_balanced_eq(T_HALF, ONE)


class TestCanonicalize:
    def test_shift_and_sign(self):
        assert canonicalize(-(T**3) * (T - 1), Ring.Z) == T - 1

    def test_content_divides_in_q(self):
        assert canonicalize(4 * (T - 1), Ring.Q) == T - 1

    def test_content_kept_in_z(self):
        four = canonicalize(4 * (T - 1), Ring.Z)
        three = canonicalize(3 * (T - 1), Ring.Z)
        assert four == 4 * T - 4
        assert three == 3 * T - 3
        assert not z_balanced_eq(four, three)

    def test_zero(self):
        assert canonicalize(ZERO, Ring.Z) == ZERO
        assert canonicalize(ZERO, Ring.Q) == ZERO

    def test_rejects_half_powers(self):
        with pytest.raises(NonIntegerExponent):
            canonicalize(T_HALF, Ring.Z)


class TestBalancedClass:
    def test_from_poly_canonicalizes(self):
        c = BalancedClass.from_poly(-(T**2) * (T - 1), Ring.Z)
        assert c.representative == T - 1
        assert c == BalancedClass.from_poly(T - 1, Ring.Z)

    def test_str(self):
        assert str(BalancedClass.from_poly(T - 1, Ring.Z)) == "Z-class of -1 + 1*t^1"

    def test_contains(self):
        c = BalancedClass.from_poly(T - 1, Ring.Q)
        assert c.contains(7 * (T - 1))
        assert not c.contains(T + 1)

    def test_constructor_takes_only_the_canonical_representative(self):
        for rep, ring in ((T * T, Ring.Z), (-ONE, Ring.Z), (1 - T, Ring.Z), (2 * T - 2, Ring.Q)):
            with pytest.raises(ValueError, match="not the canonical"):
                BalancedClass(rep, ring)
        made = [BalancedClass.from_poly(f, Ring.Z) for f in (T, 2 * T - 1, -ONE)]
        assert [BalancedClass(c.representative, Ring.Z) for c in made] == made
        assert find_representatives(*made).shifts == ((1, 1), (1, 0), (-1, 0))

    @pytest.mark.parametrize("ring", list(Ring))
    def test_from_poly_canonicalizes_once(self, monkeypatch, ring):
        calls = []

        def counted(f, ring):
            calls.append(f)
            return canonicalize(f, ring)

        monkeypatch.setattr("alexpoly.balance.canonicalize", counted)
        c = BalancedClass.from_poly(-3 * T**2 * (T - 1), ring)
        assert calls == [-3 * T**2 * (T - 1)]
        assert BalancedClass(c.representative, ring) == c


def _random_unit_multiple(rng, f):
    sign = rng.choice((1, -1))
    n = rng.randint(-5, 5)
    return sign * f.shift(2 * n)


def test_equivalence_relation_randomized():
    rng = random.Random(SEED)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        g = _random_unit_multiple(rng, f)
        h = _random_unit_multiple(rng, g)
        for eq in (z_balanced_eq, q_balanced_eq):
            assert eq(f, f)
            assert eq(f, g) and eq(g, f)
            assert eq(f, g) and eq(g, h) and eq(f, h)


def test_z_balanced_implies_q_balanced_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        g = random_poly(rng, integral=True)
        if z_balanced_eq(f, g):
            assert q_balanced_eq(f, g)
    assert q_balanced_eq(4 * (T - 1), 3 * (T - 1))
    assert not z_balanced_eq(4 * (T - 1), 3 * (T - 1))


def test_canonical_form_decides_equivalence_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        g = rng.choice((
            random_poly(rng, integral=True),
            _random_unit_multiple(rng, f),
            rng.choice((2, -3, 6)) * _random_unit_multiple(rng, f),
        ))
        assert z_balanced_eq(f, g) == z_balanced_oracle(f, g)
        assert q_balanced_eq(f, g) == q_balanced_oracle(f, g)


def test_canonicalize_kills_unit_multiples_randomized():
    rng = random.Random(SEED + 3)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        assert canonicalize(_random_unit_multiple(rng, f), Ring.Z) == canonicalize(f, Ring.Z)


def test_evaluation_at_one_is_class_invariant_randomized():
    rng = random.Random(SEED + 4)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        g = _random_unit_multiple(rng, f)
        assert abs(f.eval_at_one()) == abs(g.eval_at_one())


def test_canonical_form_is_the_normalized_class_member_randomized():
    # Lowest exponent 0, positive leading coefficient and, over Q, content 1
    # single out one member of each class; the oracles confirm membership.
    rng = random.Random(SEED + 5)
    for _ in range(CASES):
        f = random_poly(rng, integral=True)
        if rng.random() < 0.5:
            f = rng.choice((1, -1, 2, -6)) * _random_unit_multiple(rng, f)
        for ring, oracle in ((Ring.Z, z_balanced_oracle), (Ring.Q, q_balanced_oracle)):
            c = canonicalize(f, ring)
            assert oracle(f, c)
            if f:
                terms = c.terms
                assert min(terms) == 0 and terms[max(terms)] > 0
                assert ring is Ring.Z or c.content() == 1
