import collections
import random

import pytest

from alexpoly import (
    BalancedClass,
    LaurentPoly,
    NonIntegerExponent,
    NormalizedInput,
    ONE,
    PreconditionViolated,
    Ring,
    SeifertPair,
    T,
    T_HALF,
    ZERO,
    check_pass_move,
    check_twist_move,
    find_representatives,
    normalized_alexander,
    search_window,
)
from alexpoly import skein
from alexpoly.seifert import pencil_det
from alexpoly.skein import MAX_SEARCH_WINDOW
from conftest import (
    find_representatives_oracle,
    move_triple,
    random_int_matrix,
    random_poly,
)

SEED = 20260813

T_INV = LaurentPoly.t_power(-1)
T_HALF_INV = LaurentPoly.half_power(-1)


def _z_classes(*polys):
    return [BalancedClass.from_poly(f, Ring.Z) for f in polys]


class TestPassMove:
    def test_intro_triple(self):
        verdict = check_pass_move(T, 2 * T - 1, -ONE)
        assert verdict.holds
        assert verdict.residual == ZERO

    def test_content_triples(self):
        assert check_pass_move(4 * (T - 1), 3 * (T - 1), ONE).holds
        assert check_pass_move(2 * (T - 1), T - 1, ONE).holds

    def test_failing_triple(self):
        verdict = check_pass_move(T, T, ONE)
        assert not verdict.holds
        assert verdict.residual == -(T - 1)

    def test_rejects_half_powers(self):
        with pytest.raises(NonIntegerExponent):
            check_pass_move(T_HALF, ZERO, ZERO)


class TestTwistMove:
    def test_twist_triple(self):
        verdict = check_twist_move(ONE, T + T_INV - 1, -T_HALF + T_HALF_INV)
        assert verdict.holds
        assert verdict.residual == ZERO

    def test_zero_triple(self):
        assert check_twist_move(ZERO, ZERO, ZERO).holds

    def test_failing_triple(self):
        verdict = check_twist_move(ONE, ONE, ONE)
        assert not verdict.holds
        assert verdict.rhs == T_HALF - T_HALF_INV


class TestFindRepresentatives:
    def test_intro_classes_rescale_zero_part(self):
        witness = find_representatives(*_z_classes(T, 2 * T - 1, ONE))
        assert witness.found
        assert witness.shifts == ((1, 1), (1, 0), (-1, 0))

    def test_impossible_triple(self):
        witness = find_representatives(*_z_classes(T - 1, T - 1, ONE))
        assert not witness.found
        assert witness.shifts == ()

    def test_identity_shifts_found_first(self):
        witness = find_representatives(*_z_classes(4 * (T - 1), 3 * (T - 1), ONE))
        assert witness.found
        assert witness.shifts == ((1, 0), (1, 0), (1, 0))

    def test_window_size(self):
        assert search_window(*_z_classes(T, 2 * T - 1, ONE)) == 2

    def test_requires_z_classes(self):
        classes = _z_classes(T - 1, T - 1, ZERO)
        bad = BalancedClass.from_poly(T - 1, Ring.Q)
        with pytest.raises(ValueError):
            find_representatives(classes[0], classes[1], bad)


def test_pass_move_antisymmetry_randomized():
    rng = random.Random(SEED)
    for _ in range(1000):
        f = random_poly(rng, integral=True)
        g = random_poly(rng, integral=True)
        h = random_poly(rng, integral=True)
        assert check_pass_move(f, g, h).holds == check_pass_move(g, f, -h).holds


def test_pass_move_evaluation_consistency_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        dm = random_poly(rng, integral=True)
        d0 = random_poly(rng, integral=True)
        dp = dm + (T - 1) * d0
        verdict = check_pass_move(dp, dm, d0)
        assert verdict.holds
        assert (dp - dm).exact_div(T - 1).eval_at_one() == d0.eval_at_one()


def test_found_witnesses_always_verify_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        dm = random_poly(rng, integral=True, max_terms=3, halfexp_lo=-4, halfexp_hi=4)
        d0 = random_poly(rng, integral=True, max_terms=2, halfexp_lo=-4, halfexp_hi=4)
        dp = dm + (T - 1) * d0
        classes = _z_classes(dp, dm, d0)
        witness = find_representatives(*classes)
        assert witness.found
        shifted = [
            c.representative.shift(2 * n) * sign
            for c, (sign, n) in zip(classes, witness.shifts)
        ]
        assert check_pass_move(*shifted).holds


def _small(rng, max_terms=2, lo=-2):
    return random_poly(
        rng, integral=True, max_terms=max_terms,
        halfexp_lo=lo, halfexp_hi=2, coeff_lo=-3, coeff_hi=3,
    )


def _search_case(rng, kind, slot):
    """One pass-move triple of the given kind; see the oracle suite."""
    if kind == 0:  # planted witness
        dm, d0 = _small(rng), _small(rng)
        return [dm + (T - 1) * d0, dm, d0]
    if kind == 1:  # a zero class in the given slot, mostly with a witness
        dm, d0 = _small(rng), _small(rng)
        planted = rng.random() < 0.7
        if slot == 0:
            return [ZERO, -(T - 1) * d0 if planted else dm, d0]
        if slot == 1:
            return [(T - 1) * d0 if planted else dm, ZERO, d0]
        return [dm if planted else _small(rng), dm, ZERO]
    if kind == 2:  # planted, then one slot perturbed by a monomial
        dm, d0 = _small(rng, lo=0), _small(rng, 1, lo=0)
        triple = [dm + (T - 1) * d0, dm, d0]
        bump = LaurentPoly({2 * rng.randint(0, 1): rng.choice((1, -1))})
        triple[slot] = triple[slot] + bump
        return triple
    if kind == 3:  # both representatives vanish at t = 1, with a witness
        a, b = _small(rng, lo=0), _small(rng, lo=0)
        return [(T - 1) * a, (T - 1) * b, a - b]
    a, b = _small(rng, 1, lo=0), _small(rng, 1, lo=0)  # vanish at t = 1
    return [(T - 1) * a, (T - 1) * b, _small(rng, lo=0)]


def test_search_matches_brute_force_oracle_randomized():
    rng = random.Random(SEED + 3)
    outcomes = collections.Counter()
    for i in range(1000):
        kind, slot = i % 5, (i // 5) % 3
        while True:
            polys = [
                f.shift(2 * rng.randint(-3, 3)) * rng.choice((1, -1))
                for f in _search_case(rng, kind, slot)
            ]
            classes = _z_classes(*polys)
            if search_window(*classes) <= 6:
                break
        witness = find_representatives(*classes)
        expected = find_representatives_oracle(*classes)
        assert witness == expected
        outcomes[kind, expected.found] += 1
    # Each kind keeps producing the outcome it is there to exercise.
    assert all(outcomes[kind, False] > 50 for kind in (2, 4))
    assert all(outcomes[kind, True] > 50 for kind in (0, 1, 3))


def _cancelling_case(rng, perturb):
    """dp = t^k*(dm + (t - 1)*h) and d0 = dm*(1 + t + ... + t^(k-1)) + t^k*h.

    Then dp - dm = (t - 1)*d0, and the witness needs a relative shift of k,
    often equal to W.  Plus and minus are swapped half the time (d < 0), and
    a perturbed triple has one slot bumped by a monomial.
    """
    k = rng.randint(1, 5)
    dm, h = _small(rng, lo=0), _small(rng, 1, lo=0)
    d0 = dm * sum((T**j for j in range(k)), ZERO) + T**k * h
    triple = [dm + (T - 1) * d0, dm, d0]
    if rng.random() < 0.5:
        triple = [dm, triple[0], -d0]
    if perturb:
        slot = rng.randrange(3)
        bump = LaurentPoly({2 * rng.randint(0, 1): rng.choice((1, -1))})
        triple[slot] = triple[slot] + bump
    return triple


def test_window_is_complete_randomized(monkeypatch):
    # The docstring of find_representatives proves that a witness of least
    # total shift lies within W.  Widening the window the search reads to 3W
    # must then find no new witness, and the same first one.
    rng = random.Random(SEED + 4)
    widened = []

    def wide_window(*classes):
        widened.append(classes)
        return 3 * search_window(*classes)

    outcomes = collections.Counter()
    for i in range(1400):
        kind, slot = i % 7, (i // 7) % 3
        while True:
            if kind < 5:
                case = _search_case(rng, kind, slot)
            else:
                case = _cancelling_case(rng, perturb=kind == 6)
            polys = [f.shift(2 * rng.randint(-3, 3)) * rng.choice((1, -1)) for f in case]
            classes = _z_classes(*polys)
            w = search_window(*classes)
            if w <= 8:
                break
        narrow = find_representatives(*classes)
        with monkeypatch.context() as patch:
            patch.setattr(skein, "search_window", wide_window)
            wide = find_representatives(*classes)
        assert len(widened) == i + 1
        assert wide == narrow
        largest = max((abs(n) for _, n in narrow.shifts), default=0)
        outcomes["found" if narrow.found else "none"] += 1
        outcomes["shifted"] += largest > 0
        outcomes["shift W"] += largest == w
    # Both verdicts occur, and the bound is reached: W cannot be narrowed.
    assert outcomes["none"] > 300 and outcomes["shifted"] > 150
    assert outcomes["shift W"] > 50


def test_matrix_move_triples_end_to_end_randomized():
    # Seifert pairs go through pencil_det and normalized_alexander into both
    # move identities, and find_representatives recovers a pass-move witness
    # from the three Z classes alone.
    rng = random.Random(SEED + 5)
    shifted = 0
    for _ in range(300):
        size = rng.randint(1, 12)
        s, n = random_int_matrix(rng, size, size), random_int_matrix(rng, size, size)
        pair = SeifertPair(s, n, 3, 5)
        triple = move_triple(pair, rng.randrange(size))
        dp, dm, d0 = (pencil_det(p) for p in triple)
        assert check_pass_move(dp, dm, d0).holds
        halves = [normalized_alexander(NormalizedInput(p, True)) for p in triple]
        assert check_twist_move(*halves).holds
        classes = _z_classes(dp, dm, d0)
        witness = find_representatives(*classes)
        assert witness.found
        reps = [
            c.representative.shift(2 * n) * sign
            for c, (sign, n) in zip(classes, witness.shifts)
        ]
        assert check_pass_move(*reps).holds
        shifted += any(n for _, n in witness.shifts)
    assert shifted > 10


class TestSearchWindowCap:
    def test_window_above_cap_is_rejected(self):
        classes = _z_classes(T**MAX_SEARCH_WINDOW + 1, ONE, ONE)
        assert search_window(*classes) == MAX_SEARCH_WINDOW + 1
        with pytest.raises(PreconditionViolated):
            find_representatives(*classes)

    def test_window_at_cap_is_searched(self):
        dm, d0 = 1 + T**43, 1 + T**42
        classes = _z_classes(dm + (T - 1) * d0, dm, d0)
        assert search_window(*classes) == MAX_SEARCH_WINDOW
        witness = find_representatives(*classes)
        assert witness.shifts == ((1, 1), (1, 0), (1, 0))
