import collections
import itertools
import random

import pytest

from alexpoly import (
    BalancedClass,
    LaurentPoly,
    NonIntegerExponent,
    NormalizedInput,
    ONE,
    RepresentativeWitness,
    Ring,
    SeifertPair,
    T,
    T_HALF,
    ZERO,
    alexander_matrix,
    check_pass_move,
    check_twist_move,
    find_representatives,
    normalized_alexander,
    search_window,
)
from alexpoly import skein
from alexpoly.laurent import T_HALF_DIFF, T_MINUS_ONE
from alexpoly.seifert import pencil_det
from conftest import (
    find_representatives_lookup_oracle,
    find_representatives_oracle,
    move_triple,
    perm_det_oracle,
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


def _verdict_case(rng, kind, factor):
    """(dp, dm, d0) of one kind with dp - dm = factor*d0, then broken by
    one term half the time; half triples leave the integer grid."""
    half = kind == "half"
    if kind == "dense":
        dm, d0 = (
            LaurentPoly({2 * i: rng.choice((-1, 1)) * rng.randint(1, 9)
                         for i in range(-100, rng.randint(100, 500))})
            for _ in "md"
        )
    else:
        dm, d0 = (random_poly(rng, integral=not half) for _ in "md")
    dp = dm + factor * d0
    if kind == "zero slot":
        slot = rng.randrange(3)
        if slot == 0:
            dp, dm = ZERO, -(factor * d0)
        elif slot == 1:
            dp, dm = factor * d0, ZERO
        else:
            dp, d0 = dm, ZERO
    elif kind == "cancel":  # dp - dm is zero; factor*d0 is zero or not
        dp, d0 = dm, rng.choice((ZERO, d0))
    if rng.random() < 0.5:
        k = rng.randint(-12, 12) * (1 if half else 2)
        dp = dp + LaurentPoly({k: rng.choice((-1, 1)) * rng.randint(1, 3)})
    return dp, dm, d0


def test_verdicts_match_residual_definition_randomized():
    # A verdict holds exactly when the residual lhs - rhs is zero, and it
    # carries lhs = dp - dm, rhs = factor*d0 and that residual, whether or
    # not the check compares the two sides before subtracting.
    rng = random.Random(SEED + 9)
    moves = ((check_pass_move, T_MINUS_ONE), (check_twist_move, T_HALF_DIFF))
    cases = [(kind, move) for kind in ("sparse", "dense", "zero slot", "cancel")
             for move in moves] + [("half", moves[1])]
    seen = collections.Counter()
    for i in range(1800):
        kind, (check, factor) = cases[i % len(cases)]
        dp, dm, d0 = _verdict_case(rng, kind, factor)
        lhs, rhs = dp - dm, factor * d0
        residual = lhs - rhs
        verdict = check(dp, dm, d0)
        assert (verdict.holds, verdict.lhs, verdict.rhs, verdict.residual) == (
            not residual, lhs, rhs, residual
        ), (kind, check.__name__, str(dp), str(dm), str(d0))
        seen[kind, check.__name__, verdict.holds] += 1
        seen["both sides zero", verdict.holds] += not lhs and not rhs
    for kind, (check, _) in cases:
        for holds in (True, False):
            assert seen[kind, check.__name__, holds] >= 20, seen
    assert seen["both sides zero", True] >= 20, seen


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
        expected = find_representatives_lookup_oracle(*classes)
        assert witness == expected
        outcomes[kind, expected.found] += 1
    # Each kind keeps producing the outcome it is there to exercise.
    assert all(outcomes[kind, False] > 50 for kind in (2, 4))
    assert all(outcomes[kind, True] > 50 for kind in (0, 1, 3))


def test_lookup_oracle_matches_full_oracle_randomized():
    # The lookup oracle tries the same candidates in the same order as the
    # oracle that checks every candidate triple.
    rng = random.Random(SEED + 7)
    outcomes = collections.Counter()
    for i in range(150):
        kind, slot = i % 5, (i // 5) % 3
        while True:
            polys = [
                f.shift(2 * rng.randint(-2, 2)) * rng.choice((1, -1))
                for f in _search_case(rng, kind, slot)
            ]
            classes = _z_classes(*polys)
            if search_window(*classes) <= 3:
                break
        expected = find_representatives_oracle(*classes)
        assert find_representatives_lookup_oracle(*classes) == expected
        outcomes[expected.found] += 1
    assert outcomes[True] > 30 and outcomes[False] > 30


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


def _relative_in_box(rp, rm, r0, bound):
    """Every (sp, sm, s0, d, e) with |d|, |e| <= bound and
    sp*t^d*rp - sm*rm = s0*t^e*(t - 1)*r0: each (sp, sm, d) looks up the
    (s0, e) whose right-hand side equals its left-hand side."""
    box = range(-bound, bound + 1)
    rhs = collections.defaultdict(list)
    for s0, e in itertools.product((1, -1), box):
        rhs[(T - 1) * r0.shift(2 * e) * s0].append((s0, e))
    return {
        (sp, sm, s0, d, e)
        for sp, sm, d in itertools.product((1, -1), (1, -1), box)
        for s0, e in rhs.get(rp.shift(2 * d) * sp - rm * sm, ())
    }


def _expand(witnesses, bound):
    """The relative witnesses with |d|, |e| <= bound that the tuples of
    skein._relative_witnesses stand for, free slots filled every way."""
    box = range(-bound, bound + 1)
    out = set()
    for sp, sm, s0, d, e in witnesses:
        if sm is None and sp is not None:
            # A free minus exponent moves d and e together.
            shifts = [(d + n, e + n) for n in range(-2 * bound, 2 * bound + 1)]
        else:
            shifts = list(itertools.product(
                box if sp is None else [d], box if s0 is None else [e]
            ))
        signs = [(1, -1) if s is None else (s,) for s in (sp, sm, s0)]
        out.update(
            (*three, d_, e_)
            for three in itertools.product(*signs)
            for d_, e_ in shifts
            if abs(d_) <= bound and abs(e_) <= bound
        )
    return out


def test_window_is_complete_randomized():
    # Trying every sign and every relative shift |d|, |e| <= 3W finds
    # exactly the relative witnesses that find_representatives derives,
    # and each of those satisfies the identity.  The witness returned has
    # at most one nonzero shift, of size at most W, and W is reached.
    rng = random.Random(SEED + 4)
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
        rp, rm, r0 = (c.representative for c in classes)
        derived = skein._relative_witnesses(rp, rm, r0)
        for sp, sm, s0, d, e in derived:
            sp, sm, s0 = (1 if s is None else s for s in (sp, sm, s0))
            assert check_pass_move(rp.shift(2 * d) * sp, rm * sm, r0.shift(2 * e) * s0).holds
        assert _expand(derived, 3 * w) == _relative_in_box(rp, rm, r0, 3 * w)
        witness = find_representatives(*classes)
        assert witness.found == bool(derived)
        shifts = [abs(n) for _, n in witness.shifts]
        assert sum(n > 0 for n in shifts) <= 1
        largest = max(shifts, default=0)
        assert largest <= w
        outcomes["found" if witness.found else "none"] += 1
        outcomes["shifted"] += largest > 0
        outcomes["shift W"] += largest == w
    # Both verdicts occur, and the bound is reached: W cannot be narrowed.
    assert outcomes["none"] > 300 and outcomes["shifted"] > 150
    assert outcomes["shift W"] > 50


def test_matrix_move_triples_end_to_end_randomized():
    # Seifert pairs go through pencil_det and normalized_alexander into both
    # move identities, and find_representatives recovers a pass-move witness
    # from the three Z classes alone.  Small pairs often need a shifted
    # witness; five pairs of each size 13..24 reach the larger matrices.
    rng = random.Random(SEED + 5)
    shifted = 0
    small = (rng.randint(1, 12) for _ in range(300))
    for size in itertools.chain(small, [*range(13, 25)] * 5):
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


def test_off_diagonal_bump_breaks_the_move_randomized():
    # Raising S_rc and N_rc of plus by 1 at r != c adds a term to its
    # determinant that the move does not account for, unless that term
    # vanishes.  The identity through pencil_det holds exactly when it holds
    # for the permutation expansions.
    rng = random.Random(SEED + 6)
    broken = 0
    for _ in range(200):
        size = rng.randint(2, 5)
        s, n = random_int_matrix(rng, size, size), random_int_matrix(rng, size, size)
        plus, minus, zero = move_triple(SeifertPair(s, n, 3, 5), rng.randrange(size))
        r, c = rng.sample(range(size), 2)
        s, n = ([list(row) for row in m] for m in (plus.S, plus.N))
        s[r][c] += 1
        n[r][c] += 1
        bumped = SeifertPair(s, n, 3, 5)
        dp, dm, d0 = (
            perm_det_oracle(alexander_matrix(p).entries) for p in (bumped, minus, zero)
        )
        expected = dp - dm == (T - 1) * d0
        got = [pencil_det(p) for p in (bumped, minus, zero)]
        assert check_pass_move(*got).holds == expected
        broken += not expected
    assert broken > 150


class TestWideWindows:
    def test_window_past_128_is_answered(self):
        classes = _z_classes(T**128 + 1, ONE, ONE)
        assert search_window(*classes) == 129
        assert find_representatives(*classes) == RepresentativeWitness()
        dm, d0 = 1 + T**4000, 1 + T**3999
        classes = _z_classes(dm + (T - 1) * d0, dm, d0)
        assert search_window(*classes) == 11_999
        assert find_representatives(*classes).shifts == ((1, 1), (1, 0), (1, 0))

    def test_window_128_witness(self):
        dm, d0 = 1 + T**43, 1 + T**42
        classes = _z_classes(dm + (T - 1) * d0, dm, d0)
        assert search_window(*classes) == 128
        witness = find_representatives(*classes)
        assert witness.shifts == ((1, 1), (1, 0), (1, 0))
