"""Acceptance suite: one test per criterion, one printed line each.

Everything here is exact integer arithmetic, so the tolerances are
zero: results either match or they do not.  Randomized parts use the
fixed seeds recorded below.
"""
import random
import time

from alexpoly import (
    AlexanderMatrix,
    BalancedClass,
    CorpusEntry,
    LaurentPoly,
    NormalizedInput,
    ONE,
    Ring,
    SeifertPair,
    T,
    T_HALF,
    UnimodularPair,
    ZERO,
    alexander_matrix,
    basis_change,
    check_pass_move,
    check_twist_move,
    det,
    normalized_alexander,
    normalized_matrix,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
    pseudo_twinkling_from_pair,
    q_balanced_eq,
    run_corpus,
    second_order_at_one,
    stabilize,
    z_alexander,
    z_balanced_eq,
)
from alexpoly.cli import main
from alexpoly.corpus import CORPUS
from alexpoly.seifert import transpose
from conftest import (
    alinking_block_pair,
    perm_det_oracle,
    random_int_matrix,
    random_nonzero_poly,
    random_poly,
    random_unimodular,
)

SEED = 20260814
CASES = 1000

T_INV = LaurentPoly.t_power(-1)
T_HALF_INV = LaurentPoly.half_power(-1)


def _criterion(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number}: {status} - {description}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_pass_move_example():
    failures = []
    verdict = check_pass_move(T, 2 * T - 1, -ONE)
    if not verdict.holds or verdict.residual != ZERO:
        failures.append(f"identity residual {verdict.residual}")
    check_pass_move(T, 2 * T - 1, -ONE)  # warm-up before timing
    best = min(
        _timed(lambda: check_pass_move(T, 2 * T - 1, -ONE)) for _ in range(5)
    )
    if best >= 1e-3:
        failures.append(f"runtime {best * 1e3:.3f} ms")
    _criterion(1, "pass-move identity for (t, 2t-1, -1), under 1 ms", failures)


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_twist_example():
    failures = []
    pairs = {
        "plus": SeifertPair([[0, -1], [0, -1]], [[0, 0], [-1, -1]], 1, 1),
        "minus": SeifertPair([[-1, -1], [0, -1]], [[-1, 0], [-1, -1]], 1, 1),
        "zero": SeifertPair([[-1]], [[-1]], 1, 1),
    }
    expected = {
        "plus": ONE,
        "minus": T + T_INV - 1,
        "zero": -T_HALF + T_HALF_INV,
    }
    values = {}
    for label, pair in pairs.items():
        values[label] = normalized_alexander(NormalizedInput(pair, middle_condition=True))
        if values[label] != expected[label]:
            failures.append(f"{label}: got {values[label]}, want {expected[label]}")
    if not check_twist_move(values["plus"], values["minus"], values["zero"]).holds:
        failures.append("twist-move identity fails")
    _criterion(2, "normalized polynomials of the twist triple, exact", failures)


def test_criterion_3_content_classes():
    failures = []
    dets = {}
    for s, want in ((4, 4 * (T - 1)), (3, 3 * (T - 1)), (2, 2 * (T - 1)), (1, T - 1)):
        pair = SeifertPair([[s]], [[s]], 1, 2)
        dets[s] = det(alexander_matrix(pair))
        if z_alexander(pair) != BalancedClass.from_poly(want, Ring.Z):
            failures.append(f"pair ({s}): class of {dets[s]}, want {want}")
    values = sorted(dets)
    for i in values:
        for j in values:
            if i >= j:
                continue
            if z_balanced_eq(dets[i], dets[j]):
                failures.append(f"({i}),({j}) unexpectedly Z-balanced")
            if not q_balanced_eq(dets[i], dets[j]):
                failures.append(f"({i}),({j}) not Q-balanced")
    for dp, dm in ((dets[4], dets[3]), (dets[2], dets[1])):
        if not check_pass_move(dp, dm, ONE).holds:
            failures.append(f"pass move fails for ({dp}, {dm}, 1)")
    _criterion(3, "1x1 pairs (4),(3),(2),(1): classes and identities", failures)


def test_criterion_4_triangular_matrices():
    failures = []
    checks = (
        (AlexanderMatrix(((T, T - 1), (ZERO, T))), T * T),
        (AlexanderMatrix(((T, ZERO), (ZERO, T))), T * T),
        (AlexanderMatrix(((ZERO,),)), ZERO),
        (AlexanderMatrix(()), ONE),
    )
    for matrix, want in checks:
        got = det(matrix)
        if got != want:
            failures.append(f"det is {got}, want {want}")
    if not check_pass_move(T * T, T * T, ZERO).holds:
        failures.append("triple (t^2, t^2, 0) fails the pass move")
    _criterion(4, "triangular determinants and the (t^2, t^2, 0) triple", failures)


def test_criterion_5_second_order_equals_pairing():
    failures = []
    diff = ONE - (T + T_INV - 1)
    from_poly = second_order_at_one(diff)
    from_pair = pseudo_twinkling_from_pair(SeifertPair([[-1]], [[-1]], 1, 1))
    if not (from_poly == from_pair == -1):
        failures.append(f"second-order {from_poly}, pairing {from_pair}, want -1")
    _criterion(5, "second-order value of the twist difference equals s(tau, tau) = -1", failures)


def test_criterion_6_property_suite():
    failures = []
    start = time.perf_counter()

    rng = random.Random(SEED)
    for _ in range(CASES):
        n = rng.randint(1, 4)
        pair = SeifertPair(
            random_int_matrix(rng, n, n), random_int_matrix(rng, n, n), 1, 2
        )
        u = UnimodularPair(random_unimodular(rng, n), random_unimodular(rng, n))
        before = det(alexander_matrix(pair))
        after = det(alexander_matrix(basis_change(pair, u)))
        if after != before and after != -before:
            failures.append(f"basis change alters det: {before} -> {after}")
            break
        if not z_balanced_eq(before, after):
            failures.append("basis change breaks Z-balanced equality")
            break

    rng = random.Random(SEED + 1)
    for _ in range(CASES):
        n = rng.randint(0, 3)
        entries = tuple(
            tuple(
                random_poly(rng, max_terms=2, halfexp_lo=-3, halfexp_hi=3,
                            coeff_lo=-3, coeff_hi=3)
                for _ in range(n)
            )
            for _ in range(n)
        )
        m = AlexanderMatrix(entries)
        sign = rng.choice((1, -1))
        filler = tuple(random_poly(rng, max_terms=2) for _ in range(n))
        if det(stabilize(m, sign, filler)) != sign * T * det(m):
            failures.append("stabilization does not scale det by sign * t")
            break

    rng = random.Random(SEED + 2)
    for _ in range(CASES):
        f = random_poly(rng)
        g = random_nonzero_poly(rng)
        if (f * g).exact_div(g) != f:
            failures.append(f"exact_div(mul({f}, {g}), {g}) != {f}")
            break

    rng = random.Random(SEED + 3)
    for _ in range(CASES):
        n = rng.randint(0, 5)
        entries = tuple(
            tuple(
                random_poly(rng, max_terms=2, halfexp_lo=-3, halfexp_hi=3,
                            coeff_lo=-3, coeff_hi=3)
                for _ in range(n)
            )
            for _ in range(n)
        )
        if det(AlexanderMatrix(entries)) != perm_det_oracle(entries):
            failures.append(f"det disagrees with permutation expansion at size {n}")
            break

    rng = random.Random(SEED + 4)
    for _ in range(CASES):
        pair = alinking_block_pair(rng, rng.randint(1, 4))
        via_pair = pseudo_alinking_from_pair(pair)
        via_poly = pseudo_alinking_from_poly(det(alexander_matrix(pair)))
        if via_pair != via_poly:
            failures.append(f"alinking routes disagree: {via_pair} vs {via_poly}")
            break

    rng = random.Random(SEED + 5)
    for _ in range(CASES):
        n = rng.choice((2, 4))
        s = random_int_matrix(rng, n, n)
        d = det(normalized_matrix(SeifertPair(s, transpose(s), 1, 1)))
        if not d.is_inversion_symmetric():
            failures.append(f"normalized det {d} is not inversion symmetric")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"property suite took {elapsed:.1f} s")
    _criterion(
        6,
        f"six randomized properties, {CASES} cases each, seed {SEED}, {elapsed:.1f} s",
        failures,
    )


def _mutated_entry(entry, label: str, which: str, i: int, j: int):
    pair = entry.pair(label)
    s = [list(row) for row in pair.S]
    n = [list(row) for row in pair.N]
    (s if which == "S" else n)[i][j] += 1
    bumped = SeifertPair(s, n, pair.p, pair.n)
    pairs = tuple((k, bumped if k == label else v) for k, v in entry.pairs)
    return CorpusEntry(entry.name, entry.description, entry.check, pairs, entry.polys)


def test_criterion_7_corpus_and_mutation():
    failures = []
    report = run_corpus()
    if not report.all_passed:
        failures.append(f"corpus fails: {[r.name for r in report.results if not r.passed]}")
    if main(["corpus"]) != 0:
        failures.append("corpus command exits nonzero")
    mutations = 0
    for entry in CORPUS:
        for label, pair in entry.pairs:
            rows, cols = pair.shape
            for which in ("S", "N"):
                for i in range(rows):
                    for j in range(cols):
                        mutations += 1
                        mutated = _mutated_entry(entry, label, which, i, j)
                        if run_corpus((mutated,)).all_passed:
                            failures.append(
                                f"{entry.name}: +1 at {label}.{which}[{i}][{j}] goes unnoticed"
                            )
    if mutations == 0:
        failures.append("no matrix entries were available to mutate")
    _criterion(7, f"corpus passes and every one of {mutations} matrix bumps is caught", failures)
