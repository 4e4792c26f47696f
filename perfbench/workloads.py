"""Seeded inputs, operations and answer checks for the benchmark workloads.

Every input of a workload comes from ``random.Random(f"{name}:{seed}")``, so
one seed always gives the same inputs.  Only the values are random: the mix
of operations and their sizes is fixed, which keeps the work per pass, and
so the metrics, comparable across seeds.

Each operation calls the library through the module attributes in ``api``
at call time, so a tracer that rebinds those attributes sees the calls.
The answer checks use only this file's own arithmetic (Fraction
elimination, dict convolution, a printer written from the documented
grammar), never the library's code paths, except where a check is defined
as re-verifying a witness with ``check_pass_move``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

Poly = dict[int, int]  # half-exponent -> nonzero coefficient, as in LaurentPoly.terms

T_MINUS_ONE: Poly = {2: 1, 0: -1}
HALF_DIFF: Poly = {1: 1, -1: -1}  # t^(1/2) - t^(-1/2)


@dataclass
class Op:
    """One top-level operation: a call into the library and its answer check."""

    kind: str
    size: int
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    warm_up: bool = True  # False for ops too costly to repeat in every set-up


@dataclass(frozen=True)
class Workload:
    """A fixed operation mix.

    ``build`` makes one round of it; a run makes ``rounds`` rounds with fresh
    inputs and its passes cycle through them, so the slowest operations are
    spread over many distinct inputs.
    """

    name: str
    why: str
    rounds: int
    build: Callable[[SimpleNamespace, random.Random, Path], list[Op]]


# -- the benchmark's own exact arithmetic ------------------------------------------


def _clean(p: Poly) -> Poly:
    return {k: c for k, c in p.items() if c}


def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return _clean(out)


def pscale(p: Poly, c: int, shift: int = 0) -> Poly:
    """c * t^(shift/2) * p."""
    return {k + shift: c * v for k, v in p.items()} if c else {}


def pmul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for k, c in f.items():
        for j, d in g.items():
            out[k + j] = out.get(k + j, 0) + c * d
    return _clean(out)


def span_t(p: Poly) -> int:
    return (max(p) - min(p)) // 2 if p else 0


def zcanon(p: Poly) -> Poly:
    """Shift to minimum exponent 0, leading coefficient positive."""
    if not p:
        return {}
    lo, hi = min(p), max(p)
    sign = 1 if p[hi] > 0 else -1
    return {k - lo: sign * c for k, c in p.items()}


def qcanon(p: Poly) -> Poly:
    z = zcanon(p)
    g = math.gcd(*z.values()) if z else 1
    return {k: c // g for k, c in z.items()}


def render(p: Poly) -> str:
    """The documented text grammar: ascending terms joined by ' + '."""
    if not p:
        return "0"
    parts = []
    for k in sorted(p):
        c = p[k]
        if k == 0:
            parts.append(str(c))
        elif k % 2 == 0:
            parts.append(f"{c}*t^{k // 2}")
        else:
            parts.append(f"{c}*t^({k}/2)")
    return " + ".join(parts)


def fraction_det(rows: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return det.numerator  # an integer matrix has an integer determinant


def interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Integer coefficients c_0..c_d of the polynomial through (xs, ys)."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for i in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(poly) + 1)
        for d, c in enumerate(poly):
            new[d + 1] += c
            new[d] -= xs[i] * c
        new[0] += coef[i]
        poly = new
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("interpolant has non-integer coefficients")
    return [int(c) for c in poly]


def pencil_oracle(S, N) -> Poly:
    """det(t*S - N) from Fraction eliminations at n+1 integer points t."""
    n = len(S)
    xs = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(n + 1)]  # 0, 1, -1, 2, ...
    ys = [
        fraction_det([[t * s - v for s, v in zip(srow, nrow)] for srow, nrow in zip(S, N)])
        for t in xs
    ]
    return _clean({2 * d: c for d, c in enumerate(interpolate(xs, ys))})


def terms_of(value) -> Poly:
    return dict(value.terms)


# -- shared input generators --------------------------------------------------------


def int_matrix(rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def singular_pencil(rng: random.Random, n: int):
    """S, N whose last columns are one integer combination of the others,
    so det(t*S - N) is identically zero."""
    S, N = int_matrix(rng, n, n - 1), int_matrix(rng, n, n - 1)
    combo = [0] * (n - 1)
    for j in rng.sample(range(n - 1), 2):
        combo[j] = rng.choice((-1, 1))
    for row_s, row_n in zip(S, N):
        row_s.append(sum(c * v for c, v in zip(combo, row_s)))
        row_n.append(sum(c * v for c, v in zip(combo, row_n)))
    return S, N


def random_poly(rng: random.Random, terms: int, *, sparse: bool, half: bool,
                coeff: int = 99) -> Poly:
    """A polynomial with exactly ``terms`` terms; sparse ones spread over a
    window four times wider than dense ones, half ones use odd keys too."""
    step = 1 if half else 2
    width = terms * (4 if sparse else 1)
    offset = rng.randint(-width, width)
    keys = sorted(rng.sample(range(width), terms)) if sparse else range(terms)
    return {
        step * k + step * offset: rng.choice((-1, 1)) * rng.randint(1, coeff)
        for k in keys
    }


def spanned_poly(rng: random.Random, span: int, coeff: int = 5) -> Poly:
    """Integral polynomial on t^0..t^span with nonzero end coefficients."""
    p = {2 * i: rng.randint(-coeff, coeff) for i in range(span + 1)}
    for k in (0, 2 * span):
        p[k] = rng.choice((-1, 1)) * rng.randint(1, coeff)
    return _clean(p)


def positive_low(p: Poly) -> Poly:
    """p with its lowest coefficient made positive: a command-line argument
    that starts with '-' would be read as an option."""
    out = dict(p)
    out[min(out)] = abs(out[min(out)])
    return out


def unit_multiple(rng: random.Random, p: Poly, reach: int = 6) -> Poly:
    return pscale(p, rng.choice((-1, 1)), 2 * rng.randint(-reach, reach))


def bump(p: Poly, key: int, delta: int) -> Poly:
    """p with one coefficient moved by delta (never to zero)."""
    out = dict(p)
    out[key] = out.get(key, 0) + delta
    if not out[key]:
        out[key] = delta
    return out


# -- pencil-det ---------------------------------------------------------------------

PENCIL_SIZES = tuple(range(4, 21, 2))


CHECK_POINTS = (-1, 2, 3)


def value_at(p: Poly, t: int) -> Fraction:
    """p(t) for an integral polynomial p and t != 0."""
    x = Fraction(t)
    return sum((c * x ** (k // 2) for k, c in p.items()), Fraction(0))


def _pencil_checks():
    """Checks for answers derived from det(t*S - N) of one pair.

    That determinant has only the powers t^0..t^n, so a polynomial is taken
    as it when it has those powers only and its values at CHECK_POINTS equal
    Fraction eliminations of the integer matrices t*S - N.  A class
    representative is right when it is in canonical form and some
    multiplier c*t^m (c = +-1 over Z, any integer over Q) turns it into
    such a polynomial.
    """
    cache: dict = {}

    def values(pair) -> dict[int, int]:
        if pair not in cache:
            cache[pair] = {
                t: fraction_det([[t * s - v for s, v in zip(srow, nrow)]
                                 for srow, nrow in zip(pair.S, pair.N)])
                for t in CHECK_POINTS + (1,)
            }
        return cache[pair]

    def is_det(p: Poly, pair) -> bool:
        vals, n = values(pair), len(pair.S)
        return (all(k % 2 == 0 and 0 <= k <= 2 * n for k in p)
                and all(value_at(p, t) == vals[t] for t in CHECK_POINTS))

    def is_class_of(rep: Poly, pair, ring_q: bool) -> bool:
        if rep != (qcanon if ring_q else zcanon)(rep):
            return False
        if not rep:
            return is_det({}, pair)
        vals = values(pair)
        for m in range(len(pair.S) + 1 - span_t(rep)):
            shifted = pscale(rep, 1, 2 * m)
            t = next(t for t in CHECK_POINTS if value_at(shifted, t))
            c = vals[t] / value_at(shifted, t)
            if c.denominator == 1 and (abs(c) == 1 or ring_q) and c:
                if is_det(pscale(shifted, int(c)), pair):
                    return True
        return False

    def check_report(pair):
        def check(r) -> bool:
            p = terms_of(r.polynomial)
            want = {"determinant_at_one": values(pair)[1]}
            if not sum(p.values()):
                want["pseudo_alinking"] = abs(sum(k // 2 * c for k, c in p.items()))
            return (is_det(p, pair)
                    and terms_of(r.class_z.representative) == zcanon(p)
                    and terms_of(r.class_q.representative) == qcanon(p)
                    and dict(r.scalars) == want)
        return check

    def check_class(pair, ring_q: bool):
        return lambda c: is_class_of(terms_of(c.representative), pair, ring_q)

    def check_normalized(pair):
        return lambda v: is_det(pscale(terms_of(v), 1, len(pair.S)), pair)

    return check_report, check_class, check_normalized


def build_pencil_det(api, rng: random.Random, workdir: Path) -> list[Op]:
    inv, SeifertPair = api.invariants, api.seifert.SeifertPair
    check_report, check_class, check_normalized = _pencil_checks()
    ops = []
    for i, n in enumerate(PENCIL_SIZES):
        S = int_matrix(rng, n, n)
        inputs = [
            SeifertPair(int_matrix(rng, n, n), int_matrix(rng, n, n), 1, 2),  # random +-3
            SeifertPair(S, transpose(S), 1, 2),            # knot-like N = S^T
            SeifertPair(*singular_pencil(rng, n), 1, 2),   # det(t*S - N) == 0
        ]
        pairs = [inputs[(i + j) % 3] for j in range(3)]
        ops.append(Op("report", n, lambda p=pairs[0]: inv.report(p), check_report(pairs[0])))
        ops.append(Op("z_alexander", n, lambda p=pairs[1]: inv.z_alexander(p),
                      check_class(pairs[1], False)))
        ops.append(Op("q_alexander", n, lambda p=pairs[2]: inv.q_alexander(p),
                      check_class(pairs[2], True)))
        M = int_matrix(rng, n, n)
        middle = SeifertPair(M, transpose(M) if i % 2 else int_matrix(rng, n, n), 3, 5)
        data = inv.NormalizedInput(middle, True)
        ops.append(Op("normalized_alexander", n, lambda d=data: inv.normalized_alexander(d),
                      check_normalized(middle)))
    rng.shuffle(ops)
    return ops


# -- reps-search --------------------------------------------------------------------

REPS_WITNESS_WINDOWS = tuple(range(3, 12))
REPS_WITNESS_PER_WINDOW = 2
REPS_NO_WITNESS_WINDOW = 6
REPS_NO_WITNESS_PER_ROUND = 6


def planted_pass_triple(rng: random.Random, window: int, perturb: bool):
    """(dp, dm, d0) with dp = dm + (t-1)*d0 and search window exactly ``window``.

    All three have a nonzero constant term, so the canonical representatives
    satisfy the identity with zero shifts and the search cost of a witness
    triple depends on the window only.  A perturbed triple moves dp's lowest
    coefficient by an odd amount, so |dp(1)| != |dm(1)| and no unit
    multiples satisfy the identity.
    """
    while True:
        a, b = rng.randint(0, window), rng.randint(0, window)
        dm, d0 = spanned_poly(rng, a), spanned_poly(rng, b)
        dp = padd(dm, pmul(T_MINUS_ONE, d0))
        if 0 not in dp:
            continue
        if perturb:
            low = min(dp)
            dp = bump(dp, low, -1 if dp[low] == 1 else 1)
        if 1 + span_t(dp) + span_t(dm) + span_t(d0) == window:
            return dp, dm, d0


def _check_witness(api, reps: tuple[Poly, Poly, Poly], expect_found: bool):
    def check(w) -> bool:
        if w.found != expect_found:
            return False
        if not w.found:
            return w.shifts == ()
        shifted = [pscale(r, sign, 2 * n) for r, (sign, n) in zip(reps, w.shifts)]
        dp, dm, d0 = shifted
        own = padd(dp, pscale(dm, -1)) == pmul(T_MINUS_ONE, d0)
        LP = api.laurent.LaurentPoly
        return own and api.skein.check_pass_move(*(LP(p) for p in shifted)).holds
    return check


def _reps_op(api, rng: random.Random, window: int, perturb: bool) -> Op:
    LP, BC, Z = api.laurent.LaurentPoly, api.balance.BalancedClass, api.balance.Ring.Z
    triple = [unit_multiple(rng, p) for p in planted_pass_triple(rng, window, perturb)]
    classes = tuple(BC.from_poly(LP(p), Z) for p in triple)
    reps = tuple(terms_of(c.representative) for c in classes)
    return Op(
        "find_representatives.none" if perturb else "find_representatives.found",
        window,
        lambda c=classes: api.skein.find_representatives(*c),
        _check_witness(api, reps, not perturb),
        warm_up=not perturb,
    )


def build_reps_search(api, rng: random.Random, workdir: Path) -> list[Op]:
    ops = [
        _reps_op(api, rng, w, False)
        for w in REPS_WITNESS_WINDOWS
        for _ in range(REPS_WITNESS_PER_WINDOW)
    ]
    ops += [_reps_op(api, rng, REPS_NO_WITNESS_WINDOW, True)
            for _ in range(REPS_NO_WITNESS_PER_ROUND)]
    rng.shuffle(ops)
    return ops


# -- poly-classes -------------------------------------------------------------------

POLY_TERMS = (20, 40, 80, 120, 200, 300, 600)
POLY_FAMILY_TERMS = 600  # m-term polynomials get 600 // m families: similar work per size


def cli_call(api, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(argv)
    return code, buf.getvalue()


def laurent_doc(p: Poly) -> dict:
    return {"kind": "laurent", "terms": {str(k): c for k, c in sorted(p.items())}}


def _poly_family(api, rng: random.Random, m: int, sparse: bool) -> list[Op]:
    """Every poly-classes operation on fresh polynomials of ``m`` terms."""
    LP, bal, inv, skein = api.laurent.LaurentPoly, api.balance, api.invariants, api.skein
    Z, Q = bal.Ring.Z, bal.Ring.Q
    ops = []

    for half in (False, True):
        p = random_poly(rng, m, sparse=sparse, half=half)
        f = LP(p)

        def roundtrip(f=f):
            s = str(f)
            return s, LP.parse(s)

        ops.append(Op("str_parse", m, roundtrip,
                      lambda r, p=p: r[0] == render(p) and terms_of(r[1]) == p))

    base = qcanon(random_poly(rng, m, sparse=sparse, half=False))
    planted = pscale(base, rng.choice((-1, 1)) * rng.randint(2, 9), 2 * rng.randint(-30, 30))
    for ring, want in ((Z, zcanon(planted)), (Q, base)):
        ops.append(Op(f"canonicalize_{ring.value}", m,
                      lambda f=LP(planted), r=ring: bal.canonicalize(f, r),
                      lambda v, want=want: terms_of(v) == want))

    p = random_poly(rng, m, sparse=sparse, half=False)
    for ring, name in ((Z, "z_balanced_eq"), (Q, "q_balanced_eq")):
        mult = rng.choice((-1, 1)) * (1 if ring is Z else rng.randint(2, 9))
        shift = 2 * rng.randint(-30, 30)
        same = pscale(p, mult, shift)
        key = rng.choice(sorted(p))
        other = bump(same, key + shift, 1)
        for g, expect in ((same, True), (other, False)):
            ops.append(Op(name, m,
                          lambda f=LP(p), g=LP(g), n=name: getattr(bal, n)(f, g),
                          lambda v, e=expect: v is e))

    for move, factor, half in (("check_pass_move", T_MINUS_ONE, False),
                               ("check_twist_move", HALF_DIFF, True)):
        dm = random_poly(rng, m, sparse=sparse, half=half)
        d0 = random_poly(rng, m, sparse=sparse, half=half)
        dp = padd(dm, pmul(factor, d0))
        for plus, holds in ((dp, True), (bump(dp, min(dp), 1), False)):
            lhs, rhs = padd(plus, pscale(dm, -1)), pmul(factor, d0)

            def check(v, lhs=lhs, rhs=rhs, holds=holds):
                return (v.holds is holds and terms_of(v.lhs) == lhs
                        and terms_of(v.rhs) == rhs
                        and terms_of(v.residual) == padd(lhs, pscale(rhs, -1)))

            ops.append(Op(move, m,
                          lambda a=LP(plus), b=LP(dm), c=LP(d0), n=move: getattr(skein, n)(a, b, c),
                          check))

    g = random_poly(rng, m, sparse=sparse, half=False)
    ops.append(Op("pseudo_alinking_from_poly", m,
                  lambda f=LP(pmul(T_MINUS_ONE, g)): inv.pseudo_alinking_from_poly(f),
                  lambda v, want=abs(sum(g.values())): v == want))
    g = random_poly(rng, m, sparse=sparse, half=True)
    once, twice = pmul(HALF_DIFF, g), pmul(HALF_DIFF, pmul(HALF_DIFF, g))
    ops.append(Op("first_order_at_one", m,
                  lambda f=LP(once): inv.first_order_at_one(f),
                  lambda v, want=sum(g.values()): v == want))
    ops.append(Op("second_order_at_one", m,
                  lambda f=LP(twice): inv.second_order_at_one(f),
                  lambda v, want=sum(g.values()): v == want))
    return ops


def _cli_ops(api, rng: random.Random, workdir: Path) -> list[Op]:
    """One in-process ``cli.main`` call per subcommand on small documents."""
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def pair_doc(S, N, p, n):
        return {"kind": "seifert_pair", "p": p, "n": n, "S": S, "N": N}

    cases: list[tuple[list[str], list[str] | None]] = []  # None: checked by check_find_reps

    S, N = int_matrix(rng, 3, 3), int_matrix(rng, 3, 3)
    P = pencil_oracle(S, N)
    cases.append((["alex", write("alex.json", pair_doc(S, N, 1, 2))],
                  [f"polynomial: {render(P)}", f"Z class: {render(zcanon(P))}",
                   f"Q class: {render(qcanon(P))}"]))

    S = int_matrix(rng, 3, 3)
    N = transpose(S)
    cases.append((["norm", write("norm.json", pair_doc(S, N, 3, 5))],
                  [f"normalized: {render(pscale(pencil_oracle(S, N), 1, -3))}"]))

    dm, d0 = random_poly(rng, 5, sparse=False, half=False), random_poly(rng, 4, sparse=True, half=False)
    dp = padd(dm, pmul(T_MINUS_ONE, d0))
    triple = {"kind": "triple", "move": "pass", "plus": laurent_doc(dp),
              "minus": laurent_doc(dm), "zero": laurent_doc(d0)}
    rhs = pmul(T_MINUS_ONE, d0)
    cases.append((["skein", write("skein.json", triple)],
                  ["move: pass", f"lhs: {render(rhs)}", f"rhs: {render(rhs)}",
                   "residual: 0", "holds: true"]))

    g = random_poly(rng, 6, sparse=True, half=False)
    cases.append((["alink", write("alink.json", laurent_doc(pmul(T_MINUS_ONE, g)))],
                  [f"pseudo-alinking: {abs(sum(g.values()))}"]))

    S = int_matrix(rng, 3, 3)
    form = [[0, 0, 0], [0, 0, 1], [0, -1, 0]]
    N = [[s - f for s, f in zip(srow, frow)] for srow, frow in zip(S, form)]
    cases.append((["twinkle", write("twinkle.json", pair_doc(S, N, 1, 1))],
                  [f"pseudo-twinkling: {S[0][0]}"]))

    a = [rng.randint(-3, 3) for _ in range(4)]
    b = [rng.randint(-3, 3) for _ in range(4)]
    cases.append((["arf", write("arf.json", {"kind": "arf", "a": a, "b": b})],
                  [f"arf: {sum(x * y for x, y in zip(a, b)) % 2}"]))

    f = positive_low(random_poly(rng, 8, sparse=True, half=False))
    g = pscale(f, rng.randint(2, 9), 2 * rng.randint(-5, 5))
    cases.append((["balanced-eq", "--ring", "Q", render(f), render(g)], ["Q-balanced: true"]))

    f = positive_low(random_poly(rng, 8, sparse=False, half=False))
    cases.append((["canon", "--ring", "Z", render(f)], [f"canonical: {render(zcanon(f))}"]))

    triple_polys = [unit_multiple(rng, p) for p in planted_pass_triple(rng, 4, False)]
    names = ("plus", "minus", "zero")
    doc = {"kind": "triple", "move": "pass",
           **{k: laurent_doc(p) for k, p in zip(names, triple_polys)}}
    reps = [zcanon(p) for p in triple_polys]
    cases.append((["find-reps", write("find-reps.json", doc)], None))

    cases.append((["corpus"], [f"{e.name}: pass" for e in api.corpus.CORPUS]))

    def check_find_reps(r) -> bool:
        code, out = r
        lines = out.splitlines()
        if code != 0 or len(lines) != 4 or lines[0] != "found: true (window 4)":
            return False
        shifted = []
        for line, name, rep in zip(lines[1:], names, reps):
            label, _, factor = line.partition(": multiply by ")
            if label != name or factor[:3] not in ("+t^", "-t^"):
                return False
            shifted.append(pscale(rep, 1 if factor[0] == "+" else -1, 2 * int(factor[3:])))
        return padd(shifted[0], pscale(shifted[1], -1)) == pmul(T_MINUS_ONE, shifted[2])

    ops = []
    for argv, lines in cases:
        check = (check_find_reps if lines is None
                 else lambda r, want=(0, "".join(x + "\n" for x in lines)): r == want)
        ops.append(Op(f"cli.{argv[0]}", 0, lambda argv=argv: cli_call(api, argv), check))
    return ops


def _corpus_op(api) -> Op:
    def check(report) -> bool:
        return report.all_passed and len(report.results) == len(api.corpus.CORPUS)
    return Op("run_corpus", 0, lambda: api.corpus.run_corpus(), check)


def build_poly_classes(api, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for m in POLY_TERMS:
        for _ in range(POLY_FAMILY_TERMS // m):
            for sparse in (False, True):
                ops += _poly_family(api, rng, m, sparse)
    ops += _cli_ops(api, rng, workdir) + [_corpus_op(api)]
    rng.shuffle(ops)
    return ops


# -- probe for the traced run ------------------------------------------------------


def build_probe(api, rng: random.Random, workdir: Path) -> list[Op]:
    """One small call per traced function and size bucket.

    The traced run adds these after the workload's own passes, so every
    per-layer metric has samples on every workload; they are left out of
    the workload's self-time shares and counts.
    """
    inv, SeifertPair = api.invariants, api.seifert.SeifertPair
    check_report, _, check_normalized = _pencil_checks()
    ops = []
    for n in (4, 8, 12, 16, 20):
        pair = SeifertPair(int_matrix(rng, n, n), int_matrix(rng, n, n), 1, 2)
        ops.append(Op("report", n, lambda p=pair: inv.report(p), check_report(pair)))
    middle = SeifertPair(int_matrix(rng, 6, 6), int_matrix(rng, 6, 6), 3, 5)
    data = inv.NormalizedInput(middle, True)
    ops.append(Op("normalized_alexander", 6, lambda: inv.normalized_alexander(data),
                  check_normalized(middle)))
    ops += [_reps_op(api, rng, w, False) for w in (3, 5, 7, 9, 11)]
    ops += _poly_family(api, rng, 20, False)
    ops += _cli_ops(api, rng, workdir) + [_corpus_op(api)]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pencil-det",
            "Laurent Bareiss det does nearly all the work (dominant: seifert.det), no search: "
            "report, z/q_alexander, normalized_alexander on +-3, knot-like, singular pairs, n=4..20",
            4,
            build_pencil_det,
        ),
        Workload(
            "reps-search",
            "Only the search works (dominant: skein.find_representatives): planted pass-move "
            "triples, witnesses at W=3..11 exit early, no-witness ones at W=6 scan the window",
            2,
            build_reps_search,
        ),
        Workload(
            "poly-classes",
            "Few large operands, no det or search (dominant: laurent, balance): 20..600-term "
            "polys through str/parse, canonicalize, balanced_eq, moves, orders; CLI and corpus",
            1,
            build_poly_classes,
        ),
    )
}
