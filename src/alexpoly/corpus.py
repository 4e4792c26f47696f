"""Bundled worked examples with known expected values.

Each entry carries its input data (Seifert pairs and/or polynomials) and
a check that recomputes the published values from scratch and yields
one message per failed relation.  run_corpus evaluates every entry and
reports pass/fail per entry name; the corpus is the regression anchor
for the whole library, so entries assert the strongest relations the
data satisfies (duality and intersection shape, not just determinant
values): the twist entry asks check_duality of each of its pairs.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .balance import BalancedClass, Ring, q_balanced_eq, z_balanced_eq
from .errors import AlexpolyError
from .invariants import (
    NormalizedInput,
    normalized_alexander,
    pseudo_twinkling_from_pair,
    second_order_at_one,
)
from .laurent import LaurentPoly, ONE, T, ZERO
from .record import _Record
from .seifert import SeifertPair, check_duality, intersection_form, pencil_det
from .skein import check_pass_move, check_twist_move, find_representatives


class CorpusEntry(_Record):
    name: str
    description: str
    check: Callable[[CorpusEntry], Iterable[str]]
    pairs: tuple[tuple[str, SeifertPair], ...]
    polys: tuple[tuple[str, LaurentPoly], ...]

    def __init__(
        self,
        name: str,
        description: str,
        check: Callable[[CorpusEntry], Iterable[str]],
        pairs: tuple[tuple[str, SeifertPair], ...] = (),
        polys: tuple[tuple[str, LaurentPoly], ...] = (),
    ):
        self.__dict__.update(name=name, description=description, check=check, pairs=pairs, polys=polys)

    def pair(self, label: str) -> SeifertPair:
        return dict(self.pairs)[label]

    def poly(self, label: str) -> LaurentPoly:
        return dict(self.polys)[label]


class EntryResult(_Record):
    name: str
    failures: tuple[str, ...]

    def __init__(self, name: str, failures: tuple[str, ...]):
        self.__dict__.update(name=name, failures=failures)

    @property
    def passed(self) -> bool:
        return not self.failures


class CorpusReport(_Record):
    results: tuple[EntryResult, ...]

    def __init__(self, results: tuple[EntryResult, ...]):
        self.__dict__.update(results=results)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# -- checks -------------------------------------------------------------------


def _check_pass_triple(entry: CorpusEntry) -> Iterator[str]:
    verdict = check_pass_move(entry.poly("plus"), entry.poly("minus"), entry.poly("zero"))
    if not verdict.holds:
        yield f"pass-move residual {verdict.residual}"


def _check_intro_reps(entry: CorpusEntry) -> Iterator[str]:
    classes = [
        BalancedClass.from_poly(entry.poly(label), Ring.Z)
        for label in ("plus", "minus", "zero")
    ]
    witness = find_representatives(*classes)
    if not witness.found:
        yield "no representative witness found"
        return
    shifted = [
        c.representative.shift(2 * n) * sign
        for c, (sign, n) in zip(classes, witness.shifts)
    ]
    if not check_pass_move(*shifted).holds:
        yield "witness does not satisfy the identity"


def _check_mississippi_classes(entry: CorpusEntry) -> Iterator[str]:
    labels = ("plus", "minus", "plus2", "minus2")
    expected = (4 * T - 4, 3 * T - 3, 2 * T - 2, T - 1)
    dets = []
    for label, want in zip(labels, expected):
        pair = entry.pair(label)
        if any(v for row in intersection_form(pair) for v in row):
            yield f"{label}: intersection form is nonzero"
        d = pencil_det(pair)
        dets.append(d)
        if not z_balanced_eq(d, want):
            yield f"{label}: integer class is {d}, expected {want}"
    for i in range(len(dets)):
        for j in range(i + 1, len(dets)):
            if z_balanced_eq(dets[i], dets[j]):
                yield f"{labels[i]}/{labels[j]}: unexpectedly Z-balanced"
            if not q_balanced_eq(dets[i], dets[j]):
                yield f"{labels[i]}/{labels[j]}: not Q-balanced"


def _check_mississippi_triples(entry: CorpusEntry) -> Iterator[str]:
    d0 = entry.poly("zero")
    for plus, minus in (("plus", "minus"), ("plus2", "minus2")):
        dp = pencil_det(entry.pair(plus))
        dm = pencil_det(entry.pair(minus))
        verdict = check_pass_move(dp, dm, d0)
        if not verdict.holds:
            yield f"({plus}, {minus}): pass-move residual {verdict.residual}"


def _check_twist_triple(entry: CorpusEntry) -> Iterator[str]:
    values = {}
    for label in ("plus", "minus", "zero"):
        pair = entry.pair(label)
        # p = n = 1 is its own complementary degree, and (-1)^(p*n+1) = +1:
        # the pair is dual to itself exactly when N is the transpose of S.
        if not check_duality(pair, pair):
            yield f"{label}: negative matrix is not the transpose of the positive one"
        values[label] = normalized_alexander(NormalizedInput(pair, middle_condition=True))
        want = entry.poly(f"{label}_expected")
        if values[label] != want:
            yield f"{label}: normalized polynomial {values[label]}, expected {want}"
    verdict = check_twist_move(values["plus"], values["minus"], values["zero"])
    if not verdict.holds:
        yield f"twist-move residual {verdict.residual}"


def _check_twinkle(entry: CorpusEntry) -> Iterator[str]:
    diff = entry.poly("plus") - entry.poly("minus")
    from_poly = second_order_at_one(diff)
    from_pair = pseudo_twinkling_from_pair(entry.pair("zero"))
    if not from_poly == from_pair == -1:
        yield f"second-order value {from_poly} vs pairing {from_pair}, expected -1"


# -- the bundled data ---------------------------------------------------------


_MISSISSIPPI = tuple(
    (label, SeifertPair([[s]], [[s]], 1, 2))
    for label, s in (("plus", 4), ("minus", 3), ("plus2", 2), ("minus2", 1))
)

_V_PLUS = SeifertPair([[0, -1], [0, -1]], [[0, 0], [-1, -1]], 1, 1)
_V_MINUS = SeifertPair([[-1, -1], [0, -1]], [[-1, 0], [-1, -1]], 1, 1)
_V_ZERO = SeifertPair([[-1]], [[-1]], 1, 1)

_NORM_PLUS = ONE
_NORM_MINUS = T + LaurentPoly.t_power(-1) - 1
_NORM_ZERO = -LaurentPoly.half_power(1) + LaurentPoly.half_power(-1)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="intro-triple",
        description="pass-move identity for the 2-knot triple with polynomials t, 2t-1, -1",
        check=_check_pass_triple,
        polys=(("plus", T), ("minus", 2 * T - 1), ("zero", -ONE)),
    ),
    CorpusEntry(
        name="intro-reps",
        description="representative witness for the integer classes of t, 2t-1, 1",
        check=_check_intro_reps,
        polys=(("plus", T), ("minus", 2 * T - 1), ("zero", ONE)),
    ),
    CorpusEntry(
        name="mississippi-classes",
        description="1x1 pairs (4),(3),(2),(1): distinct integer classes, one rational class",
        check=_check_mississippi_classes,
        pairs=_MISSISSIPPI,
    ),
    CorpusEntry(
        name="mississippi-triples",
        description="pass-move identities (4(t-1), 3(t-1), 1) and (2(t-1), t-1, 1)",
        check=_check_mississippi_triples,
        pairs=_MISSISSIPPI,
        polys=(("zero", ONE),),
    ),
    CorpusEntry(
        name="aa-triple",
        description="pass-move identity for determinants t^2, t^2, 0",
        check=_check_pass_triple,
        polys=(("plus", T * T), ("minus", T * T), ("zero", ZERO)),
    ),
    CorpusEntry(
        name="aa2-triple",
        description="pass-move identity for determinants t, 1, 1 (empty-matrix case)",
        check=_check_pass_triple,
        polys=(("plus", T), ("minus", ONE), ("zero", ONE)),
    ),
    CorpusEntry(
        name="osaka2-twist",
        description="twist-move triple of middle-dimension pairs and its normalized polynomials",
        check=_check_twist_triple,
        pairs=(("plus", _V_PLUS), ("minus", _V_MINUS), ("zero", _V_ZERO)),
        polys=(
            ("plus_expected", _NORM_PLUS),
            ("minus_expected", _NORM_MINUS),
            ("zero_expected", _NORM_ZERO),
        ),
    ),
    CorpusEntry(
        name="osaka2-twinkle",
        description="second-order value of the twist difference equals the pairing s(tau, tau) = -1",
        check=_check_twinkle,
        pairs=(("zero", _V_ZERO),),
        polys=(("plus", _NORM_PLUS), ("minus", _NORM_MINUS)),
    ),
)


def run_corpus(entries: tuple[CorpusEntry, ...] = CORPUS) -> CorpusReport:
    """Evaluate every entry; an entry fails on any failed check or error."""
    results = []
    for entry in entries:
        try:
            failures = tuple(entry.check(entry))
        except AlexpolyError as exc:
            failures = (f"{type(exc).__name__}: {exc}",)
        results.append(EntryResult(entry.name, failures))
    return CorpusReport(tuple(results))
