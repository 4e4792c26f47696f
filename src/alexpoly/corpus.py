"""Bundled worked examples with known expected values.

Each entry carries its input data (Seifert pairs and/or polynomials) and
a check that recomputes the published values from scratch.  run_corpus
evaluates every entry and reports pass/fail per entry name; the corpus
is the regression anchor for the whole library, so entries assert the
strongest relations the data satisfies (duality and intersection shape,
not just determinant values).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .balance import BalancedClass, Ring, q_balanced_eq, z_balanced_eq
from .errors import AlexpolyError
from .invariants import (
    NormalizedInput,
    normalized_alexander,
    pseudo_twinkling_from_pair,
    second_order_at_one,
    z_alexander,
)
from .laurent import LaurentPoly, ONE, T, ZERO
from .seifert import SeifertPair, intersection_form, pencil_det, transpose
from .skein import check_pass_move, check_twist_move, find_representatives


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    check: Callable[[CorpusEntry], list[str]]
    pairs: tuple[tuple[str, SeifertPair], ...] = ()
    polys: tuple[tuple[str, LaurentPoly], ...] = ()

    def pair(self, label: str) -> SeifertPair:
        return dict(self.pairs)[label]

    def poly(self, label: str) -> LaurentPoly:
        return dict(self.polys)[label]


@dataclass(frozen=True)
class EntryResult:
    name: str
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[EntryResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _expect(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# -- checks -------------------------------------------------------------------


def _check_pass_triple(entry: CorpusEntry) -> list[str]:
    verdict = check_pass_move(entry.poly("plus"), entry.poly("minus"), entry.poly("zero"))
    return [] if verdict.holds else [f"pass-move residual {verdict.residual}"]


def _check_intro_reps(entry: CorpusEntry) -> list[str]:
    failures: list[str] = []
    classes = [
        BalancedClass.from_poly(entry.poly(label), Ring.Z)
        for label in ("plus", "minus", "zero")
    ]
    witness = find_representatives(*classes)
    _expect(failures, witness.found, "no representative witness found")
    if witness.found:
        shifted = [
            c.representative.shift(2 * n) * sign
            for c, (sign, n) in zip(classes, witness.shifts)
        ]
        _expect(
            failures,
            check_pass_move(*shifted).holds,
            "witness does not satisfy the identity",
        )
    return failures


def _check_mississippi_classes(entry: CorpusEntry) -> list[str]:
    failures: list[str] = []
    labels = ("plus", "minus", "plus2", "minus2")
    expected = (4 * T - 4, 3 * T - 3, 2 * T - 2, T - 1)
    dets = []
    for label, want in zip(labels, expected):
        pair = entry.pair(label)
        _expect(
            failures,
            all(v == 0 for row in intersection_form(pair) for v in row),
            f"{label}: intersection form is nonzero",
        )
        d = pencil_det(pair)
        dets.append(d)
        _expect(
            failures,
            z_alexander(pair) == BalancedClass.from_poly(want, Ring.Z),
            f"{label}: integer class is {d}, expected {want}",
        )
    for i in range(len(dets)):
        for j in range(i + 1, len(dets)):
            _expect(
                failures,
                not z_balanced_eq(dets[i], dets[j]),
                f"{labels[i]}/{labels[j]}: unexpectedly Z-balanced",
            )
            _expect(
                failures,
                q_balanced_eq(dets[i], dets[j]),
                f"{labels[i]}/{labels[j]}: not Q-balanced",
            )
    return failures


def _check_mississippi_triples(entry: CorpusEntry) -> list[str]:
    failures: list[str] = []
    d0 = entry.poly("zero")
    for plus, minus in (("plus", "minus"), ("plus2", "minus2")):
        dp = pencil_det(entry.pair(plus))
        dm = pencil_det(entry.pair(minus))
        verdict = check_pass_move(dp, dm, d0)
        _expect(
            failures,
            verdict.holds,
            f"({plus}, {minus}): pass-move residual {verdict.residual}",
        )
    return failures


def _check_twist_triple(entry: CorpusEntry) -> list[str]:
    failures: list[str] = []
    values = {}
    for label in ("plus", "minus", "zero"):
        pair = entry.pair(label)
        _expect(
            failures,
            pair.N == transpose(pair.S),
            f"{label}: negative matrix is not the transpose of the positive one",
        )
        values[label] = normalized_alexander(NormalizedInput(pair, middle_condition=True))
        want = entry.poly(f"{label}_expected")
        _expect(
            failures,
            values[label] == want,
            f"{label}: normalized polynomial {values[label]}, expected {want}",
        )
    verdict = check_twist_move(values["plus"], values["minus"], values["zero"])
    _expect(failures, verdict.holds, f"twist-move residual {verdict.residual}")
    return failures


def _check_twinkle(entry: CorpusEntry) -> list[str]:
    failures: list[str] = []
    diff = entry.poly("plus") - entry.poly("minus")
    from_poly = second_order_at_one(diff)
    from_pair = pseudo_twinkling_from_pair(entry.pair("zero"))
    _expect(
        failures,
        from_poly == from_pair == -1,
        f"second-order value {from_poly} vs pairing {from_pair}, expected -1",
    )
    return failures


# -- the bundled data ---------------------------------------------------------


def _pair1(s: int, n: int, p: int = 1, dim: int = 2) -> SeifertPair:
    return SeifertPair([[s]], [[n]], p, dim)


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
        description="representative search on the integer classes of t, 2t-1, 1",
        check=_check_intro_reps,
        polys=(("plus", T), ("minus", 2 * T - 1), ("zero", ONE)),
    ),
    CorpusEntry(
        name="mississippi-classes",
        description="1x1 pairs (4),(3),(2),(1): distinct integer classes, one rational class",
        check=_check_mississippi_classes,
        pairs=(
            ("plus", _pair1(4, 4)),
            ("minus", _pair1(3, 3)),
            ("plus2", _pair1(2, 2)),
            ("minus2", _pair1(1, 1)),
        ),
    ),
    CorpusEntry(
        name="mississippi-triples",
        description="pass-move identities (4(t-1), 3(t-1), 1) and (2(t-1), t-1, 1)",
        check=_check_mississippi_triples,
        pairs=(
            ("plus", _pair1(4, 4)),
            ("minus", _pair1(3, 3)),
            ("plus2", _pair1(2, 2)),
            ("minus2", _pair1(1, 1)),
        ),
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
        results.append(EntryResult(entry.name, not failures, failures))
    return CorpusReport(tuple(results))
