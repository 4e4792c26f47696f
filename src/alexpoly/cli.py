"""Command-line interface.

Every command reads the JSON document format (see documents.py) or a
polynomial in the canonical text grammar, and prints either plain text
or, with --json, machine-readable JSON.  Exit codes: 0 success / the
identity holds, 1 the identity fails (or no unit multiples satisfy it),
2 bad input, 3 an operation precondition was violated.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .balance import BalancedClass, Ring, canonicalize, q_balanced_eq, z_balanced_eq
from .corpus import run_corpus
from .documents import (
    Document,
    Triple,
    laurent_to_doc,
    load_document,
    require_halfexp_cap,
)
from .errors import AlexpolyError, InvalidDocument
from .invariants import (
    ArfData,
    NormalizedInput,
    arf,
    normalized_alexander,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
    pseudo_twinkling_from_pair,
    report,
)
from .laurent import LaurentPoly
from .seifert import SeifertPair
from .skein import check_pass_move, check_twist_move, find_representatives, search_window

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path: str, kinds: tuple[str, ...]) -> Document:
    doc = load_document(path)
    if doc.kind not in kinds:
        raise InvalidDocument(
            f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}"
        )
    return doc


def _cmd_alex(args) -> int:
    pair = _load(args.file, ("seifert_pair",)).value
    result = report(pair)
    _emit(
        args,
        {
            "polynomial": laurent_to_doc(result.polynomial),
            "z_class": laurent_to_doc(result.class_z.representative),
            "q_class": laurent_to_doc(result.class_q.representative),
        },
        [
            f"polynomial: {result.polynomial}",
            f"Z class: {result.class_z.representative}",
            f"Q class: {result.class_q.representative}",
        ],
    )
    return EXIT_OK


def _cmd_norm(args) -> int:
    pair = _load(args.file, ("seifert_pair",)).value
    data = NormalizedInput(pair, middle_condition=args.middle_injective == "true")
    value = normalized_alexander(data)
    _emit(args, {"normalized": laurent_to_doc(value)}, [f"normalized: {value}"])
    return EXIT_OK


def _verdict_output(args, move: str, verdict) -> int:
    _emit(
        args,
        {
            "move": move,
            "holds": verdict.holds,
            "lhs": laurent_to_doc(verdict.lhs),
            "rhs": laurent_to_doc(verdict.rhs),
            "residual": laurent_to_doc(verdict.residual),
        },
        [
            f"move: {move}",
            f"lhs: {verdict.lhs}",
            f"rhs: {verdict.rhs}",
            f"residual: {verdict.residual}",
            f"holds: {'true' if verdict.holds else 'false'}",
        ],
    )
    return EXIT_OK if verdict.holds else EXIT_FAILED


def _cmd_skein(args) -> int:
    triple: Triple = _load(args.file, ("triple",)).value
    check = check_pass_move if triple.move == "pass" else check_twist_move
    return _verdict_output(args, triple.move, check(triple.plus, triple.minus, triple.zero))


def _cmd_alink(args) -> int:
    doc = _load(args.file, ("laurent", "seifert_pair"))
    if doc.kind == "laurent":
        value = pseudo_alinking_from_poly(doc.value)
    else:
        value = pseudo_alinking_from_pair(doc.value)
    _emit(args, {"pseudo_alinking": value}, [f"pseudo-alinking: {value}"])
    return EXIT_OK


def _cmd_twinkle(args) -> int:
    pair: SeifertPair = _load(args.file, ("seifert_pair",)).value
    value = pseudo_twinkling_from_pair(pair)
    _emit(args, {"pseudo_twinkling": value}, [f"pseudo-twinkling: {value}"])
    return EXIT_OK


def _cmd_arf(args) -> int:
    data: ArfData = _load(args.file, ("arf",)).value
    value = arf(data)
    _emit(args, {"arf": value}, [f"arf: {value}"])
    return EXIT_OK


def _parse_poly(text: str) -> LaurentPoly:
    try:
        f = LaurentPoly.parse(text)
    except ValueError as exc:
        raise InvalidDocument(str(exc)) from None
    if f:
        require_halfexp_cap(f.min_halfexp)
        require_halfexp_cap(f.max_halfexp)
    return f


def _cmd_balanced_eq(args) -> int:
    ring = Ring[args.ring]
    f, g = _parse_poly(args.f), _parse_poly(args.g)
    equal = (z_balanced_eq if ring is Ring.Z else q_balanced_eq)(f, g)
    _emit(
        args,
        {"ring": ring.value, "balanced": equal},
        [f"{ring.value}-balanced: {'true' if equal else 'false'}"],
    )
    return EXIT_OK if equal else EXIT_FAILED


def _cmd_canon(args) -> int:
    ring = Ring[args.ring]
    value = canonicalize(_parse_poly(args.f), ring)
    _emit(args, {"canonical": laurent_to_doc(value)}, [f"canonical: {value}"])
    return EXIT_OK


def _cmd_find_reps(args) -> int:
    triple: Triple = _load(args.file, ("triple",)).value
    if triple.move != "pass":
        raise InvalidDocument("find-reps needs a pass-move triple")
    classes = [
        BalancedClass.from_poly(f, Ring.Z)
        for f in (triple.plus, triple.minus, triple.zero)
    ]
    witness = find_representatives(*classes)
    window = search_window(*classes)
    payload = {
        "found": witness.found,
        "window": window,
        "shifts": [{"sign": s, "exponent": n} for s, n in witness.shifts],
    }
    if witness.found:
        lines = [f"found: true (window {window})"]
        for label, (sign, n) in zip(("plus", "minus", "zero"), witness.shifts):
            lines.append(f"{label}: multiply by {'+' if sign > 0 else '-'}t^{n}")
    else:
        lines = [
            f"found: false (no unit multiples satisfy the pass-move identity;"
            f" the window {window} is complete)"
        ]
    _emit(args, payload, lines)
    return EXIT_OK if witness.found else EXIT_FAILED


def _cmd_corpus(args) -> int:
    corpus_report = run_corpus()
    payload = {
        "all_passed": corpus_report.all_passed,
        "entries": [
            {"name": r.name, "passed": r.passed, "failures": list(r.failures)}
            for r in corpus_report.results
        ],
    }
    lines = []
    for r in corpus_report.results:
        lines.append(f"{r.name}: {'pass' if r.passed else 'FAIL'}")
        lines.extend(f"  {failure}" for failure in r.failures)
    _emit(args, payload, lines)
    return EXIT_OK if corpus_report.all_passed else EXIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    The parser holds each command's handler; a handler looks up what it
    calls when it runs, so a patched module global still takes effect.
    Callers must not change the parser they get.
    """
    parser = argparse.ArgumentParser(
        prog="alexpoly",
        description="Exact Seifert-matrix invariants and skein-identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(handler=handler)
        return p

    p = add("alex", _cmd_alex, "Z and Q Alexander classes of a Seifert pair")
    p.add_argument("file")

    p = add("norm", _cmd_norm, "normalized Alexander polynomial of a Seifert pair")
    p.add_argument("file")
    p.add_argument(
        "--middle-injective",
        choices=("true", "false"),
        default="true",
        help="whether the middle Alexander matrix induces an injective map",
    )

    p = add("skein", _cmd_skein, "check the pass- or twist-move identity of a triple")
    p.add_argument("file")

    p = add("alink", _cmd_alink, "pseudo-alinking number from a polynomial or pair")
    p.add_argument("file")

    p = add("twinkle", _cmd_twinkle, "pseudo-twinkling number of a Seifert pair")
    p.add_argument("file")

    p = add("arf", _cmd_arf, "Arf invariant from diagonal Seifert pairings")
    p.add_argument("file")

    p = add("balanced-eq", _cmd_balanced_eq, "test balanced equivalence of two polynomials")
    p.add_argument("--ring", choices=("Z", "Q"), required=True)
    p.add_argument("f")
    p.add_argument("g")

    p = add("canon", _cmd_canon, "canonical balanced-class representative")
    p.add_argument("--ring", choices=("Z", "Q"), required=True)
    p.add_argument("f")

    p = add("find-reps", _cmd_find_reps, "search unit multiples satisfying the pass move")
    p.add_argument("file")

    add("corpus", _cmd_corpus, "run every bundled example and report pass/fail")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    argv defaults to ``sys.argv[1:]``; bad usage raises ``SystemExit(2)``
    from argparse.  The parser is built once per process, and every call
    parses into a fresh namespace, so ``main`` may be called repeatedly in
    one process and one call's options never carry over to the next.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidDocument, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AlexpolyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
