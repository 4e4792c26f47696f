"""Command-line interface.

Every command reads the JSON document format (see documents.py) or a
polynomial in the canonical text grammar, and prints either plain text
or, with --json, machine-readable JSON.  Exit codes: 0 success / the
identity holds, 1 the identity fails (or no unit multiples satisfy it),
2 bad input, 3 an operation precondition was violated.

A command's handler prints nothing: it returns its exit code and its
result both as one JSON object and as text lines, and main alone prints
one of them: the object with --json (keys sorted, a LaurentPoly value as
its laurent document), else the lines.  Most commands state their result
once, as (JSON key, text label, value) fields, and _show gives both
forms of them: each line reads ``label: value`` in the order given, a
polynomial in the text grammar and a bool as true/false, and a field
whose label is None goes to the object only.  find-reps and corpus
report sentences, not fields, so they build both forms themselves.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable

from .balance import BalancedClass, Ring, canonicalize
from .corpus import run_corpus
from .documents import laurent_from_text, laurent_to_doc, load_document
from .errors import AlexpolyError, InvalidDocument
from .invariants import (
    NormalizedInput,
    arf,
    normalized_alexander,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
    pseudo_twinkling_from_pair,
    report,
)
from .laurent import LaurentPoly
from .skein import MOVES, Triple, find_representatives, search_window

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

# What a handler returns: the exit code, the JSON object and the text lines.
_Result = tuple[int, dict, Iterable[str]]


def _show(code: int, *fields: tuple[str, str | None, object]) -> _Result:
    """The result given as (JSON key, text label, value) fields, in both forms.

    Only the form main prints is rendered: the lines are made as it reads
    them, and its json.dumps writes a LaurentPoly as a laurent document.
    Either rendering of a 100,001-term polynomial takes about 38 ms, a
    fifth of canon on it (2-vCPU VM).
    """
    lines = (
        f"{label}: {str(value).lower() if isinstance(value, bool) else value}"
        for _, label, value in fields
        if label is not None
    )
    return code, {key: value for key, _, value in fields}, lines


def _cmd_alex(args) -> _Result:
    result = report(load_document(args.file, ("seifert_pair",)))
    return _show(
        EXIT_OK,
        ("polynomial", "polynomial", result.polynomial),
        ("z_class", "Z class", result.class_z.representative),
        ("q_class", "Q class", result.class_q.representative),
    )


def _cmd_norm(args) -> _Result:
    pair = load_document(args.file, ("seifert_pair",))
    try:
        data = NormalizedInput(pair, middle_condition=args.middle_injective == "true")
    except ValueError as exc:  # p and n come from the file, so name it
        raise InvalidDocument(f"{args.file}: {exc}") from None
    return _show(EXIT_OK, ("normalized", "normalized", normalized_alexander(data)))


def _cmd_skein(args) -> _Result:
    triple: Triple = load_document(args.file, ("triple",))
    verdict = MOVES[triple.move](triple.plus, triple.minus, triple.zero)
    return _show(
        EXIT_OK if verdict.holds else EXIT_FAILED,
        ("move", "move", triple.move),
        ("lhs", "lhs", verdict.lhs),
        ("rhs", "rhs", verdict.rhs),
        ("residual", "residual", verdict.residual),
        ("holds", "holds", verdict.holds),
    )


def _cmd_alink(args) -> _Result:
    source = load_document(args.file, ("laurent", "seifert_pair"))
    if isinstance(source, LaurentPoly):
        value = pseudo_alinking_from_poly(source)
    else:
        value = pseudo_alinking_from_pair(source)
    return _show(EXIT_OK, ("pseudo_alinking", "pseudo-alinking", value))


def _cmd_twinkle(args) -> _Result:
    value = pseudo_twinkling_from_pair(load_document(args.file, ("seifert_pair",)))
    return _show(EXIT_OK, ("pseudo_twinkling", "pseudo-twinkling", value))


def _cmd_arf(args) -> _Result:
    return _show(EXIT_OK, ("arf", "arf", arf(load_document(args.file, ("arf",)))))


def _cmd_balanced_eq(args) -> _Result:
    ring = Ring[args.ring]
    f, g = laurent_from_text(args.f), laurent_from_text(args.g)
    equal = canonicalize(f, ring) == canonicalize(g, ring)
    return _show(
        EXIT_OK if equal else EXIT_FAILED,
        ("ring", None, ring.value),
        ("balanced", f"{ring.value}-balanced", equal),
    )


def _cmd_canon(args) -> _Result:
    value = canonicalize(laurent_from_text(args.f), Ring[args.ring])
    return _show(EXIT_OK, ("canonical", "canonical", value))


def _cmd_find_reps(args) -> _Result:
    triple: Triple = load_document(args.file, ("triple",))
    if triple.move != "pass":
        raise InvalidDocument(f"{args.file}: find-reps needs a pass-move triple")
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
    return EXIT_OK if witness.found else EXIT_FAILED, payload, lines


def _cmd_corpus(args) -> _Result:
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
    return EXIT_OK if corpus_report.all_passed else EXIT_FAILED, payload, lines


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

    def add(name, handler, help_text, *positionals, ring=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if ring:
            p.add_argument("--ring", choices=("Z", "Q"), required=True)
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(handler=handler)
        return p

    add("alex", _cmd_alex, "Z and Q Alexander classes of a Seifert pair", "file")
    add(
        "norm", _cmd_norm, "normalized Alexander polynomial of a Seifert pair", "file"
    ).add_argument(
        "--middle-injective",
        choices=("true", "false"),
        default="true",
        help="whether the middle Alexander matrix induces an injective map",
    )
    add("skein", _cmd_skein, "check the pass- or twist-move identity of a triple", "file")
    add("alink", _cmd_alink, "pseudo-alinking number from a polynomial or pair", "file")
    add("twinkle", _cmd_twinkle, "pseudo-twinkling number of a Seifert pair", "file")
    add("arf", _cmd_arf, "Arf invariant from diagonal Seifert pairings", "file")
    add(
        "balanced-eq", _cmd_balanced_eq, "test balanced equivalence of two polynomials",
        "f", "g", ring=True,
    )
    add("canon", _cmd_canon, "canonical balanced-class representative", "f", ring=True)
    add("find-reps", _cmd_find_reps, "unit multiples satisfying the pass move", "file")
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
        code, payload, lines = args.handler(args)
        if args.json:
            print(json.dumps(payload, sort_keys=True, default=laurent_to_doc))
        else:
            for line in lines:
                print(line)
        return code
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
