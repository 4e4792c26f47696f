import contextlib
import copy
import importlib.util
import io
import json
import os
import pkgutil
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexpoly
from alexpoly import LaurentPoly, Ring, SeifertPair, T, canonicalize, check_pass_move
from alexpoly.cli import main
from alexpoly.documents import (
    MAX_DOCUMENT_BYTES,
    MAX_HALF_EXPONENT,
    MAX_MATRIX_DIM,
    MAX_MATRIX_ENTRY,
    _KINDS,
)
from conftest import BAD_MOVES, move_triple, random_int_matrix

PAIR_4 = {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[4]], "N": [[4]]}
V_ZERO = {"kind": "seifert_pair", "p": 1, "n": 1, "S": [[-1]], "N": [[-1]]}
INTRO_TRIPLE = {
    "kind": "triple",
    "move": "pass",
    "plus": {"kind": "laurent", "terms": {"2": 1}},
    "minus": {"kind": "laurent", "terms": {"0": -1, "2": 2}},
    "zero": {"kind": "laurent", "terms": {"0": -1}},
}
TWIST_TRIPLE = {
    "kind": "triple",
    "move": "twist",
    "plus": {"kind": "laurent", "terms": {"0": 1}},
    "minus": {"kind": "laurent", "terms": {"-2": 1, "0": -1, "2": 1}},
    "zero": {"kind": "laurent", "terms": {"-1": 1, "1": -1}},
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_alex(tmp_path, capsys):
    assert main(["alex", write(tmp_path, "p.json", PAIR_4)]) == 0
    out = capsys.readouterr().out
    assert "Z class: -4 + 4*t^1" in out
    assert "Q class: -1 + 1*t^1" in out


def test_alex_json(tmp_path, capsys):
    assert main(["alex", "--json", write(tmp_path, "p.json", PAIR_4)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z_class"] == {"kind": "laurent", "terms": {"0": -4, "2": 4}}
    assert payload["q_class"] == {"kind": "laurent", "terms": {"0": -1, "2": 1}}


def test_norm(tmp_path, capsys):
    assert main(["norm", write(tmp_path, "p.json", V_ZERO)]) == 0
    assert "1*t^(-1/2) + -1*t^(1/2)" in capsys.readouterr().out


def test_norm_middle_flag(tmp_path, capsys):
    path = write(tmp_path, "p.json", V_ZERO)
    assert main(["norm", path, "--middle-injective", "false"]) == 0
    assert "normalized: 0" in capsys.readouterr().out


def test_norm_rejects_wrong_dimensions(tmp_path):
    path = write(tmp_path, "p.json", PAIR_4)
    assert _run(["norm", path]) == (
        2, "", f"error: {path}: need n = 4k+1 and p = 2k+1, got p=1, n=2\n"
    )


def test_skein_pass(tmp_path, capsys):
    assert main(["skein", write(tmp_path, "t.json", INTRO_TRIPLE)]) == 0
    assert "holds: true" in capsys.readouterr().out


def test_skein_twist_json(tmp_path, capsys):
    assert main(["skein", "--json", write(tmp_path, "t.json", TWIST_TRIPLE)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["residual"] == {"kind": "laurent", "terms": {}}


def test_skein_failing_exit(tmp_path, capsys):
    broken = dict(INTRO_TRIPLE)
    broken["zero"] = {"kind": "laurent", "terms": {"0": 5}}
    assert main(["skein", write(tmp_path, "t.json", broken)]) == 1
    assert "holds: false" in capsys.readouterr().out


def test_alink_from_poly(tmp_path, capsys):
    doc = {"kind": "laurent", "terms": {"0": -4, "2": 4}}
    assert main(["alink", write(tmp_path, "f.json", doc)]) == 0
    assert "pseudo-alinking: 4" in capsys.readouterr().out


def test_alink_from_pair(tmp_path, capsys):
    assert main(["alink", "--json", write(tmp_path, "p.json", PAIR_4)]) == 0
    assert json.loads(capsys.readouterr().out) == {"pseudo_alinking": 4}


def test_alink_precondition_exit(tmp_path, capsys):
    doc = {"kind": "laurent", "terms": {"0": 1, "2": 1}}
    assert main(["alink", write(tmp_path, "f.json", doc)]) == 3
    assert "NotDivisible" in capsys.readouterr().err


def test_twinkle(tmp_path, capsys):
    assert main(["twinkle", write(tmp_path, "p.json", V_ZERO)]) == 0
    assert "pseudo-twinkling: -1" in capsys.readouterr().out


def test_twinkle_precondition_exit(tmp_path, capsys):
    bad = {"kind": "seifert_pair", "p": 1, "n": 1, "S": [[1]], "N": [[0]]}
    assert main(["twinkle", write(tmp_path, "p.json", bad)]) == 3


# The 2x2 alinking block pair with value 3 and the 3x3 twinkling block pair
# with value 2 from test_invariants.py, moved off block shape: the first by
# S -> P*S*Q^t, N -> P*N*Q^t with P = [[1, 2], [0, 1]], Q = [[1, 0], [-1, 1]],
# the second by the congruence with P = Q = [[1, 1, 0], [0, 1, 0], [1, 0, 1]].
ALINK_MOVED = {
    "kind": "seifert_pair", "p": 1, "n": 2, "S": [[5, -3], [1, 0]], "N": [[5, -5], [1, -1]]
}
TWINKLE_MOVED = {
    "kind": "seifert_pair", "p": 1, "n": 1,
    "S": [[2, 0, 3], [0, 0, 1], [2, 0, 2]], "N": [[2, 0, 2], [0, 0, 0], [3, 1, 2]],
}


def test_alink_and_twinkle_in_any_basis(tmp_path, capsys):
    assert main(["alink", write(tmp_path, "a.json", ALINK_MOVED)]) == 0
    assert capsys.readouterr().out == "pseudo-alinking: 3\n"
    assert main(["twinkle", write(tmp_path, "t.json", TWINKLE_MOVED)]) == 0
    assert capsys.readouterr().out == "pseudo-twinkling: 2\n"
    assert main(["twinkle", "--json", write(tmp_path, "t.json", TWINKLE_MOVED)]) == 0
    assert json.loads(capsys.readouterr().out) == {"pseudo_twinkling": 2}


def test_arf(tmp_path, capsys):
    doc = {"kind": "arf", "a": [1, 1], "b": [1, 0]}
    assert main(["arf", "--json", write(tmp_path, "a.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {"arf": 1}


def test_balanced_eq(capsys):
    assert main(["balanced-eq", "--ring", "Q", "-4 + 4*t^1", "-3 + 3*t^1"]) == 0
    assert "Q-balanced: true" in capsys.readouterr().out
    assert main(["balanced-eq", "--ring", "Z", "-4 + 4*t^1", "-3 + 3*t^1"]) == 1
    assert "Z-balanced: false" in capsys.readouterr().out


def test_balanced_eq_parse_error(capsys):
    assert main(["balanced-eq", "--ring", "Z", "bogus", "0"]) == 2


def test_balanced_eq_half_power_precondition(capsys):
    assert main(["balanced-eq", "--ring", "Z", "1*t^(1/2)", "0"]) == 3


def test_canon(capsys):
    assert main(["canon", "--ring", "Q", "-8 + 8*t^1"]) == 0
    assert "canonical: -1 + 1*t^1" in capsys.readouterr().out


def test_canon_leading_dash_needs_separator(capsys):
    # A spaceless leading-dash polynomial looks like an option to argparse;
    # the usual -- separator makes it a positional.
    assert main(["canon", "--ring", "Z", "--", "-1*t^1"]) == 0
    assert "canonical: 1" in capsys.readouterr().out


def test_consecutive_calls_share_no_options(tmp_path, capsys):
    # The parser is built once per process; each call starts from defaults.
    assert main(["canon", "--json", "--ring", "Q", "-8 + 8*t^1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "canonical": {"kind": "laurent", "terms": {"0": -1, "2": 1}}
    }
    assert main(["canon", "--ring", "Q", "-8 + 8*t^1"]) == 0
    assert capsys.readouterr().out == "canonical: -1 + 1*t^1\n"
    path = write(tmp_path, "p.json", V_ZERO)
    assert main(["norm", path, "--middle-injective", "false"]) == 0
    assert capsys.readouterr().out == "normalized: 0\n"
    assert main(["norm", path]) == 0
    assert capsys.readouterr().out == "normalized: 1*t^(-1/2) + -1*t^(1/2)\n"


def test_bad_option_exits_2_and_leaves_the_parser_usable(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["canon", "--ring", "Z", "--no-such-option", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    assert main(["canon", "--ring", "Z", "1"]) == 0
    assert capsys.readouterr().out == "canonical: 1\n"


def test_find_reps(tmp_path, capsys):
    doc = dict(INTRO_TRIPLE)
    doc["zero"] = {"kind": "laurent", "terms": {"0": 1}}
    assert main(["find-reps", "--json", write(tmp_path, "t.json", doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert payload["shifts"] == [
        {"sign": 1, "exponent": 1},
        {"sign": 1, "exponent": 0},
        {"sign": -1, "exponent": 0},
    ]


def test_find_reps_not_found(tmp_path, capsys):
    doc = {
        "kind": "triple",
        "move": "pass",
        "plus": {"kind": "laurent", "terms": {"0": -1, "2": 1}},
        "minus": {"kind": "laurent", "terms": {"0": -1, "2": 1}},
        "zero": {"kind": "laurent", "terms": {"0": 1}},
    }
    assert main(["find-reps", write(tmp_path, "t.json", doc)]) == 1
    assert capsys.readouterr().out == (
        "found: false (no unit multiples satisfy the pass-move identity;"
        " the window 3 is complete)\n"
    )


def test_move_triple_round_trip(tmp_path, capsys):
    # The seifert_pair documents of a local move go through `alex --json`;
    # their polynomials form a pass triple that `skein` accepts and in which
    # `find-reps` finds a witness.  The 1x1 move's zero pair is 0x0.
    rng = random.Random(20261018)
    for size in (1, 5, 12, 24):
        pair = SeifertPair(
            random_int_matrix(rng, size, size), random_int_matrix(rng, size, size), 3, 5
        )
        doc = {"kind": "triple", "move": "pass"}
        for label, member in zip(
            ("plus", "minus", "zero"), move_triple(pair, rng.randrange(size))
        ):
            member_doc = {"kind": "seifert_pair", "p": 3, "n": 5, "S": member.S, "N": member.N}
            assert main(["alex", "--json", write(tmp_path, f"{label}.json", member_doc)]) == 0
            doc[label] = json.loads(capsys.readouterr().out)["polynomial"]
        path = write(tmp_path, "triple.json", doc)
        assert main(["skein", path]) == 0
        assert main(["find-reps", path]) == 0
        assert "found: true" in capsys.readouterr().out


def _pass_doc(*term_maps):
    doc = {"kind": "triple", "move": "pass"}
    for label, terms in zip(("plus", "minus", "zero"), term_maps):
        doc[label] = {"kind": "laurent", "terms": terms}
    return doc


def test_find_reps_span_30_window_91(tmp_path, capsys):
    # Three polynomials spanning t^0..t^30 give W = 1 + 3*30.
    span_30 = {"0": 1, "60": 1}
    for zero, found in ((span_30, True), ({"0": 1, "60": -1}, False)):
        path = write(tmp_path, "t.json", _pass_doc(span_30, span_30, zero))
        assert main(["find-reps", "--json", path]) == (0 if found else 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == 91
        assert payload["found"] is found
        reps = [
            canonicalize(LaurentPoly({int(k): v for k, v in terms.items()}), Ring.Z)
            for terms in (span_30, span_30, zero)
        ]
        shifted = [
            rep.shift(2 * m["exponent"]) * m["sign"]
            for rep, m in zip(reps, payload["shifts"])
        ]
        assert not found or check_pass_move(*shifted).holds


def test_find_reps_window_past_128_is_answered(tmp_path, capsys):
    doc = _pass_doc({"0": 1, "256": 1}, {"0": 1}, {"0": 1})
    assert main(["find-reps", write(tmp_path, "t.json", doc)]) == 1
    assert capsys.readouterr() == (
        "found: false (no unit multiples satisfy the pass-move identity;"
        " the window 129 is complete)\n",
        "",
    )


def test_find_reps_at_exponent_cap(tmp_path, capsys):
    # dm = 1 + t^k and d0 = 1 + t^(k-1) with k = 50000: plus is
    # dm + (t - 1)*d0 = t*(1 - t^(k-2) + 2*t^(k-1)).
    top = MAX_HALF_EXPONENT
    plus = {"2": 1, str(top - 2): -1, str(top): 2}
    doc = _pass_doc(plus, {"0": 1, str(top): 1}, {"0": 1, str(top - 2): 1})
    assert main(["find-reps", write(tmp_path, "t.json", doc)]) == 0
    assert capsys.readouterr().out == (
        "found: true (window 149999)\n"
        "plus: multiply by +t^1\nminus: multiply by +t^0\nzero: multiply by +t^0\n"
    )


def test_find_reps_dense_at_exponent_cap(tmp_path, capsys):
    # dm and d0 have 50,000 random terms on t^0..t^49999, and dp = dm +
    # (t - 1)*d0 ends at t^50000.  dm and d0 share their constant term, so
    # dp starts at t^1; d0 leads negative and dm positive, so the
    # representatives are -dp/t, dm and -d0, and +t^1, -t^0, +t^0 fit.
    rng = random.Random(20261019)
    size = MAX_HALF_EXPONENT // 2
    dm, d0 = ({2 * i: rng.choice((-1, 1)) * rng.randint(1, 9) for i in range(size)}
              for _ in "md")
    dm[0], d0[2 * size - 2], dm[2 * size - 2] = d0[0], -9, 9
    dp = LaurentPoly(dm) + (T - 1) * LaurentPoly(d0)
    assert dp.min_halfexp == 2 and dp.max_halfexp == MAX_HALF_EXPONENT
    doc = _pass_doc(*({str(k): c for k, c in f.items()} for f in (dp.terms, dm, d0)))
    path = write(tmp_path, "t.json", doc)
    start = time.perf_counter()
    assert main(["find-reps", path]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == (
        "found: true (window 149998)\n"
        "plus: multiply by +t^1\nminus: multiply by -t^0\nzero: multiply by +t^0\n"
    )
    assert elapsed < 5.0, f"{elapsed:.2f} s for a dense {size}-term triple"


def test_find_reps_rejects_twist(tmp_path, capsys):
    path = write(tmp_path, "t.json", TWIST_TRIPLE)
    assert main(["find-reps", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: find-reps needs a pass-move triple\n")


@pytest.mark.parametrize("command", ["skein", "find-reps"])
@pytest.mark.parametrize("move", BAD_MOVES, ids=repr)
def test_bad_move_is_one_value_type_refusal(tmp_path, command, move):
    path = write(tmp_path, "t.json", {**INTRO_TRIPLE, "move": move})
    assert _run([command, path]) == (
        2, "", f'error: {path}: bad triple document: move must be "pass" or "twist"\n'
    )


def test_bad_slot_is_reported_before_bad_move(tmp_path):
    # The move is checked when the triple is built, after its three slots.
    doc = {**INTRO_TRIPLE, "move": "slide", "zero": {"kind": "laurent", "terms": {"01": 1}}}
    path = write(tmp_path, "t.json", doc)
    assert _run(["skein", path]) == (2, "", f"error: {path}: bad half-exponent key '01'\n")


def test_corpus(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    for name in ("intro-triple", "osaka2-twist", "aa-triple"):
        assert f"{name}: pass" in out


def test_corpus_json(capsys):
    assert main(["corpus", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert all(entry["passed"] for entry in payload["entries"])


def test_corpus_failure_exits_nonzero(capsys, monkeypatch):
    import alexpoly.cli as cli
    from alexpoly.corpus import CorpusReport, EntryResult

    failing = CorpusReport((EntryResult("intro-triple", ("broken",)),))
    monkeypatch.setattr(cli, "run_corpus", lambda: failing)
    assert main(["corpus"]) == 1
    assert "intro-triple: FAIL" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys):
    assert main(["alex", "/nonexistent/path.json"]) == 2


def test_wrong_document_kind(tmp_path, capsys):
    doc = {"kind": "arf", "a": [1], "b": [1]}
    assert main(["alex", write(tmp_path, "a.json", doc)]) == 2


# (command, file content, a part of the reason or None to ask the interpreter,
# byte cap to patch in or None)
LOAD_FAILURES = {
    "missing key": ("alink", '{"kind": "laurent"}', "laurent document needs 'terms'", None),
    "unknown key": ("alink", '{"kind": "laurent", "terms": {}, "x": 0}', "unknown key 'x'", None),
    "bad term key": ("alink", '{"kind": "laurent", "terms": {"+2": 1}}', "key '+2'", None),
    "non-int coefficient": (
        "alink", '{"kind": "laurent", "terms": {"2": 1.0}}', "must be an integer", None
    ),
    "p is 1.5": ("alink", json.dumps({**PAIR_4, "p": 1.5}), "p and n must be ints", None),
    "arf entry true": (
        "arf", '{"kind": "arf", "a": [true], "b": [1]}', "pairings must be ints", None
    ),
    "broken JSON": ("alex", '{"kind": ', "Expecting value", None),
    "too deep": ("alex", "[" * 100000 + "]" * 100000, "maximum recursion depth", None),
    "byte cap": ("alink", json.dumps(PAIR_4), "past the cap of 10 bytes", 10),
    "0xff byte": ("alex", b'{"kind": "\xff"}', "can't decode byte 0xff", None),
    "4,400 digits": (
        "alink", '{"kind": "laurent", "terms": {"0": ' + "9" * 4400 + "}}", None, None,
    ),
    "wrong kind": ("alex", '{"kind": "laurent", "terms": {}}', "got laurent", None),
    "unhashable kind": ("alex", '{"kind": []}', "unknown document kind []", None),
}


@pytest.mark.parametrize("case", list(LOAD_FAILURES))
def test_every_load_failure_names_the_file(tmp_path, monkeypatch, case):
    command, content, reason, cap = LOAD_FAILURES[case]
    if case == "4,400 digits":
        # The digit limit's wording differs between Python versions (3.10
        # writes "(4300)" where 3.11 writes "(4300 digits)"), so ask int().
        try:
            int("9" * 4400)
        except ValueError as limit:
            reason = str(limit)
        else:
            pytest.skip("this Python has no digit limit on int()")
    if cap is not None:
        monkeypatch.setattr("alexpoly.documents.MAX_DOCUMENT_BYTES", cap)
    path = tmp_path / "doc.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = _run([command, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and reason in err, err
    assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("kind", [[], {}, [1], {"a": 1}])
def test_unhashable_kind_is_input_error(tmp_path, kind):
    path = write(tmp_path, "doc.json", {"kind": kind})
    assert _run(["alink", path]) == (2, "", f"error: {path}: unknown document kind {kind!r}\n")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("arf", {"kind": "arf", "a": [[0] * 300_000], "b": [1]}),
        ("alex", {**PAIR_4, "p": [0] * 300_000}),
        ("alex", {**PAIR_4, "S": [[[0] * 300_000]]}),
    ],
    ids=["arf-entry", "p", "matrix-entry"],
)
def test_value_type_error_quotes_a_bounded_repr(tmp_path, command, doc):
    """A message quotes a bad value cut short, not the whole 900 KB list."""
    path = write(tmp_path, "doc.json", doc)
    code, out, err = _run([command, path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "[0, 0, 0, 0, 0, 0, ...]" in err, err[:300]
    assert len(err.splitlines()) == 1 and len(err.encode()) < 300, err[:300]


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"kind": list(range(300_000))}, "unknown document kind [0, 1, 2, 3, 4, 5, ...]"),
        (
            {"kind": "laurent", "terms": {}, "k" * 300_000: 0},
            "unknown key 'kkkkkkkkk...kkkkkkkkkk'",
        ),
        (
            {"kind": "laurent", "terms": {"1" * 300_000: 1}},
            "bad half-exponent key '111111111...1111111111'",
        ),
        (
            {"kind": "laurent", "terms": {"1" * 4000: 1}},
            "half-exponent 1111111111...11111111111 is past the cap of 100000",
        ),
        (
            {**PAIR_4, "p": -(10**4000)},
            "need n >= 1 and 0 <= p <= n+1, got p=-100000000...00000000000, n=2",
        ),
    ],
    ids=["kind", "unknown-key", "term-key", "term-key-past-cap", "pair-p"],
)
def test_document_error_quotes_a_bounded_repr(tmp_path, doc, reason):
    """A long kind or key is quoted cut short, not as a 300 KB line."""
    path = write(tmp_path, "doc.json", doc)
    code, out, err = _run(["alink", path])
    assert (code, out) == (2, "")
    prefix = f"error: {path}: "
    assert err.startswith(prefix) and err.endswith(f"{reason}\n"), err[:300]
    assert len(err.splitlines()) == 1 and len(err[len(prefix):].encode()) < 300, err[:300]


@pytest.mark.parametrize(
    "command, half_powers",
    [("alink", False), ("skein", True), ("find-reps", True), ("alink", True)],
    ids=["alink-not-divisible", "skein-half-powers", "find-reps-half-powers", "alink-half-powers"],
)
def test_oversized_polynomial_error_is_one_bounded_line(tmp_path, command, half_powers):
    """A refused polynomial of 50,001 or 100,001 terms is quoted by its two ends."""
    if half_powers:
        f = {"kind": "laurent", "terms": {str(k): 1 for k in range(-50_000, 50_001)}}
        head = "NonIntegerExponent: 1*t^-25000 + 1*t^(-49999/2) + "
        tail = " + 1*t^(49999/2) + 1*t^25000 has half powers of t\n"
    else:
        f = {"kind": "laurent", "terms": {str(k): 1 for k in range(0, MAX_HALF_EXPONENT + 1, 2)}}
        head = "NotDivisible: 1 + 1*t^1 + "
        tail = " + 1*t^49999 + 1*t^50000 is not divisible by -1 + 1*t^1\n"
    doc = f if command == "alink" else {
        "kind": "triple", "move": "pass", "plus": f, "minus": f, "zero": f,
    }
    code, out, err = _run([command, write(tmp_path, "doc.json", doc)])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {head}") and err.endswith(tail), err[:300]
    assert err.count(" ... ") == 1 and len(err.splitlines()) == 1, err[:300]
    assert len(err.encode()) <= 2100, len(err.encode())


def test_not_square_is_precondition_error(tmp_path, capsys):
    doc = {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[1, 0]], "N": [[0, 0]]}
    assert main(["alex", write(tmp_path, "p.json", doc)]) == 3


def test_boolean_entries_are_input_errors(tmp_path, capsys):
    for doc in (
        {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[True]], "N": [[4]]},
        {"kind": "seifert_pair", "p": True, "n": 2, "S": [[4]], "N": [[4]]},
    ):
        assert main(["alink", write(tmp_path, "b.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


def test_non_canonical_term_key_is_input_error(tmp_path, capsys):
    for key in ("1_0", " 2 ", "+4", "007", "-0", "\u0663"):
        doc = {"kind": "laurent", "terms": {"0": -1, key: 1}}
        assert main(["alink", write(tmp_path, "k.json", doc)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_stream_is_past_the_byte_cap(capsys):
    assert main(["alex", "/dev/zero"]) == 2
    assert capsys.readouterr() == (
        "", f"error: /dev/zero: document is past the cap of {MAX_DOCUMENT_BYTES} bytes\n"
    )


def test_document_byte_cap(tmp_path, capsys, monkeypatch):
    text = json.dumps(PAIR_4)
    monkeypatch.setattr("alexpoly.documents.MAX_DOCUMENT_BYTES", len(text) + 4)
    path = tmp_path / "p.json"
    path.write_text(text + " " * 4, encoding="utf-8")
    assert main(["alink", str(path)]) == 0
    assert capsys.readouterr().out == "pseudo-alinking: 4\n"
    path.write_text(text + " " * 5, encoding="utf-8")
    assert main(["alink", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: document is past the cap of {len(text) + 4} bytes\n"
    )


def test_utf16_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(PAIR_4), encoding="utf-16")
    assert main(["alex", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["alex", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_non_canonical_polynomial_argument_is_input_error(capsys):
    for text in ("1*t^0", "007", " 1 ", "\u0663", "1 + 1"):
        assert main(["canon", "--ring", "Z", "--", text]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def _assert_one_line_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "cap" in captured.err


def test_alink_at_exponent_cap(tmp_path, capsys):
    top = MAX_HALF_EXPONENT // 2
    doc = {"kind": "laurent", "terms": {"0": -1, str(MAX_HALF_EXPONENT): 1}}
    assert main(["alink", write(tmp_path, "f.json", doc)]) == 0
    assert capsys.readouterr().out == f"pseudo-alinking: {top}\n"


def test_alink_past_exponent_cap_is_input_error(tmp_path, capsys):
    # t^200000 - 1 took 0.34 s before the cap, and larger exponents more.
    for key in ("400000", str(MAX_HALF_EXPONENT + 1), str(-MAX_HALF_EXPONENT - 1)):
        doc = {"kind": "laurent", "terms": {"0": -1, key: 1}}
        assert main(["alink", write(tmp_path, "f.json", doc)]) == 2
        _assert_one_line_input_error(capsys)


def test_triple_past_exponent_cap_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(INTRO_TRIPLE))
    doc["zero"]["terms"][str(-MAX_HALF_EXPONENT - 2)] = 1
    for command in ("skein", "find-reps"):
        assert main([command, write(tmp_path, "t.json", doc)]) == 2
        _assert_one_line_input_error(capsys)


def test_polynomial_argument_exponent_cap(capsys):
    top = MAX_HALF_EXPONENT // 2
    assert main(["canon", "--ring", "Z", f"1*t^{-top}"]) == 0
    assert capsys.readouterr().out == "canonical: 1\n"
    for text in (f"1*t^{top + 1}", f"1 + 1*t^({MAX_HALF_EXPONENT + 1}/2)", "1*t^-200000"):
        assert main(["canon", "--ring", "Q", "--", text]) == 2
        _assert_one_line_input_error(capsys)
        assert main(["balanced-eq", "--ring", "Z", "--", "1", text]) == 2
        _assert_one_line_input_error(capsys)


def test_alink_from_pair_at_dimension_cap(tmp_path, capsys):
    size = MAX_MATRIX_DIM
    form = [[0] * size] + [[int(i == j) for j in range(size)] for i in range(1, size)]
    s = [row[:] for row in form]
    s[0][0] = 5
    n = [[sv - fv for sv, fv in zip(srow, frow)] for srow, frow in zip(s, form)]
    doc = {"kind": "seifert_pair", "p": 1, "n": 2, "S": s, "N": n}
    assert main(["alink", write(tmp_path, "p.json", doc)]) == 0
    assert capsys.readouterr().out == "pseudo-alinking: 5\n"


def test_pair_past_dimension_cap_is_input_error(tmp_path, capsys):
    size = MAX_MATRIX_DIM + 1
    zeros = [[0] * size for _ in range(size)]
    doc = {"kind": "seifert_pair", "p": 1, "n": 2, "S": zeros, "N": zeros}
    path = write(tmp_path, "p.json", doc)
    for command in ("alex", "norm", "alink", "twinkle"):
        assert main([command, path]) == 2
        _assert_one_line_input_error(capsys)


def test_pair_entry_cap(tmp_path, capsys):
    top = MAX_MATRIX_ENTRY
    doc = {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[top, -top], [0, top]],
           "N": [[-top, 0], [top, top]]}
    assert main(["alex", write(tmp_path, "p.json", doc)]) == 0
    square = top * top  # det(t*S - N) = top^2 * (t^2 - t - 1)
    assert capsys.readouterr().out.startswith(
        f"polynomial: {-square} + {-square}*t^1 + {square}*t^2\n"
    )
    for entry in (top + 1, -top - 1, 10**4000):
        path = write(tmp_path, "p.json", {**doc, "N": [[-top, 0], [entry, top]]})
        for command in ("alex", "norm", "alink", "twinkle"):
            assert main([command, path]) == 2
            _assert_one_line_input_error(capsys)


# Garbage documents: random JSON values, and valid documents of every kind
# with one edit that the documented format forbids.  Every one must end in
# exit 2 or 3 with one stderr line and nothing on stdout.
LAURENT_DOC = {"kind": "laurent", "terms": {"-1": 2, "0": -3, "4": 1}}
PAIR_2 = {
    "kind": "seifert_pair", "p": 1, "n": 1, "S": [[1, -2], [0, 3]], "N": [[1, 0], [-2, 3]]
}
ARF_DOC = {"kind": "arf", "a": [1, 1], "b": [1, 0]}
VALID_DOCS = (PAIR_4, V_ZERO, PAIR_2, LAURENT_DOC, INTRO_TRIPLE, TWIST_TRIPLE, ARF_DOC)
COMMANDS = {
    "seifert_pair": ("alex", "norm", "alink", "twinkle"),
    "laurent": ("alink",),
    "triple": ("skein", "find-reps"),
    "arf": ("arf",),
}
FILE_COMMANDS = sorted({c for cs in COMMANDS.values() for c in cs})

# The exact wrong-kind error: each file command against a valid document of
# every kind it does not accept.
ONE_DOC_PER_KIND = {
    "seifert_pair": PAIR_4, "laurent": LAURENT_DOC, "triple": INTRO_TRIPLE, "arf": ARF_DOC,
}
ACCEPTED = {
    "alex": "seifert_pair",
    "norm": "seifert_pair",
    "skein": "triple",
    "alink": "laurent or seifert_pair",
    "twinkle": "seifert_pair",
    "arf": "arf",
    "find-reps": "triple",
}


@pytest.mark.parametrize(
    "command, kind",
    [
        (command, kind)
        for command in FILE_COMMANDS
        for kind in ONE_DOC_PER_KIND
        if kind not in ACCEPTED[command].split(" or ")
    ],
)
def test_wrong_document_kind_message(tmp_path, capsys, command, kind):
    path = write(tmp_path, "doc.json", ONE_DOC_PER_KIND[kind])
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: expected a {ACCEPTED[command]} document, got {kind}\n"


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (1, 0)])
@pytest.mark.parametrize(
    "command, p, n",
    [
        ("alex", 1, 1),
        ("norm", 3, 5),
        pytest.param("norm --middle-injective false", 3, 5, id="norm-middle-false-3-5"),
    ],
)
def test_zero_non_square_pair_has_no_determinant(tmp_path, capsys, command, p, n, rows, cols):
    """An all-zero pencil that is not square is an error, not the zero class.

    norm says so under either flag: a middle-dimension pair is square.
    """
    zero = [[0] * cols for _ in range(rows)]
    doc = {"kind": "seifert_pair", "p": p, "n": n, "S": zero, "N": zero}
    assert main([*command.split(), write(tmp_path, "pair.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: NotSquare: {rows}x{cols} matrix has no determinant\n"


# Every command's exact output on fixed inputs: (arguments, document written
# to DOC, exit code, text stdout, --json stdout, stderr).  --json goes right
# after the command name.  A failed corpus runs with run_corpus patched.
BROKEN_TRIPLE = {**INTRO_TRIPLE, "zero": {"kind": "laurent", "terms": {"0": 5}}}
FOUND_TRIPLE = {**INTRO_TRIPLE, "zero": {"kind": "laurent", "terms": {"0": 1}}}
NOT_FOUND_TRIPLE = _pass_doc({"0": -1, "2": 1}, {"0": -1, "2": 1}, {"0": 1})
CORPUS_NAMES = (
    "intro-triple", "intro-reps", "mississippi-classes", "mississippi-triples",
    "aa-triple", "aa2-triple", "osaka2-twist", "osaka2-twinkle",
)
EXACT_OUTPUT = {
    "alex": (
        ["alex", "DOC"], PAIR_4, 0,
        "polynomial: -4 + 4*t^1\nZ class: -4 + 4*t^1\nQ class: -1 + 1*t^1\n",
        '{"polynomial": {"kind": "laurent", "terms": {"0": -4, "2": 4}},'
        ' "q_class": {"kind": "laurent", "terms": {"0": -1, "2": 1}},'
        ' "z_class": {"kind": "laurent", "terms": {"0": -4, "2": 4}}}\n',
        "",
    ),
    "norm": (
        ["norm", "DOC"], V_ZERO, 0,
        "normalized: 1*t^(-1/2) + -1*t^(1/2)\n",
        '{"normalized": {"kind": "laurent", "terms": {"-1": 1, "1": -1}}}\n',
        "",
    ),
    "skein-holds": (
        ["skein", "DOC"], INTRO_TRIPLE, 0,
        "move: pass\nlhs: 1 + -1*t^1\nrhs: 1 + -1*t^1\nresidual: 0\nholds: true\n",
        '{"holds": true, "lhs": {"kind": "laurent", "terms": {"0": 1, "2": -1}},'
        ' "move": "pass", "residual": {"kind": "laurent", "terms": {}},'
        ' "rhs": {"kind": "laurent", "terms": {"0": 1, "2": -1}}}\n',
        "",
    ),
    "skein-fails": (
        ["skein", "DOC"], BROKEN_TRIPLE, 1,
        "move: pass\nlhs: 1 + -1*t^1\nrhs: -5 + 5*t^1\nresidual: 6 + -6*t^1\nholds: false\n",
        '{"holds": false, "lhs": {"kind": "laurent", "terms": {"0": 1, "2": -1}},'
        ' "move": "pass", "residual": {"kind": "laurent", "terms": {"0": 6, "2": -6}},'
        ' "rhs": {"kind": "laurent", "terms": {"0": -5, "2": 5}}}\n',
        "",
    ),
    "alink": (
        ["alink", "DOC"], PAIR_4, 0, "pseudo-alinking: 4\n", '{"pseudo_alinking": 4}\n', ""
    ),
    "twinkle": (
        ["twinkle", "DOC"], V_ZERO, 0,
        "pseudo-twinkling: -1\n", '{"pseudo_twinkling": -1}\n', "",
    ),
    "arf": (["arf", "DOC"], ARF_DOC, 0, "arf: 1\n", '{"arf": 1}\n', ""),
    "balanced-eq-holds": (
        ["balanced-eq", "--ring", "Q", "-4 + 4*t^1", "-3 + 3*t^1"], None, 0,
        "Q-balanced: true\n", '{"balanced": true, "ring": "Q"}\n', "",
    ),
    "balanced-eq-fails": (
        ["balanced-eq", "--ring", "Z", "-4 + 4*t^1", "-3 + 3*t^1"], None, 1,
        "Z-balanced: false\n", '{"balanced": false, "ring": "Z"}\n', "",
    ),
    "balanced-eq-bad-input": (
        ["balanced-eq", "--ring", "Z", "bogus", "0"], None, 2,
        "", "", "error: cannot parse term 'bogus'\n",
    ),
    "canon": (
        ["canon", "--ring", "Q", "-8 + 8*t^1"], None, 0,
        "canonical: -1 + 1*t^1\n",
        '{"canonical": {"kind": "laurent", "terms": {"0": -1, "2": 1}}}\n',
        "",
    ),
    "canon-precondition": (
        ["canon", "--ring", "Z", "1*t^(1/2)"], None, 3,
        "", "", "error: NonIntegerExponent: 1*t^(1/2) has half powers of t\n",
    ),
    "find-reps-found": (
        ["find-reps", "DOC"], FOUND_TRIPLE, 0,
        "found: true (window 2)\nplus: multiply by +t^1\nminus: multiply by +t^0\n"
        "zero: multiply by -t^0\n",
        '{"found": true, "shifts": [{"exponent": 1, "sign": 1},'
        ' {"exponent": 0, "sign": 1}, {"exponent": 0, "sign": -1}], "window": 2}\n',
        "",
    ),
    "find-reps-not-found": (
        ["find-reps", "DOC"], NOT_FOUND_TRIPLE, 1,
        "found: false (no unit multiples satisfy the pass-move identity;"
        " the window 3 is complete)\n",
        '{"found": false, "shifts": [], "window": 3}\n',
        "",
    ),
    "corpus-passes": (
        ["corpus"], None, 0,
        "".join(f"{name}: pass\n" for name in CORPUS_NAMES),
        '{"all_passed": true, "entries": ['
        + ", ".join(
            f'{{"failures": [], "name": "{name}", "passed": true}}' for name in CORPUS_NAMES
        )
        + "]}\n",
        "",
    ),
    "corpus-fails": (
        ["corpus"], None, 1,
        "intro-triple: FAIL\n  broken\naa-triple: pass\n",
        '{"all_passed": false, "entries": [{"failures": ["broken"], "name": "intro-triple",'
        ' "passed": false}, {"failures": [], "name": "aa-triple", "passed": true}]}\n',
        "",
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", EXACT_OUTPUT)
def test_exact_output(tmp_path, monkeypatch, case, as_json):
    from alexpoly.corpus import CorpusReport, EntryResult

    argv, doc, code, text, json_text, err = EXACT_OUTPUT[case]
    if doc is not None:
        path = write(tmp_path, "doc.json", doc)
        argv = [path if arg == "DOC" else arg for arg in argv]
    if case == "corpus-fails":
        failing = CorpusReport((
            EntryResult("intro-triple", ("broken",)),
            EntryResult("aa-triple", ()),
        ))
        monkeypatch.setattr("alexpoly.cli.run_corpus", lambda: failing)
    if as_json:
        argv = [argv[0], "--json", *argv[1:]]
    assert _run(argv) == (code, json_text if as_json else text, err)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _is_canonical_key(key: str) -> bool:
    try:
        return key == str(int(key))
    except ValueError:
        return False


REQUIRED = {
    "seifert_pair": ("kind", "p", "n", "S", "N"),
    "laurent": ("kind", "terms"),
    "triple": ("kind", "move", "plus", "minus", "zero"),
    "arf": ("kind", "a", "b"),
}


def test_required_keys_are_the_loaders():
    """The near-miss fuzz below breaks every kind and key the loader checks."""
    assert {kind: set(keys) for kind, keys in REQUIRED.items()} == {
        kind: set(keys) for kind, (keys, _) in _KINDS.items()
    }


def _places(doc, path=()):
    """(path, role) for every value of a valid document that the format
    constrains; "required" marks the keys a document must have."""
    kind = doc["kind"]
    for key in REQUIRED[kind]:
        yield path + (key,), "required"
    yield path + ("kind",), "kind"
    if kind == "laurent":
        yield path + ("terms",), "dict"
        for key in doc["terms"]:
            yield path + ("terms", key), "int"
            yield path + ("terms", key), "key"
    elif kind == "seifert_pair":
        for key in ("p", "n"):
            yield path + (key,), "int"
        for key in ("S", "N"):
            yield path + (key,), "list"
            for i, row in enumerate(doc[key]):
                yield path + (key, i), "list"
                for j in range(len(row)):
                    yield path + (key, i, j), "int"
    elif kind == "triple":
        yield path + ("move",), "move"
        for key in ("plus", "minus", "zero"):
            yield path + (key,), "dict"
            yield from _places(doc[key], path + (key,))
    else:
        for key in ("a", "b"):
            yield path + (key,), "list"
            for i in range(len(doc[key])):
                yield path + (key, i), "int"


def _shape_errors(doc) -> list:
    """Valid types in an invalid arrangement."""
    if doc["kind"] == "seifert_pair":
        ragged = [doc["S"][0] + [0]] + doc["S"][1:]
        return [{**doc, "p": doc["n"] + 2}, {**doc, "n": 0}, {**doc, "S": ragged}]
    if doc["kind"] == "arf":
        return [{**doc, "a": doc["a"] + [0]}, {**doc, "a": [], "b": []}]
    if doc["kind"] == "triple":
        return [{**doc, "move": "slide"}, {**doc, "move": "Pass"}]
    return [{**doc, "terms": {**doc["terms"], "0": True}}]


def _past_cap(doc, data):
    doc = copy.deepcopy(doc)
    if doc["kind"] == "seifert_pair" and data.draw(st.booleans()):
        size = MAX_MATRIX_DIM + 1
        cols = data.draw(st.sampled_from((1, size)))
        doc["S"] = doc["N"] = [[0] * cols for _ in range(size)]
    elif doc["kind"] == "seifert_pair":
        row = data.draw(st.sampled_from(doc[data.draw(st.sampled_from(("S", "N")))]))
        entry = data.draw(st.integers(MAX_MATRIX_ENTRY + 1, 10**4000))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from((entry, -entry)))
    else:
        terms = doc["terms"] if doc["kind"] == "laurent" else doc["zero"]["terms"]
        k = data.draw(st.integers(MAX_HALF_EXPONENT + 1, 10 * MAX_HALF_EXPONENT))
        terms[str(data.draw(st.sampled_from((k, -k))))] = 1
    return doc


def _objects(doc):
    """A document and the laurent documents nested in it."""
    return [doc, *(doc[key] for key in ("plus", "minus", "zero") if key in doc)]


def _repeat_key(doc, data):
    """JSON text of doc in which one object lists one of its keys twice."""
    objects = _objects(doc)
    objects += [obj["terms"] for obj in objects if obj.get("terms")]
    target = data.draw(st.sampled_from(objects))
    key = data.draw(st.sampled_from(sorted(target)))

    def dump(value):
        if not isinstance(value, dict):
            return json.dumps(value)
        items = [*value.items(), *([(key, value[key])] if value is target else [])]
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in items) + "}"

    return dump(doc)


def _break(doc, data):
    """JSON text of a valid document with one edit that makes it invalid."""
    edit = data.draw(st.sampled_from(
        ["value", "value", "shape", "past cap", "wrap", "unknown key", "repeated key"]
    ))
    if edit == "repeated key":
        return _repeat_key(doc, data)
    return json.dumps(_edit(doc, edit, data))


def _edit(doc, edit, data):
    if edit == "wrap":
        return [doc]
    if edit == "shape":
        return data.draw(st.sampled_from(_shape_errors(doc)))
    if edit == "past cap" and doc["kind"] != "arf":  # arf lists have no cap
        return _past_cap(doc, data)
    doc = copy.deepcopy(doc)
    if edit == "unknown key":
        holder = data.draw(st.sampled_from(_objects(doc)))
        allowed = REQUIRED[holder["kind"]]
        holder[data.draw(st.text(max_size=8).filter(lambda k: k not in allowed))] = 0
        return doc
    path, role = data.draw(st.sampled_from(list(_places(doc))))
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    if role == "required":
        del holder[last]
    elif role == "key":
        bad = data.draw(st.text(max_size=8).filter(lambda k: not _is_canonical_key(k)))
        holder[bad] = holder.pop(last)
    elif role == "kind":
        kinds = st.sampled_from(sorted(COMMANDS)) | st.text(max_size=8) | _JSON
        holder[last] = data.draw(kinds.filter(lambda k: k != holder[last]))
    elif role == "int":
        holder[last] = data.draw(_JSON.filter(lambda v: type(v) is not int))
    elif role == "dict":
        holder[last] = data.draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif role == "list":
        holder[last] = data.draw(_JSON.filter(lambda v: not isinstance(v, list)))
    else:
        holder[last] = data.draw(_JSON.filter(lambda m: m not in ("pass", "twist")))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(code, out, err):
    assert code in (2, 3), (code, out, err)
    assert out == ""
    assert len(err.splitlines()) == 1, err


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.data())
def test_near_miss_documents_are_rejected(tmp_path_factory, data):
    doc = data.draw(st.sampled_from(VALID_DOCS))
    path = tmp_path_factory.mktemp("near") / "doc.json"
    how = data.draw(st.sampled_from(["edit", "edit", "edit", "truncate", "wrong kind"]))
    if how == "wrong kind":
        text = json.dumps(doc)
        command = data.draw(st.sampled_from(
            [c for c in FILE_COMMANDS if c not in COMMANDS[doc["kind"]]]
        ))
    else:
        command = data.draw(st.sampled_from(COMMANDS[doc["kind"]]))
        if how == "truncate":
            text = json.dumps(doc)
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            text = _break(doc, data)
    path.write_text(text, encoding="utf-8")
    _assert_rejected(*_run([command, str(path)]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(value=_JSON, command=st.sampled_from(FILE_COMMANDS))
def test_random_json_values_are_rejected(tmp_path_factory, value, command):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    _assert_rejected(*_run([command, str(path)]))


def test_importing_a_module_runs_no_command(monkeypatch):
    # Only `python -m alexpoly` runs the CLI; importing any module, the
    # package's __main__ included, leaves the host program's argv alone.
    monkeypatch.setattr(sys, "argv", ["host-program", "--not-an-alexpoly-option"])
    names = [info.name for info in pkgutil.walk_packages(alexpoly.__path__, "alexpoly.")]
    assert "alexpoly.__main__" in names
    for name in names:
        # A fresh copy of each module, so one imported earlier runs again.
        spec = importlib.util.find_spec(name)
        try:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        except SystemExit as exc:
            pytest.fail(f"importing {name} exited with {exc.code!r}")
