import json

from alexpoly import LaurentPoly, Ring, canonicalize, check_pass_move
from alexpoly.cli import main

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


def test_norm_rejects_wrong_dimensions(tmp_path, capsys):
    assert main(["norm", write(tmp_path, "p.json", PAIR_4)]) == 2


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
    assert "found: false" in capsys.readouterr().out


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


def test_find_reps_window_above_cap_is_precondition_error(tmp_path, capsys):
    doc = _pass_doc({"0": 1, "256": 1}, {"0": 1}, {"0": 1})
    assert main(["find-reps", write(tmp_path, "t.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "129" in captured.err


def test_find_reps_rejects_twist(tmp_path, capsys):
    doc = dict(TWIST_TRIPLE)
    assert main(["find-reps", write(tmp_path, "t.json", doc)]) == 2


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

    failing = CorpusReport((EntryResult("intro-triple", False, ("broken",)),))
    monkeypatch.setattr(cli, "run_corpus", lambda: failing)
    assert main(["corpus"]) == 1
    assert "intro-triple: FAIL" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys):
    assert main(["alex", "/nonexistent/path.json"]) == 2


def test_wrong_document_kind(tmp_path, capsys):
    doc = {"kind": "arf", "a": [1], "b": [1]}
    assert main(["alex", write(tmp_path, "a.json", doc)]) == 2


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
