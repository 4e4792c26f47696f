import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from alexpoly import LaurentPoly, Ring, canonicalize, check_pass_move
from alexpoly.cli import main
from alexpoly.documents import MAX_HALF_EXPONENT, MAX_MATRIX_DIM

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
    if doc["kind"] == "seifert_pair":
        size = MAX_MATRIX_DIM + 1
        cols = data.draw(st.sampled_from((1, size)))
        doc["S"] = doc["N"] = [[0] * cols for _ in range(size)]
    else:
        terms = doc["terms"] if doc["kind"] == "laurent" else doc["zero"]["terms"]
        k = data.draw(st.integers(MAX_HALF_EXPONENT + 1, 10 * MAX_HALF_EXPONENT))
        terms[str(data.draw(st.sampled_from((k, -k))))] = 1
    return doc


def _break(doc, data):
    """A copy of a valid document with one edit that makes it invalid."""
    edit = data.draw(st.sampled_from(["value", "value", "shape", "past cap", "wrap"]))
    if edit == "wrap":
        return [doc]
    if edit == "shape":
        return data.draw(st.sampled_from(_shape_errors(doc)))
    if edit == "past cap" and doc["kind"] != "arf":  # arf lists have no cap
        return _past_cap(doc, data)
    doc = copy.deepcopy(doc)
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
        kinds = st.sampled_from(sorted(COMMANDS)) | st.text(max_size=8)
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
            text = json.dumps(_break(doc, data))
    path.write_text(text, encoding="utf-8")
    _assert_rejected(*_run([command, str(path)]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(value=_JSON, command=st.sampled_from(FILE_COMMANDS))
def test_random_json_values_are_rejected(tmp_path_factory, value, command):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    _assert_rejected(*_run([command, str(path)]))
