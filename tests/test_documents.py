import json

import pytest

from alexpoly import InvalidDocument, LaurentPoly, SeifertPair, T
from alexpoly.documents import (
    MAX_HALF_EXPONENT,
    MAX_MATRIX_DIM,
    MAX_MATRIX_ENTRY,
    Triple,
    arf_from_doc,
    laurent_from_doc,
    laurent_to_doc,
    load_document,
    parse_document,
    seifert_pair_from_doc,
    seifert_pair_to_doc,
    triple_from_doc,
)

LAURENT_DOC = {"kind": "laurent", "terms": {"-2": -1, "0": 2, "2": -1}}
PAIR_DOC = {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[4]], "N": [[4]]}


def test_laurent_roundtrip():
    f = laurent_from_doc(LAURENT_DOC)
    assert f == -LaurentPoly.t_power(-1) + 2 - T
    assert laurent_to_doc(f) == LAURENT_DOC


def test_laurent_zero():
    assert laurent_from_doc({"kind": "laurent", "terms": {}}) == LaurentPoly()
    assert laurent_to_doc(LaurentPoly()) == {"kind": "laurent", "terms": {}}


def test_laurent_bad_key():
    with pytest.raises(InvalidDocument):
        laurent_from_doc({"kind": "laurent", "terms": {"half": 1}})


@pytest.mark.parametrize("key", ["1_0", " 2 ", "+4", "007", "-0", "\u0663"])
def test_laurent_rejects_non_canonical_key(key):
    with pytest.raises(InvalidDocument):
        laurent_from_doc({"kind": "laurent", "terms": {key: 1}})


def test_laurent_bad_coefficient():
    for coeff in (1.5, "1", True, None):
        with pytest.raises(InvalidDocument):
            laurent_from_doc({"kind": "laurent", "terms": {"0": coeff}})


def test_laurent_halfexp_cap():
    for k in (MAX_HALF_EXPONENT, -MAX_HALF_EXPONENT):
        doc = {"kind": "laurent", "terms": {str(k): 1}}
        assert laurent_from_doc(doc) == LaurentPoly.half_power(k)
    for k in (MAX_HALF_EXPONENT + 1, -MAX_HALF_EXPONENT - 1):
        for coeff in (1, 0):
            with pytest.raises(InvalidDocument, match="cap"):
                laurent_from_doc({"kind": "laurent", "terms": {"0": 1, str(k): coeff}})


def _square_pair_doc(rows: int, cols: int) -> dict:
    zeros = [[0] * cols for _ in range(rows)]
    return {"kind": "seifert_pair", "p": 1, "n": 2, "S": zeros, "N": zeros}


def test_seifert_pair_dimension_cap():
    assert seifert_pair_from_doc(_square_pair_doc(MAX_MATRIX_DIM, MAX_MATRIX_DIM)).shape == (
        MAX_MATRIX_DIM,
        MAX_MATRIX_DIM,
    )
    for rows, cols in ((MAX_MATRIX_DIM + 1, 1), (1, MAX_MATRIX_DIM + 1)):
        with pytest.raises(InvalidDocument, match="cap"):
            seifert_pair_from_doc(_square_pair_doc(rows, cols))


def test_seifert_pair_entry_cap():
    top = MAX_MATRIX_ENTRY
    doc = {**PAIR_DOC, "S": [[top, -top], [0, 1]], "N": [[-top, 0], [top, 1]]}
    assert seifert_pair_from_doc(doc) == SeifertPair(doc["S"], doc["N"], 1, 2)
    for entry in (top + 1, -top - 1, 10**4000):
        for key in ("S", "N"):
            with pytest.raises(InvalidDocument, match="cap"):
                seifert_pair_from_doc({**doc, key: [[1, 0], [0, entry]]})


@pytest.mark.parametrize("rows", ["", "abc", {}, {"0": [1]}, [1], ["1"], 4, None])
def test_seifert_pair_matrix_must_be_list_of_rows(rows):
    doc = {"kind": "seifert_pair", "p": 1, "n": 2, "S": rows, "N": rows}
    with pytest.raises(InvalidDocument, match="list of rows"):
        seifert_pair_from_doc(doc)


def test_seifert_pair_roundtrip():
    pair = seifert_pair_from_doc(PAIR_DOC)
    assert pair == SeifertPair([[4]], [[4]], 1, 2)
    assert seifert_pair_to_doc(pair) == PAIR_DOC


def test_seifert_pair_errors():
    with pytest.raises(InvalidDocument):
        seifert_pair_from_doc({"kind": "seifert_pair", "p": 1, "n": 2, "S": [[1]]})
    with pytest.raises(InvalidDocument):
        seifert_pair_from_doc(
            {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[1, 2]], "N": [[1]]}
        )
    with pytest.raises(InvalidDocument):
        seifert_pair_from_doc(
            {"kind": "seifert_pair", "p": 9, "n": 2, "S": [[1]], "N": [[1]]}
        )
    with pytest.raises(InvalidDocument):
        seifert_pair_from_doc(
            {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[1.5]], "N": [[1]]}
        )


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "seifert_pair", "p": True, "n": 2, "S": [[4]], "N": [[4]]},
        {"kind": "seifert_pair", "p": 1, "n": True, "S": [[4]], "N": [[4]]},
        {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[True]], "N": [[4]]},
        {"kind": "seifert_pair", "p": 1, "n": 2, "S": [[4]], "N": [[False]]},
    ],
)
def test_seifert_pair_rejects_booleans(doc):
    with pytest.raises(InvalidDocument):
        seifert_pair_from_doc(doc)


def test_triple_document():
    doc = {
        "kind": "triple",
        "move": "pass",
        "plus": {"kind": "laurent", "terms": {"2": 1}},
        "minus": {"kind": "laurent", "terms": {"0": -1, "2": 2}},
        "zero": {"kind": "laurent", "terms": {"0": -1}},
    }
    triple = triple_from_doc(doc)
    assert isinstance(triple, Triple)
    assert triple.move == "pass"
    assert triple.plus == T


def test_triple_bad_move():
    with pytest.raises(InvalidDocument):
        triple_from_doc(
            {
                "kind": "triple",
                "move": "slide",
                "plus": {"kind": "laurent", "terms": {}},
                "minus": {"kind": "laurent", "terms": {}},
                "zero": {"kind": "laurent", "terms": {}},
            }
        )


def test_arf_document():
    data = arf_from_doc({"kind": "arf", "a": [1, 1], "b": [1, 0]})
    assert data.nu == 2
    assert data.a == (1, 1)
    with pytest.raises(InvalidDocument):
        arf_from_doc({"kind": "arf", "a": [1], "b": [True]})


def test_parse_document_dispatch():
    assert isinstance(parse_document(PAIR_DOC), SeifertPair)
    assert isinstance(parse_document(LAURENT_DOC), LaurentPoly)
    with pytest.raises(InvalidDocument):
        parse_document({"kind": "mystery"})
    with pytest.raises(InvalidDocument):
        parse_document([1, 2, 3])


def test_laurent_doc_roundtrip_randomized():
    import random

    from conftest import random_poly

    rng = random.Random(20260815)
    for _ in range(300):
        f = random_poly(rng)
        assert laurent_from_doc(laurent_to_doc(f)) == f


def test_load_document(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR_DOC), encoding="utf-8")
    assert load_document(str(path), ("seifert_pair",)) == SeifertPair([[4]], [[4]], 1, 2)
    wrong = f"^{path}: expected a laurent or triple document, got seifert_pair$"
    with pytest.raises(InvalidDocument, match=wrong):
        load_document(str(path), ("laurent", "triple"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidDocument):
        load_document(str(bad), ("seifert_pair",))


def test_load_document_too_deep(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    with pytest.raises(InvalidDocument):
        load_document(str(deep), ("seifert_pair",))


TRIPLE_DOC = {
    "kind": "triple", "move": "pass", "plus": LAURENT_DOC, "minus": LAURENT_DOC, "zero": LAURENT_DOC,
}


@pytest.mark.parametrize(
    "doc",
    [
        {**LAURENT_DOC, "junk": [1, 2]},
        {**PAIR_DOC, "S ": [[4]]},
        {**TRIPLE_DOC, "note": "x"},
        {**TRIPLE_DOC, "zero": {**LAURENT_DOC, "kind ": "laurent"}},
        {"kind": "arf", "a": [1, 1], "b": [1, 0], "c": []},
    ],
)
def test_unknown_keys_are_rejected(doc):
    with pytest.raises(InvalidDocument, match="unknown key"):
        parse_document(doc)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "laurent", "terms": {"0": -1, "0": 5, "2": 1}}',
        '{"kind": "laurent", "kind": "laurent", "terms": {}}',
        '{"kind": "triple", "move": "pass", "plus": {"kind": "laurent", "terms": {},'
        ' "terms": {}}, "minus": {"kind": "laurent", "terms": {}},'
        ' "zero": {"kind": "laurent", "terms": {}}}',
    ],
)
def test_load_document_rejects_repeated_keys(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidDocument, match="duplicate key"):
        load_document(str(path), ("laurent", "triple"))
