"""Outside input: the JSON documents and polynomial texts the tools read.

This module alone turns outside input into values: ``load_document``
reads a file of one of the kinds a command accepts, and
``laurent_from_text`` reads a polynomial in the text grammar.  Four
document kinds exist:

    {"kind": "seifert_pair", "p": int, "n": int, "S": [[int]], "N": [[int]]}
    {"kind": "laurent", "terms": {"<half-exponent k>": int}}
    {"kind": "triple", "plus": <laurent>, "minus": <laurent>,
     "zero": <laurent>, "move": "pass" | "twist"}
    {"kind": "arf", "a": [int], "b": [int]}

Laurent term keys are half-exponents as decimal strings: the key k maps
a coefficient onto t^(k/2), so even keys are integer powers of t.  A key
is accepted only in the form str(k) writes; integers are JSON integers,
never true/false.  An object has only the keys shown, and no object
repeats a key.  Nesting too deep to decode is an invalid document.

Three size limits bound the work any document can ask for: every
half-exponent k satisfies |k| <= MAX_HALF_EXPONENT, S and N have at most
MAX_MATRIX_DIM rows and columns, and their entries e satisfy
|e| <= MAX_MATRIX_ENTRY.  The half-exponent cap also bounds polynomial
texts.  The limits apply here, where input comes in, and not to the
arithmetic itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .errors import AlexpolyError, InvalidDocument
from .invariants import ArfData
from .laurent import LaurentPoly
from .seifert import SeifertPair


# At most 200,001 terms per polynomial.  The commands build no quotient,
# so their Laurent arithmetic is linear in the terms: alink on
# t^50000 - 1 and find-reps on three sparse polynomials spanning
# t^0..t^50000 take under 0.2 s for the whole process (2-vCPU Xeon VM).
MAX_HALF_EXPONENT = 100_000
# pencil_det does two integer Bareiss eliminations of an n x n matrix with
# entries of O(n) bits: about 7 s at n = 64 with entries in [-3, 3] on
# a 2-vCPU Xeon VM.
MAX_MATRIX_DIM = 64
# The bits grow with the entries: with every entry +-15, n = 64 takes
# 18.7-20.6 s on a VM where the [-3, 3] case takes 8.6-9.8 s: about twice.
MAX_MATRIX_ENTRY = 15


@dataclass(frozen=True)
class Triple:
    plus: LaurentPoly
    minus: LaurentPoly
    zero: LaurentPoly
    move: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidDocument(message)


def _require_kind(obj: Any, kind: str) -> None:
    """obj is a document of the given kind with exactly its keys in _KINDS."""
    _require(isinstance(obj, dict), f"{kind} document must be an object")
    _require(obj.get("kind") == kind, f"expected a document of kind {kind!r}")
    keys = _KINDS[kind][0]
    for key in keys:
        _require(key in obj, f"{kind} document needs {key!r}")
    for key in obj:
        _require(key in keys, f"{kind} document has an unknown key {key!r}")


def _require_halfexp_cap(halfexp: int) -> None:
    """Raise InvalidDocument when |halfexp| exceeds MAX_HALF_EXPONENT."""
    _require(
        abs(halfexp) <= MAX_HALF_EXPONENT,
        f"half-exponent {halfexp} is past the cap of {MAX_HALF_EXPONENT}",
    )


def laurent_from_doc(obj: Any) -> LaurentPoly:
    _require_kind(obj, "laurent")
    terms = obj["terms"]
    _require(isinstance(terms, dict), "laurent document needs a terms object")
    out = {}
    for key, coeff in terms.items():
        try:
            halfexp = int(key)
        except (TypeError, ValueError):
            raise InvalidDocument(f"bad half-exponent key {key!r}") from None
        _require(key == str(halfexp), f"bad half-exponent key {key!r}")
        _require_halfexp_cap(halfexp)
        _require(type(coeff) is int, f"coefficient for key {key!r} must be an integer")
        out[halfexp] = coeff
    return LaurentPoly(out)


def laurent_from_text(text: str) -> LaurentPoly:
    """Parse a polynomial in the text grammar of ``LaurentPoly.parse``.

    The half-exponent cap applies as it does to a laurent document; a text
    the grammar rejects raises the parser's ValueError.
    """
    f = LaurentPoly.parse(text)
    if f:
        _require_halfexp_cap(f.min_halfexp)
        _require_halfexp_cap(f.max_halfexp)
    return f


def laurent_to_doc(f: LaurentPoly) -> dict:
    return {"kind": "laurent", "terms": {str(k): c for k, c in sorted(f.terms.items())}}


def seifert_pair_from_doc(obj: Any) -> SeifertPair:
    _require_kind(obj, "seifert_pair")
    _require(type(obj["p"]) is int and type(obj["n"]) is int, "p and n must be integers")
    for key in ("S", "N"):
        rows = obj[key]
        _require(
            isinstance(rows, list) and all(isinstance(row, list) for row in rows),
            f"{key} must be a list of rows",
        )
        _require(
            len(rows) <= MAX_MATRIX_DIM and all(len(row) <= MAX_MATRIX_DIM for row in rows),
            f"{key} is past the cap of {MAX_MATRIX_DIM} rows and columns",
        )
        _require(
            all(type(v) is not int or abs(v) <= MAX_MATRIX_ENTRY for row in rows for v in row),
            f"{key} has an entry past the cap of {MAX_MATRIX_ENTRY}",
        )
    try:
        return SeifertPair(obj["S"], obj["N"], obj["p"], obj["n"])
    except (AlexpolyError, ValueError, TypeError) as exc:
        raise InvalidDocument(f"bad seifert_pair document: {exc}") from None


def seifert_pair_to_doc(pair: SeifertPair) -> dict:
    return {
        "kind": "seifert_pair",
        "p": pair.p,
        "n": pair.n,
        "S": [list(row) for row in pair.S],
        "N": [list(row) for row in pair.N],
    }


def triple_from_doc(obj: Any) -> Triple:
    _require_kind(obj, "triple")
    move = obj["move"]
    _require(move in ("pass", "twist"), 'triple move must be "pass" or "twist"')
    plus, minus, zero = (laurent_from_doc(obj[key]) for key in ("plus", "minus", "zero"))
    return Triple(plus, minus, zero, move)


def arf_from_doc(obj: Any) -> ArfData:
    _require_kind(obj, "arf")
    for key in ("a", "b"):
        _require(isinstance(obj.get(key), list), f"arf document needs a list {key!r}")
        _require(all(type(v) is int for v in obj[key]), f"arf list {key!r} must hold integers")
    try:
        return ArfData(len(obj["a"]), obj["a"], obj["b"])
    except (AlexpolyError, ValueError) as exc:
        raise InvalidDocument(f"bad arf document: {exc}") from None


# Each kind's keys, and the parser that turns such a document into a value.
_KINDS = {
    "seifert_pair": (("kind", "p", "n", "S", "N"), seifert_pair_from_doc),
    "laurent": (("kind", "terms"), laurent_from_doc),
    "triple": (("kind", "move", "plus", "minus", "zero"), triple_from_doc),
    "arf": (("kind", "a", "b"), arf_from_doc),
}


def parse_document(obj: Any) -> SeifertPair | LaurentPoly | Triple | ArfData:
    """The value a decoded document of any kind stands for."""
    _require(isinstance(obj, dict), "document must be a JSON object")
    kind = obj.get("kind")
    _require(kind in _KINDS, f"unknown document kind {kind!r}")
    return _KINDS[kind][1](obj)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """Decode one JSON object; a key that occurs twice is an error."""
    obj = dict(pairs)
    _require(len(obj) == len(pairs), "duplicate key in a JSON object")
    return obj


def load_document(
    path: str, kinds: tuple[str, ...]
) -> SeifertPair | LaurentPoly | Triple | ArfData:
    """The value of the document in a file, which must be one of kinds.

    The whole document is parsed first, so a malformed one is reported as
    such even when its kind is not accepted.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidDocument(f"{path}: {exc}") from None
    value = parse_document(obj)
    kind = obj["kind"]
    _require(kind in kinds, f"{path}: expected a {' or '.join(kinds)} document, got {kind}")
    return value
