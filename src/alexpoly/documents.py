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

Four size limits bound the work any document can ask for: a document
file has at most MAX_DOCUMENT_BYTES bytes, every half-exponent k
satisfies |k| <= MAX_HALF_EXPONENT, S and N have at most MAX_MATRIX_DIM
rows and columns, and their entries e satisfy |e| <= MAX_MATRIX_ENTRY.
The half-exponent cap also bounds polynomial texts.  The limits apply
here, where input comes in, and not to the arithmetic itself.
"""
from __future__ import annotations

import json

from .errors import AlexpolyError, InvalidDocument, short_repr
from .invariants import ArfData
from .laurent import LaurentPoly
from .seifert import SeifertPair
from .skein import Triple


# A document is read whole before it is parsed, so a path to an endless
# stream such as /dev/zero must stop at a cap.  A triple of three dense
# 200,001-term polynomials with one-digit coefficients is about 8 MB.
MAX_DOCUMENT_BYTES = 64 * 2**20
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidDocument(message)


def _require_halfexp_cap(halfexp: int) -> None:
    """Raise InvalidDocument when |halfexp| exceeds MAX_HALF_EXPONENT."""
    if abs(halfexp) > MAX_HALF_EXPONENT:
        raise InvalidDocument(f"half-exponent {short_repr(halfexp)} is past the cap of {MAX_HALF_EXPONENT}")


def _parse(obj: object, kind: str) -> SeifertPair | LaurentPoly | Triple | ArfData:
    """The value of obj, an object of kind with exactly the keys of its _KINDS row.

    The row's maker builds the value.  An InvalidDocument from it passes
    through; any other refusal reads as a bad document of that kind.
    """
    _require(isinstance(obj, dict), f"{kind} document must be an object")
    _require(obj.get("kind") == kind, f"expected a document of kind {kind!r}")
    keys, make = _KINDS[kind]
    for key in keys:
        _require(key in obj, f"{kind} document needs {key!r}")
    for key in obj:
        if key not in keys:
            raise InvalidDocument(f"{kind} document has an unknown key {short_repr(key)}")
    try:
        return make(obj)
    except InvalidDocument:
        raise
    except (AlexpolyError, ValueError, TypeError) as exc:
        raise InvalidDocument(f"bad {kind} document: {exc}") from None


def _laurent(obj: dict) -> LaurentPoly:
    """The polynomial of a laurent document; LaurentPoly checks the coefficients."""
    terms = obj["terms"]
    if not isinstance(terms, dict):
        raise InvalidDocument("laurent document needs a terms object")
    out = {}
    for key, coeff in terms.items():
        try:
            halfexp = int(key)
        except (TypeError, ValueError):
            halfexp = None
        if halfexp is None or key != str(halfexp):
            raise InvalidDocument(f"bad half-exponent key {short_repr(key)}")
        out[halfexp] = coeff
    if out:
        _require_halfexp_cap(min(out))
        _require_halfexp_cap(max(out))
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


def _seifert_pair(obj: dict) -> SeifertPair:
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
    return SeifertPair(obj["S"], obj["N"], obj["p"], obj["n"])


def _triple(obj: dict) -> Triple:
    plus, minus, zero = (_parse(obj[key], "laurent") for key in ("plus", "minus", "zero"))
    return Triple(plus, minus, zero, obj["move"])


def _arf(obj: dict) -> ArfData:
    for key in ("a", "b"):
        _require(isinstance(obj[key], list), f"arf document needs a list {key!r}")
    return ArfData(obj["a"], obj["b"])


# Each kind's keys, and the maker of its value from a document _parse checked.
_KINDS = {
    "seifert_pair": (("kind", "p", "n", "S", "N"), _seifert_pair),
    "laurent": (("kind", "terms"), _laurent),
    "triple": (("kind", "move", "plus", "minus", "zero"), _triple),
    "arf": (("kind", "a", "b"), _arf),
}


def parse_document(obj: object) -> SeifertPair | LaurentPoly | Triple | ArfData:
    """The value a decoded document of any kind stands for."""
    _require(isinstance(obj, dict), "document must be a JSON object")
    kind = obj.get("kind")
    _require(isinstance(kind, str) and kind in _KINDS, f"unknown document kind {short_repr(kind)}")
    return _parse(obj, kind)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Decode one JSON object; a key that occurs twice is an error."""
    obj = dict(pairs)
    _require(len(obj) == len(pairs), "duplicate key in a JSON object")
    return obj


def load_document(
    path: str, kinds: tuple[str, ...]
) -> SeifertPair | LaurentPoly | Triple | ArfData:
    """The value of the document in a file, which must be one of kinds.

    The whole document is parsed first, so a malformed one is reported as
    such even when its kind is not accepted.  The bytes are decoded as
    UTF-8 before they are parsed, since json.loads on bytes would also
    take UTF-16 and UTF-32.  Line ends are then read as a file opened in
    text mode reads them, CR LF and CR as LF, so a JSON error gives the
    line and character it would give there.  Any refusal, from the byte
    cap to the kind, raises one InvalidDocument "<path>: <reason>".
    """
    # Read in chunks: one read of up to the whole cap would allocate the
    # cap for every document, which made each load of a small one about
    # twice as slow (2-vCPU VM).
    data = bytearray()
    with open(path, "rb") as handle:
        while len(data) <= MAX_DOCUMENT_BYTES and (chunk := handle.read(2**16)):
            data += chunk
    try:
        if len(data) > MAX_DOCUMENT_BYTES:
            raise InvalidDocument(f"document is past the cap of {MAX_DOCUMENT_BYTES} bytes")
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        value = parse_document(obj)
        kind = obj["kind"]
        _require(kind in kinds, f"expected a {' or '.join(kinds)} document, got {kind}")
    except (InvalidDocument, ValueError, RecursionError) as exc:
        raise InvalidDocument(f"{path}: {exc}") from None
    return value
