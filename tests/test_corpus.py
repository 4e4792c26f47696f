from alexpoly import CORPUS, CorpusEntry, RepresentativeWitness, SeifertPair, run_corpus


def test_every_entry_passes():
    report = run_corpus()
    assert report.all_passed, [r for r in report.results if not r.passed]


def test_expected_entries_present():
    names = [entry.name for entry in CORPUS]
    for required in ("intro-triple", "osaka2-twist", "aa-triple"):
        assert required in names


def test_deterministic():
    assert run_corpus() == run_corpus()


def test_entry_data_accessors():
    entry = {e.name: e for e in CORPUS}["osaka2-twist"]
    assert entry.pair("zero").S == ((-1,),)
    assert entry.poly("plus_expected").eval_at_one() == 1


# The exact failures of entries with one deliberate error, as the checks
# reported them before they became generators.  Together they reach every
# kind of message, and an error that run_corpus catches.
_NOT_TRANSPOSE = "negative matrix is not the transpose of the positive one"
_SMITH = "PreconditionViolated: Smith form of S - N is not diag(1, ..., 1, 0)"


def _not_q_balanced(label):
    others = ("plus", "minus", "plus2", "minus2")
    return tuple(
        f"{a}/{b}: not Q-balanced"
        for i, a in enumerate(others)
        for b in others[i + 1 :]
        if label in (a, b)
    )


BUMPED_FAILURES = {
    ("mississippi-classes", "plus", "S"): (
        "plus: intersection form is nonzero",
        "plus: integer class is -4 + 5*t^1, expected -4 + 4*t^1",
    ) + _not_q_balanced("plus"),
    ("mississippi-classes", "plus", "N"): (
        "plus: intersection form is nonzero",
        "plus: integer class is -5 + 4*t^1, expected -4 + 4*t^1",
    ) + _not_q_balanced("plus"),
    ("mississippi-classes", "minus", "S"): (
        "minus: intersection form is nonzero",
        "minus: integer class is -3 + 4*t^1, expected -3 + 3*t^1",
    ) + _not_q_balanced("minus"),
    ("mississippi-classes", "minus", "N"): (
        "minus: intersection form is nonzero",
        "minus: integer class is -4 + 3*t^1, expected -3 + 3*t^1",
    ) + _not_q_balanced("minus"),
    ("mississippi-classes", "plus2", "S"): (
        "plus2: intersection form is nonzero",
        "plus2: integer class is -2 + 3*t^1, expected -2 + 2*t^1",
    ) + _not_q_balanced("plus2"),
    ("mississippi-classes", "plus2", "N"): (
        "plus2: intersection form is nonzero",
        "plus2: integer class is -3 + 2*t^1, expected -2 + 2*t^1",
    ) + _not_q_balanced("plus2"),
    ("mississippi-classes", "minus2", "S"): (
        "minus2: intersection form is nonzero",
        "minus2: integer class is -1 + 2*t^1, expected -1 + 1*t^1",
    ) + _not_q_balanced("minus2"),
    ("mississippi-classes", "minus2", "N"): (
        "minus2: intersection form is nonzero",
        "minus2: integer class is -2 + 1*t^1, expected -1 + 1*t^1",
    ) + _not_q_balanced("minus2"),
    ("mississippi-triples", "plus", "S"): ("(plus, minus): pass-move residual 1*t^1",),
    ("mississippi-triples", "plus", "N"): ("(plus, minus): pass-move residual -1",),
    ("mississippi-triples", "minus", "S"): ("(plus, minus): pass-move residual -1*t^1",),
    ("mississippi-triples", "minus", "N"): ("(plus, minus): pass-move residual 1",),
    ("mississippi-triples", "plus2", "S"): ("(plus2, minus2): pass-move residual 1*t^1",),
    ("mississippi-triples", "plus2", "N"): ("(plus2, minus2): pass-move residual -1",),
    ("mississippi-triples", "minus2", "S"): ("(plus2, minus2): pass-move residual -1*t^1",),
    ("mississippi-triples", "minus2", "N"): ("(plus2, minus2): pass-move residual 1",),
    ("osaka2-twist", "plus", "S"): (
        f"plus: {_NOT_TRANSPOSE}",
        "plus: normalized polynomial 2 + -1*t^1, expected 1",
        "twist-move residual 1 + -1*t^1",
    ),
    ("osaka2-twist", "plus", "N"): (
        f"plus: {_NOT_TRANSPOSE}",
        "plus: normalized polynomial -1*t^-1 + 2, expected 1",
        "twist-move residual -1*t^-1 + 1",
    ),
    ("osaka2-twist", "minus", "S"): (
        f"minus: {_NOT_TRANSPOSE}",
        "minus: normalized polynomial 1*t^-1, expected 1*t^-1 + -1 + 1*t^1",
        "twist-move residual -1 + 1*t^1",
    ),
    ("osaka2-twist", "minus", "N"): (
        f"minus: {_NOT_TRANSPOSE}",
        "minus: normalized polynomial 1*t^1, expected 1*t^-1 + -1 + 1*t^1",
        "twist-move residual 1*t^-1 + -1",
    ),
    ("osaka2-twist", "zero", "S"): (
        f"zero: {_NOT_TRANSPOSE}",
        "zero: normalized polynomial 1*t^(-1/2), expected 1*t^(-1/2) + -1*t^(1/2)",
        "twist-move residual 1 + -1*t^1",
    ),
    ("osaka2-twist", "zero", "N"): (
        f"zero: {_NOT_TRANSPOSE}",
        "zero: normalized polynomial -1*t^(1/2), expected 1*t^(-1/2) + -1*t^(1/2)",
        "twist-move residual -1*t^-1 + 1",
    ),
    ("osaka2-twinkle", "zero", "S"): (_SMITH,),
    ("osaka2-twinkle", "zero", "N"): (_SMITH,),
}


def _failures(entry):
    (result,) = run_corpus((entry,)).results
    return result.failures


def test_bumped_pairs_give_the_recorded_failures():
    """+1 on the first S cell and on the first N cell of every corpus pair."""
    seen = set()
    for entry in CORPUS:
        for label, pair in entry.pairs:
            for which in ("S", "N"):
                s, n = [list(row) for row in pair.S], [list(row) for row in pair.N]
                (s if which == "S" else n)[0][0] += 1
                bumped = SeifertPair(s, n, pair.p, pair.n)
                pairs = tuple((k, bumped if k == label else v) for k, v in entry.pairs)
                key = (entry.name, label, which)
                seen.add(key)
                replaced = CorpusEntry(entry.name, entry.description, entry.check, pairs, entry.polys)
                assert _failures(replaced) == BUMPED_FAILURES[key]
    assert seen == set(BUMPED_FAILURES)


def test_replaced_values_give_the_recorded_failures(monkeypatch):
    entries = {entry.name: entry for entry in CORPUS}
    plus_failures = {
        "intro-triple": ("pass-move residual 1",),
        "aa-triple": ("pass-move residual 1",),
        "aa2-triple": ("pass-move residual 1",),
        "intro-reps": ("no representative witness found",),
    }
    for name, want in plus_failures.items():
        entry = entries[name]
        polys = tuple((k, v + 1 if k == "plus" else v) for k, v in entry.polys)
        replaced = CorpusEntry(entry.name, entry.description, entry.check, entry.pairs, polys)
        assert _failures(replaced) == want
    entry = entries["osaka2-twinkle"]
    pairs = (("zero", SeifertPair([[0]], [[0]], 1, 1)),)
    twinkle = CorpusEntry(entry.name, entry.description, entry.check, pairs, entry.polys)
    assert _failures(twinkle) == ("second-order value -1 vs pairing 0, expected -1",)
    entry = entries["mississippi-classes"]
    pairs = tuple(
        (k, SeifertPair([[3]], [[3]], 1, 2) if k == "plus2" else v) for k, v in entry.pairs
    )
    classes = CorpusEntry(entry.name, entry.description, entry.check, pairs, entry.polys)
    assert _failures(classes) == (
        "plus2: integer class is -3 + 3*t^1, expected -2 + 2*t^1",
        "minus/plus2: unexpectedly Z-balanced",
    )
    # A witness whose shifts do not satisfy the identity.
    wrong = RepresentativeWitness(((1, 1), (1, 0), (1, 0)))
    monkeypatch.setattr("alexpoly.corpus.find_representatives", lambda *classes: wrong)
    assert _failures(entries["intro-reps"]) == ("witness does not satisfy the identity",)
