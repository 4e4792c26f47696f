"""The 13 value types behave as the frozen dataclasses they replaced did.

Each case builds one value positionally and by keyword.  The field names
and repr strings below were recorded from the dataclass versions, less
the five fields that restated another field and are now read-only
properties.  A cold import of the package loads neither ``dataclasses``
nor ``inspect``.
"""
import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import MappingProxyType

import pytest

from alexpoly import (
    AlexanderMatrix,
    ArfData,
    BalancedClass,
    CorpusEntry,
    CorpusReport,
    EntryResult,
    InvariantReport,
    LaurentPoly,
    NormalizedInput,
    NotSquare,
    ONE,
    RepresentativeWitness,
    Ring,
    SeifertPair,
    SkeinVerdict,
    T,
    UnimodularPair,
    ZERO,
    report,
)
from alexpoly.documents import Triple

ROOT = Path(__file__).resolve().parent.parent

F = LaurentPoly.parse("1 + 2*t^1")
PAIR = SeifertPair([[1]], [[0]], 1, 1)
RESULT = EntryResult("e", ("bad",))

# (type, field names, positional arguments, repr recorded from the dataclass)
CASES = [
    (
        SeifertPair, ("S", "N", "p", "n"), (((1,),), ((0,),), 1, 1),
        "SeifertPair(S=((1,),), N=((0,),), p=1, n=1)",
    ),
    (
        AlexanderMatrix, ("entries",), (((T, ONE),),),
        "AlexanderMatrix(entries=((LaurentPoly('1*t^1'), LaurentPoly('1')),))",
    ),
    (
        UnimodularPair, ("P", "Q"), (((1,),), ((1, 1), (0, 1))),
        "UnimodularPair(P=((1,),), Q=((1, 1), (0, 1)))",
    ),
    (
        BalancedClass, ("representative", "ring"), (F, Ring.Z),
        "BalancedClass(representative=LaurentPoly('1 + 2*t^1'), ring=<Ring.Z: 'Z'>)",
    ),
    (
        SkeinVerdict, ("lhs", "rhs", "residual"), (F, ONE, F - ONE),
        "SkeinVerdict(lhs=LaurentPoly('1 + 2*t^1'), rhs=LaurentPoly('1'), "
        "residual=LaurentPoly('2*t^1'))",
    ),
    (
        RepresentativeWitness, ("shifts",), (((1, 0), (-1, 2), (1, 0)),),
        "RepresentativeWitness(shifts=((1, 0), (-1, 2), (1, 0)))",
    ),
    (
        NormalizedInput, ("pair", "middle_condition"), (PAIR, True),
        "NormalizedInput(pair=SeifertPair(S=((1,),), N=((0,),), p=1, n=1), middle_condition=True)",
    ),
    (
        ArfData, ("a", "b"), ((1, 0), (0, 3)),
        "ArfData(a=(1, 0), b=(0, 3))",
    ),
    (
        InvariantReport, ("polynomial", "class_z", "class_q"),
        (F, BalancedClass(F, Ring.Z), BalancedClass(F, Ring.Q)),
        "InvariantReport(polynomial=LaurentPoly('1 + 2*t^1'), "
        "class_z=BalancedClass(representative=LaurentPoly('1 + 2*t^1'), ring=<Ring.Z: 'Z'>), "
        "class_q=BalancedClass(representative=LaurentPoly('1 + 2*t^1'), ring=<Ring.Q: 'Q'>))",
    ),
    (
        Triple, ("plus", "minus", "zero", "move"), (F, ONE, ZERO, "pass"),
        "Triple(plus=LaurentPoly('1 + 2*t^1'), minus=LaurentPoly('1'), zero=LaurentPoly('0'), "
        "move='pass')",
    ),
    (
        # The check is never called here; a builtin keeps the repr free of addresses.
        CorpusEntry, ("name", "description", "check", "pairs", "polys"),
        ("e", "an entry", len, (("p", PAIR),), (("f", F),)),
        "CorpusEntry(name='e', description='an entry', check=<built-in function len>, "
        "pairs=(('p', SeifertPair(S=((1,),), N=((0,),), p=1, n=1)),), "
        "polys=(('f', LaurentPoly('1 + 2*t^1')),))",
    ),
    (
        EntryResult, ("name", "failures"), ("e", ("bad",)),
        "EntryResult(name='e', failures=('bad',))",
    ),
    (
        CorpusReport, ("results",), ((RESULT,),),
        "CorpusReport(results=(EntryResult(name='e', failures=('bad',)),))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, args, text):
    assert cls.__match_args__ == fields
    value = cls(*args)
    assert value == cls(**dict(zip(fields, args)))
    assert not value != cls(*args)
    assert repr(value) == text
    for name, arg in zip(fields, args):
        assert getattr(value, name) == arg


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_hash_follows_equality(cls, fields, args, text):
    assert hash(cls(*args)) == hash(cls(**dict(zip(fields, args))))


def test_equality_needs_the_same_type_and_fields():
    assert EntryResult("e", ()) != EntryResult("e", ("bad",))
    assert RepresentativeWitness() != SkeinVerdict(ONE, ONE, ZERO)
    assert SeifertPair([[1]], [[0]], 1, 1) != (((1,),), ((0,),), 1, 1)
    assert EntryResult.__eq__(RESULT, ("e", ("bad",))) is NotImplemented


def test_match_binds_fields_by_position():
    match PAIR:
        case SeifertPair(S, N, p, n):
            assert (S, N, p, n) == (((1,),), ((0,),), 1, 1)
        case _:
            pytest.fail("no match")


def test_defaults():
    assert RepresentativeWitness() == RepresentativeWitness(())
    entry = CorpusEntry("e", "an entry", len)
    assert (entry.pairs, entry.polys) == ((), ())


def test_constructor_checks_still_raise():
    with pytest.raises(TypeError, match="middle_condition must be a bool"):
        NormalizedInput(PAIR, 1)
    with pytest.raises(ValueError, match="need n = 4k\\+1 and p = 2k\\+1"):
        NormalizedInput(SeifertPair([[1]], [[0]], 1, 2), True)
    with pytest.raises(NotSquare):
        NormalizedInput(SeifertPair([[1, 0]], [[0, 0]], 1, 1), True)
    with pytest.raises(TypeError, match="must be a LaurentPoly"):
        BalancedClass("1 + 2*t^1", Ring.Z)
    with pytest.raises(ValueError, match="is not the canonical Z representative"):
        BalancedClass(-F, Ring.Z)
    with pytest.raises(TypeError, match="ring must be Ring.Z or Ring.Q"):
        BalancedClass(F, "Z")


def test_scalars_are_read_only_and_derived_from_the_polynomial():
    value = InvariantReport(F, BalancedClass(F, Ring.Z), BalancedClass(F, Ring.Q))
    assert type(value.scalars) is MappingProxyType
    assert value.scalars == {"determinant_at_one": 3}
    with pytest.raises(TypeError):
        value.scalars["determinant_at_one"] = 5
    assert value.scalars == {"determinant_at_one": 3}
    g = 4 * (T - ONE)
    classes = (BalancedClass.from_poly(g, Ring.Z), BalancedClass.from_poly(g, Ring.Q))
    value = InvariantReport(g, *classes)
    assert value.scalars == {"determinant_at_one": 0, "pseudo_alinking": 4}


# (value, a property derived from its stored fields, its value)
DERIVED = [
    (SkeinVerdict(F, ONE, F - ONE), "holds", False),
    (SkeinVerdict(F, F, ZERO), "holds", True),
    (RepresentativeWitness(), "found", False),
    (RepresentativeWitness(((1, 0), (1, 0), (1, 0))), "found", True),
    (EntryResult("e", ()), "passed", True),
    (RESULT, "passed", False),
    (ArfData((1, 0), (0, 3)), "nu", 2),
    (InvariantReport(F, BalancedClass(F, Ring.Z), BalancedClass(F, Ring.Q)), "scalars",
     {"determinant_at_one": 3}),
]


@pytest.mark.parametrize(
    "value, name, want", DERIVED,
    ids=["not-holds", "holds", "not-found", "found", "passed", "not-passed", "nu", "scalars"],
)
def test_derived_values_are_properties_of_the_stored_fields(value, name, want):
    cls = type(value)
    assert tuple(vars(value)) == cls.__match_args__ and name not in vars(value)
    assert isinstance(getattr(cls, name), property) and getattr(value, name) == want
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, want)
    # The constructor takes no derived value, so none can contradict the fields.
    with pytest.raises(TypeError):
        cls(*vars(value).values(), want)


def test_keyword_patterns_match_derived_values():
    match SkeinVerdict(F, F, ZERO):
        case SkeinVerdict(holds=True, residual=r):
            assert r == ZERO
        case _:
            pytest.fail("no match")
    match RepresentativeWitness():
        case RepresentativeWitness(found=False):
            pass
        case _:
            pytest.fail("no match")


def test_report_hashes_deep_copies_and_pickles():
    value = report(SeifertPair([[4]], [[4]], 1, 2))
    assert hash(value) == hash(report(SeifertPair([[4]], [[4]], 1, 2)))
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is InvariantReport and clone == value
        assert hash(clone) == hash(value)
        assert clone.scalars == {"determinant_at_one": 0, "pseudo_alinking": 4}


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(cls, fields, args, text):
    value = cls(*args)
    for name in (fields[0], "other"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == cls(*args) and not hasattr(value, "other")


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_equal_values(cls, fields, args, text):
    value = cls(*args)
    assert copy.copy(value) == value
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value and repr(clone) == text


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import alexpoly\n"
        "from alexpoly import cli\n"
        "assert cli.main(['canon', '--ring', 'Z', '1 + 2*t^1']) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["canonical: 1 + 2*t^1", "[]"]
