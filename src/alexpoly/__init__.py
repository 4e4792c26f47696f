"""Exact Seifert-matrix invariants of links.

Laurent-polynomial arithmetic in t^(1/2) with integer coefficients, the
Alexander matrix t*S - N and its normalized variant, balanced-class
equivalence over Z and Q, the derived integer invariants (pseudo-alinking,
pseudo-twinkling, Arf), and skein-style identity checks for pass- and
twist-move triples.  Everything is exact; no floating point is used.

All public values (polynomials, matrices, pairs, classes) are immutable,
and every operation is a pure function, so shared values are safe to use
from any number of threads.
"""

from .balance import BalancedClass, Ring, canonicalize, q_balanced_eq, z_balanced_eq
from .corpus import CORPUS, CorpusEntry, CorpusReport, EntryResult, run_corpus
from .errors import (
    AlexpolyError,
    InvalidDocument,
    NonIntegerExponent,
    NotDivisible,
    NotSquare,
    NotUnimodular,
    PreconditionViolated,
    ShapeMismatch,
)
from .invariants import (
    ArfData,
    InvariantReport,
    NormalizedInput,
    arf,
    first_order_at_one,
    normalized_alexander,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
    pseudo_twinkling_from_pair,
    q_alexander,
    report,
    second_order_at_one,
    z_alexander,
)
from .laurent import ONE, T, T_HALF, ZERO, LaurentPoly
from .seifert import (
    AlexanderMatrix,
    SeifertPair,
    UnimodularPair,
    alexander_matrix,
    basis_change,
    check_duality,
    det,
    intersection_form,
    normalized_matrix,
    stabilize,
)
from .skein import (
    RepresentativeWitness,
    SkeinVerdict,
    check_pass_move,
    check_twist_move,
    find_representatives,
    search_window,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderMatrix",
    "AlexpolyError",
    "ArfData",
    "BalancedClass",
    "CORPUS",
    "CorpusEntry",
    "CorpusReport",
    "EntryResult",
    "InvalidDocument",
    "InvariantReport",
    "LaurentPoly",
    "NonIntegerExponent",
    "NormalizedInput",
    "NotDivisible",
    "NotSquare",
    "NotUnimodular",
    "ONE",
    "PreconditionViolated",
    "RepresentativeWitness",
    "Ring",
    "SeifertPair",
    "ShapeMismatch",
    "SkeinVerdict",
    "T",
    "T_HALF",
    "UnimodularPair",
    "ZERO",
    "alexander_matrix",
    "arf",
    "basis_change",
    "canonicalize",
    "check_duality",
    "check_pass_move",
    "check_twist_move",
    "det",
    "find_representatives",
    "first_order_at_one",
    "intersection_form",
    "normalized_alexander",
    "normalized_matrix",
    "pseudo_alinking_from_pair",
    "pseudo_alinking_from_poly",
    "pseudo_twinkling_from_pair",
    "q_alexander",
    "q_balanced_eq",
    "report",
    "run_corpus",
    "search_window",
    "second_order_at_one",
    "stabilize",
    "z_alexander",
    "z_balanced_eq",
]
