"""Exact Laurent polynomials in t with half-integer exponents.

A polynomial lives on the half-exponent grid: it is a finite map from an
integer key k to a nonzero integer coefficient, the key k standing for
t^(k/2).  Even keys are the ordinary integer powers of t, so Z[t, t^-1]
and Z[t^(1/2), t^(-1/2)] share this one representation.  Coefficients are
Python ints, hence arbitrary precision; nothing here ever touches floats.

No polynomial stores a zero coefficient.  The constructor checks a map
from outside and drops its zeros.  Sums and products delete each
cancelled term in their own loop, and every other result is built from
nonzero ints, so each takes its one map over as is (``_adopt``).
"""
from __future__ import annotations

import math
import re
from collections.abc import Mapping
from functools import reduce
from heapq import heappop, heappush
from operator import index, or_

from .errors import NotDivisible, short_repr

# One term of the grammar: c, c*t^n or c*t^(k/2).  Only parse() errors use it.
_TERM = re.compile(r"(-?\d+)(?:\*t\^(?:(-?\d+)|\((-?\d+)/2\)))?", re.ASCII)


class LaurentPoly:
    """An integer Laurent polynomial on the t^(1/2) exponent grid.

    Construct from None or a mapping of half-exponents to coefficients,
    both ints (zero values are dropped), or via the helpers below.

    >>> LaurentPoly({2: 1, 0: -1})
    LaurentPoly('-1 + 1*t^1')
    >>> LaurentPoly.t_power(2) * LaurentPoly({1: 1})
    LaurentPoly('1*t^(5/2)')
    >>> print(LaurentPoly({}))
    0
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = out = {}
        if terms is None:
            return
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping or None, not {type(terms).__name__}")
        for k, c in terms.items():
            if type(k) is not int or type(c) is not int:
                term = f"{short_repr(k)}: {short_repr(c)}"
                raise TypeError(f"term {term}: half-exponent and coefficient must be an integer")
            if c:
                out[k] = c

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> LaurentPoly:
        """The constant c; a bool counts as its int."""
        return cls({0: index(c)})

    @classmethod
    def t_power(cls, n: int) -> LaurentPoly:
        """The monomial t^n."""
        return cls({2 * n: 1})

    @classmethod
    def half_power(cls, k: int) -> LaurentPoly:
        """The monomial t^(k/2); a bool counts as its int."""
        return cls({index(k): 1})

    @classmethod
    def parse(cls, text: str) -> LaurentPoly:
        """Parse the canonical rendering produced by ``str``.

        A text is accepted exactly when ``str(parse(text)) == text``: terms
        in strictly ascending exponent order joined by `` + ``, each term
        ``c``, ``c*t^n`` or ``c*t^(k/2)`` with k odd, nonzero coefficients
        without leading zeros; the zero polynomial is the single ``0``.

        Splitting on `` + `` and ``*t^`` and reading the pieces with
        ``int()`` is only a tokenizer, and a lenient one: ``int()`` also
        takes ``+5``, `` 5``, ``1_0`` and non-ASCII digits.  The round trip
        through ``str`` is the grammar check and rejects every such text.
        A rejected text is parsed again term by term against the grammar,
        so the error names the first term that breaks it.

        >>> LaurentPoly.parse('-1*t^-1 + 2 + -1*t^1')
        LaurentPoly('-1*t^-1 + 2 + -1*t^1')
        >>> LaurentPoly.parse('1 + 0*t^1')
        Traceback (most recent call last):
        ...
        ValueError: '1 + 0*t^1' is not in canonical form
        """
        terms: dict[int, int] = {}
        try:
            for part in text.split(" + "):
                coeff, star, exp = part.partition("*t^")
                c = int(coeff)
                if not c:
                    continue
                if not star:
                    terms[0] = c
                elif exp[:1] == "(":
                    terms[int(exp[1:-3])] = c
                else:
                    terms[2 * int(exp)] = c
        except ValueError:
            pass
        else:
            f = _adopt(terms)
            if str(f) == text:
                return f
        raise _parse_error(text)

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the underlying half-exponent map."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def min_halfexp(self) -> int | None:
        """Smallest half-exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    @property
    def max_halfexp(self) -> int | None:
        """Largest half-exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def span_halfexp(self) -> int | None:
        """max_halfexp - min_halfexp, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(self._terms) - min(self._terms)

    def is_integral(self) -> bool:
        """True iff only integer powers of t occur (all keys even).

        One pass over the keys ORs them together: any odd key, negative
        ones included, sets bit 0 of the result.
        """
        return not reduce(or_, self._terms, 0) & 1

    def content(self) -> int:
        """Gcd of the absolute coefficients; 0 for the zero polynomial."""
        return math.gcd(*self._terms.values()) if self._terms else 0

    # -- ring structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it hashes as that int.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):  # a bool counts as its int, as in __mul__
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            v = get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return _adopt(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _adopt({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            v = get(k, 0) - c
            if v:
                out[k] = v
            else:
                del out[k]
        return _adopt(out)

    def __rsub__(self, other: int) -> LaurentPoly:
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return _adopt({k: c * other for k, c in self._terms.items()} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        row = other._terms.items()
        for k, c in self._terms.items():
            for j, d in row:
                e = k + j
                v = out.get(e, 0) + c * d
                if v:
                    out[e] = v
                else:
                    del out[e]
        return _adopt(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):  # a bool counts as its int
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                ((k, c),) = self._terms.items()
                if c in (1, -1):
                    return _adopt({-k: c}) ** (-n)
            raise ValueError("only unit monomials have negative powers")
        if n == 0:
            return LaurentPoly.constant(1)
        half = self ** (n // 2)
        return half * half if n % 2 == 0 else half * half * self

    def shift(self, halfexp: int) -> LaurentPoly:
        """Multiply by the monomial t^(halfexp/2)."""
        if not isinstance(halfexp, int):
            raise TypeError(f"a shift must be an int, got {short_repr(halfexp)}")
        return _adopt({k + halfexp: c for k, c in self._terms.items()})

    def exact_div(self, other: int | LaurentPoly) -> LaurentPoly:
        """Exact quotient q with self = q * other over the integers.

        An int divisor is a constant; any other non-polynomial divisor
        raises TypeError.

        Ascending-exponent long division.  Each step takes the lowest
        remaining term, which fixes one quotient term, and subtracts that
        term times the divisor's other terms (its lowest term cancels by
        construction).  Raises NotDivisible when a quotient coefficient
        would be fractional or a remainder is left.  The zero polynomial
        divides into anything with quotient zero.

        Remaining keys come off a heap, so the cost is
        O((terms(self) + terms(q) * terms(other)) * log) whatever the
        exponent gaps: linear in the terms read and written, up to the log.

        >>> f = LaurentPoly.parse('1 + -3*t^1 + 2*t^2')
        >>> f.exact_div(LaurentPoly.parse('-1 + 1*t^1'))
        LaurentPoly('-1 + 2*t^1')
        """
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot divide by {type(other).__name__}")
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        (g_min, g_low), *g_rest = sorted(other._terms.items())
        steps = [(e - g_min, gc) for e, gc in g_rest]
        # The last remainder key that can start a quotient term.
        last = max(self._terms) - (max(other._terms) - g_min)
        quot: dict[int, int] = {}
        rem = dict(self._terms)
        keys = sorted(rem)  # a heap; keys that left rem are skipped on pop
        while keys:
            r = heappop(keys)
            v = rem.pop(r, 0)
            if not v:
                continue
            c, residue = divmod(v, g_low)
            if residue or r > last:
                raise NotDivisible(f"{short_repr(self)} is not divisible by {short_repr(other)}")
            quot[r - g_min] = c
            for d, gc in steps:
                e = r + d
                v = rem.get(e)
                if v is None:
                    rem[e] = -c * gc
                    heappush(keys, e)
                else:
                    v -= c * gc
                    if v:
                        rem[e] = v
                    else:
                        del rem[e]
        return _adopt(quot)

    def __floordiv__(self, other: int | LaurentPoly) -> LaurentPoly:
        """Exact quotient, as ``exact_div``; an int divisor is a constant.

        >>> LaurentPoly.parse('2 + -4*t^(1/2)') // 2
        LaurentPoly('1 + -2*t^(1/2)')
        """
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self.exact_div(other)

    __truediv__ = __floordiv__

    # -- evaluation and symmetry -------------------------------------------

    def eval_at_one(self) -> int:
        """Value at t = 1, i.e. the coefficient sum."""
        return sum(self._terms.values())

    def invert_variable(self) -> LaurentPoly:
        """Substitute t -> t^-1 (negate every exponent)."""
        return _adopt({-k: c for k, c in self._terms.items()})

    def is_inversion_symmetric(self) -> bool:
        """True iff the polynomial is unchanged under t -> t^-1."""
        return all(self._terms.get(-k) == c for k, c in self._terms.items())

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        parts = []
        for k in sorted(terms):
            c = terms[k]
            if k & 1:
                parts.append(f"{c}*t^({k}/2)")
            elif k:
                parts.append(f"{c}*t^{k // 2}")
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _parse_error(text: str) -> ValueError:
    """The error for a text ``LaurentPoly.parse`` rejects.

    The first term the grammar does not match is named; before that term
    is reached, a coefficient or exponent that ``int()`` refuses (more
    digits than ``sys.get_int_max_str_digits()``) raises that error here.
    A text whose terms all match is not in canonical form.
    """
    for part in text.split(" + "):
        m = _TERM.fullmatch(part)
        if m is None:
            return ValueError(f"cannot parse term {part!r}")
        for digits in m.groups():
            if digits is not None:
                int(digits)
    return ValueError(f"{text!r} is not in canonical form")


def _adopt(terms: dict[int, int]) -> LaurentPoly:
    """The polynomial of terms, a new map of ints onto nonzero ints; takes it over unchecked."""
    f = object.__new__(LaurentPoly)
    f._terms = terms
    return f


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
T = LaurentPoly.t_power(1)
T_MINUS_ONE = T - 1
T_HALF = LaurentPoly.half_power(1)
T_HALF_DIFF = T_HALF - LaurentPoly.half_power(-1)  # t^(1/2) - t^(-1/2)
