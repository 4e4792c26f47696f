"""Exception types shared across the package, and the repr their messages use."""
import reprlib

# A message may quote a value from a document of up to 64 MiB, so it
# shows the top level of a container only, at most six items, and cuts
# each item's repr to 24 characters: under 250 characters in all.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 24


def short_repr(value: object) -> str:
    """The repr of value for an error message, cut to a bounded length."""
    return _SHORT.repr(value)


class AlexpolyError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(AlexpolyError):
    """Exact polynomial division has no quotient over the integers."""


class NonIntegerExponent(AlexpolyError):
    """A half power of t appeared where only integer powers are allowed."""


class NotSquare(AlexpolyError):
    """A determinant-like operation received a non-square matrix."""


class ShapeMismatch(AlexpolyError):
    """Matrix or list dimensions do not line up."""


class NotUnimodular(AlexpolyError):
    """A basis-change matrix does not have determinant +-1."""


class PreconditionViolated(AlexpolyError):
    """Input data lacks the structure the operation requires."""


class InvalidDocument(AlexpolyError):
    """A JSON input document is malformed or has the wrong kind."""
