"""Exception types shared across the package, and the repr their messages use."""
import reprlib


class _ShortRepr(reprlib.Repr):
    # A message may quote a value from a document of up to 64 MiB, so no
    # quote grows with its value.  A container shows its top level only, at
    # most six items, and each item's repr is cut to 24 characters.  A
    # polynomial is quoted as its canonical text, whole up to 2,000
    # characters, else its first and last 1,000 around " ... ".  An int
    # past the interpreter's int-to-text limit (sys.get_int_max_str_digits)
    # has no repr, so it is quoted by its sign and bit length.  reprlib
    # dispatches on the type's name, so this module imports no value type.
    def repr_LaurentPoly(self, f, level):
        text = str(f)
        return text if len(text) <= 2000 else f"{text[:1000]} ... {text[-1000:]}"

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


_SHORT = _ShortRepr()
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
