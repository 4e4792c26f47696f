"""The base of the package's immutable value types.

A subclass lists its fields as class annotations, and its own
``__init__`` writes exactly those fields, in that order, into the
instance ``__dict__``, so the dict's values are the field tuple.  The base
gives what ``@dataclass(frozen=True)`` would, with the same behaviour and
text, but generates no code when a class is made: equality within one
class and hashing on the field tuple, the dataclass repr,
``__match_args__``, and a FrozenInstanceError on any set or delete.
Instances keep their ``__dict__``, so ``copy`` and ``pickle`` work through
the default reduce, which never calls ``__setattr__``.
"""


class _Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
