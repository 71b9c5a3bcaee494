"""Frozen value classes without ``dataclasses``.

A subclass names its fields, in order, in ``__slots__`` and sets them in
an explicit ``__init__`` through ``_freeze`` after validating them.  The
base supplies what a frozen dataclass would: equality only between
objects of one class, a hash of the field tuple, the ``Name(field=value)``
repr that error texts embed, refusal of assignment, pickling and copying,
and a validating ``replace``.  Importing ``dataclasses`` would pull in
``inspect`` and cost the command line most of its start-up time.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        # the field tuple, read in C: specs are compared and hashed on hot
        # paths (operator spaces, cache keys).  attrgetter returns a tuple
        # only for two or more names.
        if len(cls.__slots__) < 2:
            raise TypeError("a value class needs at least two fields")
        cls._fields = attrgetter(*cls.__slots__)

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)

    def replace(self, **changes):
        """A copy with some fields changed, validated as a new object."""
        unknown = changes.keys() - self.__slots__
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field "
                            f"{min(unknown)!r}")
        return type(self)(*(changes.get(name, getattr(self, name))
                            for name in self.__slots__))
