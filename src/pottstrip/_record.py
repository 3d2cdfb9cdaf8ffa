"""The shared base of the package's immutable records.

A record is a plain class whose ``__slots__`` list its fields, in order.
The base gives every record value equality (records of different classes
are never equal), a value hash, so that records can key the caches that
hold strips and bond operations, a ``repr`` in field order, an error on
assignment, and ``copy`` and ``pickle`` through ``__init__``.  Each
record's ``__init__`` validates its arguments where needed and stores them
with ``_assign``.

Hand-written instead of ``dataclasses``: importing that module costs every
process about 13 ms (it pulls in ``inspect``) and each decorated class
another millisecond, against a few tens of milliseconds of work in a
typical command.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _assign(self, *values) -> None:
        """Store ``values`` in field order; only ``__init__`` calls this."""
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__; the default would assign
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {self.__class__.__name__}")
