"""The shared base of the package's immutable records.

A record is a plain class whose ``__slots__`` list its fields, in order.
The base gives every record one constructor, which takes the fields in
order or by name, value equality (records of different classes are never
equal), a value hash, so that records can key the caches that hold strips
and bond operations, a ``repr`` in field order, an error on assignment,
and ``copy`` and ``pickle`` through ``__init__``.  A record defines its own
``__init__``, calling the base's, only to check or default a field:
``EdgeOp``, ``CyclicStrip`` and ``ConnectivityState`` validate their
arguments, and ``CheckResult`` defaults its ``detail`` to "".

Hand-written instead of ``dataclasses``: importing that module costs every
process about 13 ms (it pulls in ``inspect``), against a few tens of
milliseconds of work in a typical command.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        """Store the fields, given in order or by name; a missing, extra,
        repeated or unknown field raises TypeError.

        >>> class Point(Record):
        ...     __slots__ = ("x", "y")
        >>> Point(1, y=2)
        Point(x=1, y=2)
        >>> Point(1, x=2)
        Traceback (most recent call last):
        TypeError: Point() takes the fields x, y; got 1 in order and x by name
        """
        names = self.__slots__
        if named or len(values) != len(names):
            rest = names[len(values) :]
            if len(values) > len(names) or named.keys() != set(rest):
                raise TypeError(
                    f"{self.__class__.__name__}() takes the fields {', '.join(names)}; "
                    f"got {len(values)} in order and {', '.join(named) or 'none'} by name"
                )
            values += tuple(named[name] for name in rest)
        for name, value in zip(names, values):
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
