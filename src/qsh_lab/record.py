"""Plain record classes: field-wise repr, equality, hashing and pickling.

A record class lists its fields, in order, as its ``__slots__`` and
writes its own ``__init__``, which takes every field positionally in
that order (unpickling calls it so).  Nothing is generated: the methods
below read the fields through ``__slots__``.

``Record`` is a mutable record: repr ``Name(field=value, ...)``,
equality of the field tuples between instances of one class, and no
hash.  ``FrozenRecord`` is an immutable one: its ``__init__`` sets the
fields with ``_init``, any later assignment raises AttributeError, and
its hash is the hash of the field tuple.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def _init(self, *values):
        """Set the fields, in ``__slots__`` order; only ``__init__`` may."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
