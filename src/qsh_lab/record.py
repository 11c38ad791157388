"""Plain immutable record classes: field-wise repr, equality, hashing and
pickling.

A record class lists its fields, in order, as its ``__slots__`` and
writes its own ``__init__``, which takes every field positionally in
that order (unpickling calls it so) and sets them with ``_init``.
Nothing is generated: the methods below read the fields through
``__slots__``.

A record has repr ``Name(field=value, ...)``, equality of the field
tuples between instances of one class, and the hash of its field tuple
(so a record with an unhashable field is unhashable).  Any assignment
after ``__init__`` raises AttributeError.
"""


class Record:
    __slots__ = ()

    def _init(self, *values):
        """Set the fields, in ``__slots__`` order; only ``__init__`` may."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
