"""Immutable records: the base of the package's parameter and result types.

A record's fields are the ``__slots__`` of its class, in order. Its
``__init__`` stores them with :meth:`Frozen._assign` and then checks
them; afterwards every assignment or deletion raises ``AttributeError``.
The classes are written out by hand, so importing them generates no code.
"""

from __future__ import annotations

__all__ = ["Frozen", "Record"]


class Frozen:
    """Identity-compared immutable record."""

    __slots__ = ()

    def _assign(self, values) -> None:
        """Store each field from ``values`` (a mapping such as the
        ``locals()`` of ``__init__``)."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable record")

    def __setstate__(self, state) -> None:
        # Unpickling and copying restore the slots without __setattr__.
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) by the
        constructor."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return type(self)(**{**fields, **changes})


class Record(Frozen):
    """Immutable record compared and hashed by its field values."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
