"""Immutable records that cost nothing to define.

A record class names its fields in ``__slots__`` (in ``_fields`` when it
keeps a ``__dict__`` for a cached_property) and sets them in its own
``__init__`` with ``_set``.  Records of one class with equal fields are equal
and hash alike, records of two classes are never equal, the repr is
``Class(field=value!r, ...)`` and fields can be neither assigned nor deleted:
the semantics of a frozen dataclass, with no code generated at import.
"""

from operator import attrgetter

_set = object.__setattr__


class _Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("__slots__") or cls._fields
        cls._fields = cls.__match_args__ = fields
        cls._key = attrgetter(*fields)  # not a descriptor: self._key(self) works

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
