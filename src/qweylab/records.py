"""Base classes of the package's records.

The records are plain classes rather than dataclasses: importing
``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
each ``@dataclass`` generates and execs its methods, which together made up
most of the cost of ``import qweylab``.  A record lists its compared fields
in ``_fields``; its ``__init__`` sets them (and any uncompared ones) and then
validates.
"""

from __future__ import annotations


class Record:
    """A record whose equality compares the ``_fields`` of two instances of
    one class; a mutable record is unhashable."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record.  Its ``__init__`` writes its attributes
    into ``self.__dict__``; assigning or deleting one afterwards raises
    AttributeError.  ``functools.cached_property`` writes ``__dict__`` too,
    so it still caches on a frozen record."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
