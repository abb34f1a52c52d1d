"""Plain value records declared by a ``FIELDS`` tuple.

A :class:`Record` subclass lists its constructor parameters once, in
``FIELDS``, and every serialized form derives from that list: the
canonical tuple that feeds cache keys, the JSON-safe dict, and the
constructor call that rebuilds an instance from that dict. A parameter
added to the constructor but not to ``FIELDS`` would reach none of them;
``tests/harness/test_spec_fields.py`` compares each subclass's
``FIELDS`` with its constructor signature.
"""

import enum


def _plain(value):
    """JSON-safe form of one field value (records nest as dicts)."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.name
    return value


class Record:
    """Mixin giving a ``FIELDS``-declared class its serialized forms."""

    FIELDS = ()

    def canonical(self):
        """Primitive ``(name, value)`` pairs in ``FIELDS`` order."""
        return tuple((name, getattr(self, name)) for name in self.FIELDS)

    def to_dict(self):
        """JSON-safe dict of every field; inverse of :meth:`from_dict`."""
        return {name: _plain(getattr(self, name)) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        """Rebuild an instance; fields missing from ``data`` default."""
        return cls(**{k: data[k] for k in cls.FIELDS if k in data})

    def __repr__(self):
        knobs = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.FIELDS
        )
        return f"{type(self).__name__}({knobs})"
