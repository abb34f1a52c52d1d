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
    """JSON-safe form of one field value (records nest as dicts, and
    lists and dicts are copied, so editing a ``to_dict()`` is safe)."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class Record:
    """Mixin giving a ``FIELDS``-declared class its serialized forms."""

    FIELDS = ()
    #: keys older writers emitted for fields since removed: they load,
    #: and are dropped
    RETIRED = ()

    def canonical(self):
        """Primitive ``(name, value)`` pairs in ``FIELDS`` order."""
        return tuple((name, getattr(self, name)) for name in self.FIELDS)

    def to_dict(self):
        """JSON-safe dict of every field; inverse of :meth:`from_dict`."""
        return {name: _plain(getattr(self, name)) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        """Rebuild an instance; fields missing from ``data`` default.

        A key that is neither in ``FIELDS`` nor in ``RETIRED`` raises
        ``ValueError`` naming it: a misspelled field would otherwise run
        with the default value and key the default simulation.
        """
        unknown = sorted(set(data) - set(cls.FIELDS) - set(cls.RETIRED))
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown field(s) {', '.join(unknown)}"
            )
        return cls(**{k: data[k] for k in cls.FIELDS if k in data})

    @classmethod
    def load(cls, value):
        """``value``, rebuilt by :meth:`from_dict` when given as a dict."""
        return cls.from_dict(value) if isinstance(value, dict) else value

    def __repr__(self):
        knobs = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.FIELDS
        )
        return f"{type(self).__name__}({knobs})"
