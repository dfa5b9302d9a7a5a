"""The base of the plain record classes: columns, frames, rules, outcomes and tables."""


class Record:
    """A mutable record that compares and prints as a dataclass does: equal to a
    record of its own type with equal fields, unhashable, and shown with its
    fields. A subclass names its fields in ``_fields`` and writes its own
    ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return tuple(getattr(self, f) for f in fields) == tuple(getattr(other, f) for f in fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
