"""The base of postlab's immutable records.

A record's fields are the bare annotations of its own class body, in order;
`__slots__` lists them unless a cached_property needs an instance dict.
`Frozen` reads them as the class is defined, compiling no code, and gives each
record a positional `__init__` (a class tuple `_defaults` may supply the
trailing fields), `__eq__` and `__hash__` over the field values, and a
`__reduce__` that pickles the class and the values, so loading re-runs
`__init__`.  A record that checks its arguments does so in its own `__init__`,
then calls `Frozen.__init__` by name (about 100 ns faster than `super()`).
"""

from operator import attrgetter


class Frozen:
    """Assigning or deleting an attribute of an instance raises AttributeError."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # a dict record (one with a cached_property) takes one dict update
        cls._setters = tuple(cls.__dict__[f].__set__ for f in fields) if "__slots__" in cls.__dict__ else None
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *values):
        fields, setters = self._fields, self._setters
        if len(values) != len(fields):
            missing = len(fields) - len(values)
            if not 0 < missing <= len(self._defaults):
                raise TypeError(f"{type(self).__name__} takes {len(fields)} fields {fields}, got {len(values)}")
            values += self._defaults[-missing:]
        if setters is None:
            self.__dict__.update(zip(fields, values))
            return
        i = 0
        for value in values:  # faster than a loop over zip(setters, values)
            setters[i](self, value)
            i += 1

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
