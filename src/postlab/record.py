"""The base of postlab's immutable records.

A record is a plain class: its fields are bare annotations in the class body,
`__slots__` lists them unless a cached_property needs an instance dict, and
its written-out `__init__` sets each one through `object.__setattr__` (or the
instance dict).  Defining one runs no generated code.
"""


class Frozen:
    """Assigning or deleting an attribute of an instance raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
