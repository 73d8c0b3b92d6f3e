"""Immutable value records: plain ``__slots__`` classes with value semantics."""

from operator import attrgetter


class Record:
    """Base of the package's records and expression nodes.

    The fields are the class's own ``__slots__`` not named with a leading
    underscore (a ``__dict__`` slot holds caches), set once by ``__init__``,
    in order.  Setting or deleting an attribute later raises AttributeError;
    equality and hashing go by type and fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._key = attrgetter("__class__", *cls._fields)  # a tuple even for one field

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self._key(self) == other._key(other) if isinstance(other, Record) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)[1:]

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes: object) -> "Record":
        """A copy with some fields changed, made by ``__init__`` (caches start empty)."""
        values = [changes.pop(n, getattr(self, n)) for n in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(changes)}")
        return type(self)(*values)
