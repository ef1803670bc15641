"""Immutable records: the base of the query AST, script-op and schema types.

A record class lists its fields in order in `__slots__` and the defaults
of its optional fields in `_defaults`.  A record takes each field by
position or by name; a missing field, an unknown or repeated keyword, or
too many positional arguments raise `TypeError`.  Setting or deleting an
attribute raises `AttributeError`.  Records of one class with equal field
tuples are equal and hash equal; records of two classes are unequal.
`repr` shows the class name and the fields by name, and `__match_args__`
is the field order, for positional `match` patterns.  These are plain
classes because generating methods with `exec` at import costs start-up
time in every run, and the module that does it imports `inspect`.
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _complete(self, args, kwargs) -> list:
        """One value per field: by position, by name or by default."""
        fields = self.__slots__
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if (len(args) > len(fields) or not given.keys().isdisjoint(kwargs)
                or values.keys() != set(fields)):
            raise TypeError(
                f"{type(self).__name__} takes the fields {fields}; got "
                f"{len(args)} positional and the keywords {tuple(kwargs)}")
        return [values[field] for field in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}"
                           for field in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
