"""Runtime value universe for queries and transformations.

Values are plain Python data: int, float, str, bool, graph elements,
tuples, lists, plus two containers with *structural* member identity —
OrderedSet and ValueMap.  Both keep insertion order, so every collection
the engine produces iterates deterministically.  UNDEFINED is the single
bottom value that propagates through operators.
"""

from __future__ import annotations

from gretlite import model


class _Undefined:
    def __repr__(self):
        return "undefined"


UNDEFINED = _Undefined()
_SELF_KEYED = frozenset((str, int, float, model.Vertex, model.Edge))


def value_key(v):
    """Hashable structural identity of a value.

    Strings, numbers and elements are their own keys: they hash and compare
    as members must (1 and 1.0 unify, as do -0.0 and 0.0; elements compare
    by identity; NaN never becomes a value), and no tagged key equals them.
    bools keep a tag, since True == 1 yet is another member; so do UNDEFINED
    and the containers, whose keys are built from their members' keys.
    """
    if type(v) in _SELF_KEYED:
        return v
    if v is UNDEFINED:
        return ("u",)
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, tuple):
        return ("t", tuple([x if type(x) in _SELF_KEYED else value_key(x)
                            for x in v]))
    if isinstance(v, list):
        return ("l", tuple(map(value_key, v)))
    if isinstance(v, OrderedSet):
        return ("set", frozenset(v._items))
    if isinstance(v, ValueMap):
        return ("m", frozenset((k, value_key(x)) for k, (_, x) in v._items.items()))
    raise TypeError(f"not a value: {v!r}")


def value_equal(a, b) -> bool:
    return value_key(a) == value_key(b)


def is_collection(v) -> bool:
    return isinstance(v, (OrderedSet, list, tuple))


def leaves(value):
    """The members of `value` that are not collections, depth first; a
    value that is not a collection is its own one leaf."""
    if is_collection(value):
        for member in value:
            yield from leaves(member)
    else:
        yield value


class _Keyed:
    """A collection held in `_items`, a dict keyed by `value_key`; it equals
    only a collection of its own type with the same members."""

    __slots__ = ("_items",)

    def __contains__(self, value):
        return value_key(value) in self._items

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return value_key(self) == value_key(other)

    __hash__ = None


class OrderedSet(_Keyed):
    """Duplicate-free collection with insertion-order iteration."""

    __slots__ = ()

    def __init__(self, items=()):
        self._items: dict = {}
        for v in items:
            self.add(v)

    @classmethod
    def of_elements(cls, items: dict) -> OrderedSet:
        """The set over `items`, which maps graph elements to themselves."""
        result = object.__new__(cls)
        result._items = items
        return result

    def add(self, value):
        self._items.setdefault(value_key(value), value)

    def __iter__(self):
        return iter(self._items.values())

    def __repr__(self):
        return "{" + ", ".join(repr(v) for v in self) + "}"


class ValueMap(_Keyed):
    """Insertion-ordered map whose keys compare structurally."""

    __slots__ = ()

    def __init__(self, entries=()):
        self._items: dict = {}
        for k, v in entries:
            self.put(k, v)

    def put(self, key, value):
        self._items[value_key(key)] = (key, value)

    def get(self, key, default=None):
        hit = self._items.get(value_key(key))
        return default if hit is None else hit[1]

    def keys(self):
        return [k for k, _ in self._items.values()]

    def items(self):
        return list(self._items.values())

    def __repr__(self):
        body = ", ".join(f"{k!r} -> {v!r}" for k, v in self.items())
        return "{" + body + "}"


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote_string(s: str) -> str:
    return '"' + "".join(_ESCAPES.get(c, c) for c in s) + '"'


def render_value(v) -> str:
    """Canonical textual rendering.

    Sets and maps are printed sorted by the rendering of their members or
    keys; lists and tuples keep their own order.
    """
    if v is UNDEFINED:
        return "undefined"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return quote_string(v)
    if isinstance(v, model.Element):
        return v.ref()
    if isinstance(v, tuple):
        return "(" + ", ".join(render_value(x) for x in v) + ")"
    if isinstance(v, list):
        return "[" + ", ".join(render_value(x) for x in v) + "]"
    if isinstance(v, OrderedSet):
        return "{" + ", ".join(sorted(render_value(x) for x in v)) + "}"
    if isinstance(v, ValueMap):
        return "{" + ", ".join(
            f"{k} -> {x}" for k, x in rendered_entries(v)) + "}"
    raise TypeError(f"not a value: {v!r}")


def rendered_entries(m: ValueMap) -> list[tuple[str, str]]:
    """The (key, value) renderings of `m`'s entries, sorted by key."""
    return sorted((render_value(k), render_value(x)) for k, x in m.items())


def to_text(v) -> str:
    """Rendering used by string concatenation: bare strings stay unquoted."""
    return v if isinstance(v, str) else render_value(v)
