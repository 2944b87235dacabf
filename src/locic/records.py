"""Immutable value classes, built without `dataclasses` so import stays cheap.

`@record` generates `__init__` and `_key` (the tuple of compared fields) from
the annotated fields, bases first, in one `exec`. Equality (same class
only), hashing, `repr` and immutability are shared functions. A field whose
default is wrapped in `uncompared` is left out of equality and hashing.
"""


class uncompared:
    """The default of a field that equality and hashing ignore."""

    def __init__(self, default):
        self.default = default


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._key() == other._key()


def _hash(self):
    return hash(self._key())


def _repr(self):
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(cls):
    """Make `cls` an immutable value class over its annotated fields."""
    fields = []
    for c in reversed(cls.__mro__):
        fields += [f for f in c.__dict__.get("__annotations__", ()) if f not in fields]
    ignored = set(getattr(cls, "_fields", ())) - set(getattr(cls, "_compared", ()))
    defaults = {}
    for f in fields:
        if isinstance(cls.__dict__.get(f), uncompared):
            ignored.add(f)
            setattr(cls, f, cls.__dict__[f].default)
        if hasattr(cls, f):
            defaults[f] = getattr(cls, f)
    compared = tuple(f for f in fields if f not in ignored)
    params = "".join(f", {f}=_D[{f!r}]" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"\n _d[{f!r}] = {f}" for f in fields)
    key = "".join(f"self.{f}, " for f in compared)
    ns = {}
    exec(f"def __init__(self{params}):\n _d = self.__dict__{body}\n"
         f"def _key(self):\n return ({key})", {"_D": defaults}, ns)
    cls.__init__, cls._key = ns["__init__"], ns["_key"]
    cls._fields, cls._compared = tuple(fields), compared
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
