"""Record, the base of the package's frozen value types: a generated __init__
that checks the field ranges and runs __post_init__, field-wise ==, hash and
repr, no assignment, and namedtuple's _fields, _asdict() and _replace(). The
__init__ is compiled on its first lookup (a construction or inspect.signature),
not at import, with the same checks and messages.

A record declares each range once: _ranges maps a field to (lo, hi, above) as
errors.require takes them, or to TEXT for a str; a name field ends each message.
A plain float (int for a field annotated "int") in range passes the __init__'s
inline test with no call, by the guard rule of errors.require. Anything else
goes to _check, which calls require on each field in turn. find_named looks a
species or material record up by name.
"""

import math
import sys

from .errors import InvalidParameterError, require

NON_NEGATIVE, POSITIVE, TEXT = (0.0, math.inf, False), (0.0, math.inf, True), (0, 0, False)


def _check(checks, fields: dict) -> None:
    for name, kind, lo, hi, above in checks:
        value, context = fields[name], fields.get("name", "")
        if kind != "str":
            require(name, value, lo, hi, above=above, integer=kind == "int", context=context)
        elif not isinstance(value, str):  # a JSON file may hold any value
            raise InvalidParameterError(f"{name} must be a string, got {value!r}")


def _guard(name, kind, lo, hi, above) -> str:
    if kind == "str":
        return f"{name}.__class__ is str"
    op = "<" if above else "<="  # and x <= float max: x is not nan or inf, and fits a float
    return f"{name}.__class__ is {kind} and {lo!r} {op} {name} <= {min(hi, sys.float_info.max)!r}"


class _LazyInit:
    """A record's __init__ until first looked up: compiles it, installs it on the class."""

    def __init__(self, source: str, namespace: dict) -> None:
        self.source, self.namespace = source, namespace

    def __get__(self, instance, owner):
        exec(self.source, self.namespace)  # two threads may race here: each compiles once
        init = self.namespace["__init__"]
        init.__qualname__ = f"{owner.__qualname__}.__init__"
        owner.__init__ = init
        return init.__get__(instance, owner)


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        kinds = {n: getattr(a, "__name__", a) for n, a in cls.__annotations__.items()}
        checks = tuple((n, kinds[n], *bounds) for n, bounds in getattr(cls, "_ranges", {}).items())
        guard = " and ".join(_guard(*check) for check in checks)
        lines = [f"if not ({guard}):", "    _check(_checks, locals())"] if guard else []
        # Each field stored by key; no field is named __dict, as a class body mangles __names.
        lines += ["__dict = self.__dict__", *(f"__dict[{n!r}] = {n}" for n in names)]
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        namespace = {"_defaults": defaults, "_checks": checks, "_check": _check}
        source = f"def __init__(self{params}):" + "".join(f"\n    {line}" for line in lines)
        cls.__init__ = _LazyInit(source, namespace)

    def _asdict(self) -> dict:
        return {name: self.__dict__[name] for name in self._fields}

    def _replace(self, **changes):
        return self.__class__(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def find_named(items, name: str, kind: str):
    """Look an item up by its .name: exact match first, then case-insensitive."""
    for item in items:
        if item.name == name:
            return item
    if not isinstance(name, str):  # after the exact match: the usual lookup costs no test
        raise InvalidParameterError(f"{kind} name must be a string, got {name!r}")
    folded = name.casefold()
    for item in items:
        if item.name.casefold() == folded:
            return item
    raise InvalidParameterError(f"unknown {kind} {name!r}")
