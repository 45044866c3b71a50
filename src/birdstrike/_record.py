"""Record, the base of the package's frozen value types: a generated __init__
that runs __post_init__, field-wise ==, hash and repr, no assignment, and
namedtuple's _fields, _asdict() and _replace() (which validates again)."""


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
        body = "self.__dict__.update({" + ", ".join(f"{n!r}: {n}" for n in names) + "})"
        if hasattr(cls, "__post_init__"):
            body += "; self.__post_init__()"
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self{params}):\n    {body}\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
