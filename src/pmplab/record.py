"""Frozen records: the one base class of pmplab's value objects.

A subclass's own annotated names are its fields, in order, each one a
required argument without a default; a class body that binds a field's
name (x: int = 0) is refused, and a record with fields cannot be
extended.  Each subclass gets an __init__ of the shape a frozen
dataclass writes: one object.__setattr__ per field, positional or keyword
arguments, the same signature; one per class, because a generic loop over
the fields costs more per instance.  Nothing is compiled for it: the
template below with the record's number of fields (0 to 7) is copied with
its argument names and field-name strings renamed (types.CodeType.replace),
so the bytecode is the one a generated source would compile to, and costs
the same per instance as it does; a class with more fields is refused.  The
other methods are shared.  Equality compares field tuples within one class,
the hash is the hash of the field tuple, the repr reads
Name(field=value, ...), and fields can be neither assigned nor deleted.
Records pickle and copy as plain objects do.

Records exist so that importing pmplab need not load dataclasses, whose
decorator costs about ten times as much per class.
"""
from __future__ import annotations

from types import FunctionType

_set = object.__setattr__


# The __init__ templates, one per field count: the fields are a, b, c, ...
def _init0(self):
    pass


def _init1(self, a):
    _set(self, "a", a)


def _init2(self, a, b):
    _set(self, "a", a)
    _set(self, "b", b)


def _init3(self, a, b, c):
    _set(self, "a", a)
    _set(self, "b", b)
    _set(self, "c", c)


def _init4(self, a, b, c, d):
    _set(self, "a", a)
    _set(self, "b", b)
    _set(self, "c", c)
    _set(self, "d", d)


def _init5(self, a, b, c, d, e):
    _set(self, "a", a)
    _set(self, "b", b)
    _set(self, "c", c)
    _set(self, "d", d)
    _set(self, "e", e)


def _init6(self, a, b, c, d, e, f):
    _set(self, "a", a)
    _set(self, "b", b)
    _set(self, "c", c)
    _set(self, "d", d)
    _set(self, "e", e)
    _set(self, "f", f)


def _init7(self, a, b, c, d, e, f, g):
    _set(self, "a", a)
    _set(self, "b", b)
    _set(self, "c", c)
    _set(self, "d", d)
    _set(self, "e", e)
    _set(self, "f", f)
    _set(self, "g", g)


_TEMPLATES = (_init0, _init1, _init2, _init3, _init4, _init5, _init6, _init7)


class Record:
    # The field names, in order; also what class patterns match by position.
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__match_args__:
            raise TypeError(f"{cls.__qualname__} extends a record that has fields")
        annotations = cls.__dict__.get("__annotations__", {})
        fields = tuple(annotations)
        bound = [name for name in fields if name in cls.__dict__]
        if bound:
            raise TypeError(f"{cls.__qualname__} binds field {bound[0]!r}: a field has no default")
        if len(fields) >= len(_TEMPLATES):
            raise TypeError(
                f"{cls.__qualname__} has {len(fields)} fields, "
                f"more than a record's {len(_TEMPLATES) - 1}"
            )
        template = _TEMPLATES[len(fields)].__code__
        rename = dict(zip(template.co_varnames[1:], fields))
        code = template.replace(
            co_name="__init__",
            co_varnames=("self", *fields),
            co_consts=tuple([rename.get(const, const) for const in template.co_consts]),
        )
        init = FunctionType(code, {"_set": _set})
        init.__annotations__ = {**annotations, "return": None}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls.__match_args__ = fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record.__match_args__])
