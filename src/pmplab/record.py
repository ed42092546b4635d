"""Frozen records: the one base class of pmplab's value objects.

A subclass's own annotated names are its fields, in order, and a class
attribute of the same name is that field's default; a record with fields
cannot be extended.  Each subclass gets an __init__ of the shape a frozen
dataclass writes: one object.__setattr__ per field, positional or keyword
arguments, the same signature.  It is compiled once per class, when the
class is created, because a generic loop over the fields costs more per
instance; the other methods are shared.  Equality compares field tuples
within one class, the hash is the hash of the field tuple, the repr reads
Name(field=value, ...), and fields can be neither assigned nor deleted.
Records pickle and copy as plain objects do.

Records exist so that importing pmplab need not load dataclasses, whose
decorator costs about ten times as much per class.
"""
from __future__ import annotations


class Record:
    # The field names, in order; also what class patterns match by position.
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__match_args__:
            raise TypeError(f"{cls.__qualname__} extends a record that has fields")
        annotations = cls.__dict__.get("__annotations__", {})
        fields = tuple(annotations)
        defaults = []
        for name in fields:
            if name in cls.__dict__:
                defaults.append(cls.__dict__[name])
            elif defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in fields] or ["    pass"]
        namespace = {"_set": object.__setattr__}
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        if defaults:
            init.__defaults__ = tuple(defaults)
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
