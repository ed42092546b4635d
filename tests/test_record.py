"""Every record class behaves as the frozen dataclass with the same fields
and defaults would: dataclasses.make_dataclass is the oracle."""
from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction
from math import lcm

import pytest

import pmplab
from pmplab.action import check_permutation
from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _cell_law,
    dist_partition,
    product_algebra,
    uniform_algebra,
    validate_algebra,
)
from pmplab.record import Record

# Importing pmplab imports every module, so every record class exists.
RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__qualname__)


def oracle(cls: type) -> type:
    """The frozen dataclass with cls's fields, annotations and defaults."""
    spec = []
    for name, annotation in cls.__annotations__.items():
        if name in cls.__dict__:
            spec.append((name, annotation, dataclasses.field(default=cls.__dict__[name])))
        else:
            spec.append((name, annotation))
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def sample(cls: type, tag: str = "v") -> tuple:
    return tuple((tag, i) for i in range(len(cls.__match_args__)))


def raised(fn) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn()
    return info.type, str(info.value)


def test_every_class_with_fields_is_a_record():
    modules = (pmplab.algebra, pmplab.action, pmplab.audit, pmplab.constructions,
               pmplab.modeltheory, pmplab.simplex)
    with_fields = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
        and "__annotations__" in value.__dict__
    ]
    assert sorted(with_fields, key=lambda cls: cls.__qualname__) == RECORDS
    assert len(RECORDS) == 26
    assert all(cls.__match_args__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_the_dataclass_oracle(cls):
    dc = oracle(cls)
    fields = cls.__match_args__
    assert fields == dc.__match_args__ == tuple(f.name for f in dataclasses.fields(dc))
    values = sample(cls)
    other = values[:-1] + (("w", 0),)
    r, d = cls(*values), dc(*values)

    assert repr(r) == repr(d)
    assert hash(r) == hash(d)
    assert r == cls(*values) and not r != cls(*values)
    assert r != cls(*other) and not r == cls(*other)
    assert (r == cls(*other)) == (d == dc(*other))
    # another class with the same fields never compares equal
    twin = type(cls.__name__, (Record,), {
        "__annotations__": dict(cls.__annotations__),
        **{name: cls.__dict__[name] for name in fields if name in cls.__dict__},
    })
    for stranger in (d, twin(*values), object()):
        assert r != stranger and stranger != r
        assert r.__eq__(stranger) is NotImplemented
    assert oracle(cls)(*values) != d
    assert cls(**dict(zip(fields, values))) == r
    assert repr(cls(*values[:1], **dict(zip(fields[1:], values[1:])))) == repr(d)

    assert inspect.signature(cls) == inspect.signature(dc)
    assert inspect.signature(cls.__init__) == inspect.signature(dc.__init__)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    assert raised(lambda: cls()) == raised(lambda: dc())
    assert raised(lambda: cls(*values[1:2])) == raised(lambda: dc(*values[1:2]))
    assert raised(lambda: cls(*values, None)) == raised(lambda: dc(*values, None))
    assert raised(lambda: cls(*values, extra=1)) == raised(lambda: dc(*values, extra=1))

    for name in (fields[0], "extra"):
        for change in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
            kind, message = raised(lambda: change(r))
            oracle_kind, oracle_message = raised(lambda: change(d))
            assert kind is AttributeError and issubclass(oracle_kind, AttributeError)
            assert message == oracle_message
    assert r == cls(*values)

    for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert back == r and back.__class__ is cls and repr(back) == repr(r)
        assert raised(lambda: setattr(back, fields[0], 0))[0] is AttributeError


def test_defaults_match_the_oracle():
    with_defaults = [cls for cls in RECORDS if cls.__init__.__defaults__]
    assert [cls.__qualname__ for cls in with_defaults] == ["QuotientEmbedding"]
    for cls in with_defaults:
        dc = oracle(cls)
        required = sample(cls)[: -len(cls.__init__.__defaults__)]
        assert repr(cls(*required)) == repr(dc(*required))
        assert cls(*required) == cls(*required, *cls.__init__.__defaults__)


def test_record_class_rules():
    class Point(Record):
        x: int
        y: int = 0

    assert repr(Point(1)) == "test_record_class_rules.<locals>.Point(x=1, y=0)"
    match Point(1, 2):
        case Point(a, b):
            assert (a, b) == (1, 2)
    with pytest.raises(TypeError, match="non-default argument 'y' follows default argument"):
        class Bad(Record):
            x: int = 0
            y: int
    with pytest.raises(TypeError, match="extends a record that has fields"):
        class Point3(Point):
            z: int

    class Empty(Record):
        pass

    assert Empty() == Empty() and repr(Empty()) == "test_record_class_rules.<locals>.Empty()"


def test_an_algebra_record_is_its_id_den_and_units(monkeypatch):
    """An algebra's fields are its id, common denominator and integer units:
    its repr, ==, hash, pickle and copies are those of (id, den, units), its
    atoms are derived from them, and building it calls lcm once, a product
    not at all."""
    alg = validate_algebra([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert MeasuredAlgebra.__match_args__ == ("id", "den", "units")
    assert vars(alg) == {"id": alg.id, "den": 6, "units": (3, 2, 1)}
    assert repr(alg) == f"MeasuredAlgebra(id={alg.id}, den=6, units=(3, 2, 1))"
    twin = MeasuredAlgebra(alg.id, 6, (3, 2, 1))
    assert twin == alg and hash(twin) == hash(alg) == hash((alg.id, 6, (3, 2, 1)))
    assert alg != MeasuredAlgebra(alg.id + 1, 6, (3, 2, 1))
    assert alg.atoms == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    for back in (pickle.loads(pickle.dumps(alg)), copy.copy(alg), copy.deepcopy(alg)):
        assert back == alg and hash(back) == hash(alg) and repr(back) == repr(alg)
        assert vars(back) == vars(alg)
    assert pickle.dumps(twin) == pickle.dumps(alg)

    calls = []

    def counted_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(pmplab.algebra, "lcm", counted_lcm)
    built = validate_algebra(alg.atoms)
    refined = product_algebra(built, uniform_algebra(2))
    assert len(calls) == 1  # validate_algebra's: a product is built from its factors' units
    assert (refined.den, refined.units) == (12, (3, 3, 2, 2, 1, 1))
    product = product_algebra(built, refined)
    assert len(calls) == 1
    assert (product.den, product.units[:3]) == (72, (9, 9, 6))
    for target in (built, refined, product, copy.copy(built)):
        t = EventTuple.of_members(target, [[0], [1, 2]])
        for _ in range(3):
            target.mass_of([0, 1])
            _cell_law(t, t)
            dist_partition(t, t)
            check_permutation(target, range(target.size))
    assert len(calls) == 1
