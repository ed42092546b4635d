"""Every record class behaves as the frozen dataclass with the same fields
would: dataclasses.make_dataclass is the oracle."""
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
    """The frozen dataclass with cls's fields and annotations."""
    spec = list(cls.__annotations__.items())
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
    assert len(RECORDS) == 20
    assert all(cls.__match_args__ for cls in RECORDS)
    # no field has a default: a class attribute of a field's name would be
    # shadowed by every instance, so none is written
    assert all(cls.__init__.__defaults__ is None for cls in RECORDS)
    assert not [cls for cls in RECORDS if set(cls.__match_args__) & set(vars(cls))]


def test_results_hold_their_candidates_and_an_extension_its_action():
    """A search result holds its best candidate directly, and an eppa
    extension reaches its algebra through its action."""
    assert pmplab.C2SearchResult.__match_args__ == (
        "found", "c", "distance", "refinement_depth", "lower_bound", "refuted"
    )
    assert pmplab.EcSearchResult.__match_args__ == (
        "found", "cs", "discrepancy", "refinement_depth"
    )
    assert pmplab.EppaExtension.__match_args__ == ("action", "embedding")


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
    twin = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
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


def test_record_class_rules():
    class Point(Record):
        x: int
        y: int

    assert repr(Point(1, 0)) == "test_record_class_rules.<locals>.Point(x=1, y=0)"
    match Point(1, 2):
        case Point(a, b):
            assert (a, b) == (1, 2)
    with pytest.raises(TypeError, match="extends a record that has fields"):
        class Point3(Point):
            z: int

    class Empty(Record):
        pass

    assert Empty() == Empty() and repr(Empty()) == "test_record_class_rules.<locals>.Empty()"


def compiled_init(fields: tuple[str, ...]):
    """The __init__ that compiling a generated source gives: the oracle of
    the template copies."""
    lines = [f"def __init__(self, {', '.join(fields)}):"]
    lines += [f"    _set(self, {name!r}, {name})" for name in fields] or ["    pass"]
    namespace = {"_set": object.__setattr__}
    exec("\n".join(lines), namespace)
    return namespace["__init__"]


def test_no_record_init_is_compiled_from_a_string():
    """Every __init__ is a renamed copy of a template written in record.py,
    with globals that hold only _set, and runs the bytecode that compiling
    its generated source gives, so it costs the same per instance."""
    for cls in RECORDS:
        code = cls.__init__.__code__
        assert code.co_filename == pmplab.record.__file__
        assert cls.__init__.__globals__ == {"_set": object.__setattr__}
        oracle_code = compiled_init(cls.__match_args__).__code__
        for attribute in ("co_code", "co_consts", "co_names", "co_varnames", "co_name",
                          "co_argcount", "co_flags", "co_stacksize"):
            assert getattr(code, attribute) == getattr(oracle_code, attribute), attribute


def test_a_record_past_the_templates_is_refused():
    most = len(pmplab.record._TEMPLATES) - 1
    assert most == max(len(cls.__match_args__) for cls in RECORDS) == 7
    widest = type("Widest", (Record,), {"__annotations__": {f"f{i}": int for i in range(most)}})
    assert widest(*range(most)) == widest(*range(most))
    with pytest.raises(TypeError, match="Wider has 8 fields, more than a record's 7"):
        type("Wider", (Record,), {"__annotations__": {f"f{i}": int for i in range(most + 1)}})


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


def test_a_field_bound_in_the_class_body_is_refused():
    """x: int = 0 would give a required x and a class attribute that every
    instance shadows; a method or property of a field's name likewise."""
    with pytest.raises(TypeError, match=r"^Origin binds field 'y': a field has no default$"):
        type("Origin", (Record,), {"__annotations__": {"x": int, "y": int}, "y": 0})
    with pytest.raises(TypeError, match="binds field 'x'"):
        class Shadowed(Record):
            x: int

            @property
            def x(self):
                return 0

    unbound = type("Origin", (Record,), {"__annotations__": {"x": int}, "z": 0})
    assert unbound(1).x == 1 and unbound.z == 0
