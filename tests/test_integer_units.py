"""The measure kernels add integer units over one common denominator per
algebra.  Each is checked here against the Fraction-by-Fraction code it
replaced, kept as the oracle: equal values, equal key order in the laws,
and equal exception types and messages."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.action import check_permutation
from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _cell_law,
    dist_partition,
    joint_distribution,
    validate_algebra,
)
from pmplab.constructions import Isomorphism
from pmplab.errors import (
    AlgebraMismatch,
    ArityMismatch,
    MassNotOne,
    NotBijective,
    NotMassPreserving,
    NotMeasurePreserving,
    ZeroAtom,
)

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# oracles: the Fraction-by-Fraction kernels


def oracle_validate_algebra(masses) -> tuple[Fraction, ...]:
    atoms = tuple(Fraction(m) for m in masses)
    if not atoms:
        raise ZeroAtom("an algebra needs at least one atom")
    for i, m in enumerate(atoms):
        if m <= 0:
            raise ZeroAtom(f"atom {i} has nonpositive mass {m}")
    total = sum(atoms, ZERO)
    if total != 1:
        raise MassNotOne(f"atom masses sum to {total}, expected 1")
    return atoms


def oracle_mass_of(alg: MeasuredAlgebra, members) -> Fraction:
    return sum((alg.atoms[i] for i in members), ZERO)


def oracle_sign_map(t: EventTuple) -> list[tuple[int, ...]]:
    sets = [set(e.members) for e in t.events]
    return [tuple(1 if a in s else 0 for s in sets) for a in range(t.algebra.size)]


def oracle_cell_law(*tuples: EventTuple) -> dict:
    mass: dict = {}
    keys = zip(*(oracle_sign_map(t) for t in tuples))
    for key, atom_mass in zip(keys, tuples[0].algebra.atoms):
        mass[key] = mass.get(key, ZERO) + atom_mass
    return mass


def oracle_dist_partition(a: EventTuple, b: EventTuple) -> Fraction:
    if a.algebra.id != b.algebra.id:
        raise AlgebraMismatch("tuples belong to different algebras")
    if a.arity != b.arity:
        raise ArityMismatch(f"tuples have arities {a.arity} and {b.arity}")
    sa = oracle_sign_map(a)
    sb = oracle_sign_map(b)
    return sum(
        (a.algebra.atoms[x] for x in range(a.algebra.size) if sa[x] != sb[x]), ZERO
    )


def oracle_check_permutation(alg: MeasuredAlgebra, p) -> tuple[int, ...]:
    if len(p) != alg.size:
        raise NotBijective(f"permutation length {len(p)} != atom count {alg.size}")
    seen = [False] * alg.size
    for x, y in enumerate(p):
        if not 0 <= y < alg.size or seen[y]:
            raise NotBijective("generator table is not a permutation")
        seen[y] = True
    for x, y in enumerate(p):
        if alg.atoms[x] != alg.atoms[y]:
            raise NotMeasurePreserving(
                f"atom {x} (mass {alg.atoms[x]}) maps to atom {y} (mass {alg.atoms[y]})"
            )
    return tuple(p)


def oracle_isomorphism(source: MeasuredAlgebra, target: MeasuredAlgebra, mapping):
    if source.size != target.size or sorted(mapping) != list(range(source.size)):
        raise NotBijective("mapping is not a bijection between the atom sets")
    for x, y in enumerate(mapping):
        if source.atoms[x] != target.atoms[y]:
            raise NotMassPreserving(
                f"atom {x} of mass {source.atoms[x]} maps to mass {target.atoms[y]}"
            )
    return tuple(mapping)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison is the point: any exception
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def mixed_masses(draw, max_atoms: int = 64) -> list[Fraction]:
    """1..max_atoms masses summing to one, with mixed denominators; drawn
    from a small pool, so equal masses recur."""
    pool = draw(st.lists(
        st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64),
        min_size=1, max_size=6,
    ))
    weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_atoms))
    total = sum(weights, ZERO)
    return [w / total for w in weights]


@st.composite
def algebra_and_tuples(draw):
    alg = validate_algebra(draw(mixed_masses()))
    members = st.sets(st.integers(0, alg.size - 1))
    tuples = [
        EventTuple.of_members(alg, draw(st.lists(members, max_size=3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return alg, tuples


@st.composite
def permutation_tables(draw, alg: MeasuredAlgebra) -> list[int]:
    """Mass-preserving permutations, any permutations (most do not preserve
    mass), and tables that are no permutation at all."""
    n = alg.size
    kind = draw(st.sampled_from(["preserving", "any", "table"]))
    if kind == "table":
        return draw(st.lists(st.integers(-1, n), min_size=max(n - 1, 0), max_size=n + 1))
    if kind == "any":
        return draw(st.permutations(range(n)))
    classes: dict[Fraction, list[int]] = {}
    for x, m in enumerate(alg.atoms):
        classes.setdefault(m, []).append(x)
    table = [0] * n
    for members in classes.values():
        for x, y in zip(members, draw(st.permutations(members))):
            table[x] = y
    return table


# ---------------------------------------------------------------------------
# tests


raw_mass = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=64),
    st.integers(-1, 2),
    st.builds(lambda f: f"{f.numerator}/{f.denominator}",
              st.fractions(min_value=0, max_value=1, max_denominator=64)),
)


@given(st.one_of(mixed_masses(), st.lists(raw_mass, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_validate_algebra_matches_the_fraction_oracle(masses):
    kind, expected = outcome(oracle_validate_algebra, masses)
    got = outcome(validate_algebra, masses)
    if kind != "value":
        assert got == (kind, expected)
        return
    alg = got[1]
    assert alg.atoms == expected
    assert all(type(m) is Fraction for m in alg.atoms)
    den = lcm(*(m.denominator for m in expected))
    assert alg.denominator_lcm() == den
    assert [Fraction(u, den) for u in alg._units] == list(expected)


@given(algebra_and_tuples(), st.data())
@settings(max_examples=200, deadline=None)
def test_laws_and_masses_match_the_fraction_oracles(drawn, data):
    alg, tuples = drawn
    law = _cell_law(*tuples)
    expected = oracle_cell_law(*tuples)
    assert list(law.items()) == list(expected.items())
    assert all(type(m) is Fraction for m in law.values())

    a, b = tuples[0], tuples[-1]
    joint = joint_distribution(a, b)
    assert list(joint.mass.items()) == list(oracle_cell_law(a, b).items())
    assert outcome(dist_partition, a, b) == outcome(oracle_dist_partition, a, b)
    other = validate_algebra(alg.atoms)
    stranger = EventTuple.of_members(other, [e.members for e in a.events])
    assert outcome(dist_partition, a, stranger) == outcome(oracle_dist_partition, a, stranger)

    # out-of-range and negative indices fail or wrap as tuple indexing does
    members = data.draw(st.lists(st.integers(-alg.size - 2, alg.size + 1), max_size=8))
    got = outcome(alg.mass_of, members)
    assert got == outcome(oracle_mass_of, alg, members)
    assert got[0] != "value" or type(got[1]) is Fraction
    assert alg.mass_of(range(alg.size)) == 1 and alg.mass_of([]) == 0


@given(mixed_masses(), st.data())
@settings(max_examples=200, deadline=None)
def test_check_permutation_matches_the_fraction_oracle(masses, data):
    alg = validate_algebra(masses)
    table = data.draw(permutation_tables(alg))
    assert outcome(check_permutation, alg, table) == outcome(
        oracle_check_permutation, alg, table
    )


@given(mixed_masses(max_atoms=12), mixed_masses(max_atoms=12), st.data())
@settings(max_examples=150, deadline=None)
def test_isomorphism_across_denominators_matches_the_fraction_oracle(m1, m2, data):
    source = validate_algebra(m1)
    # a relabelled copy of source with the relabelling or another mapping, or
    # another algebra, mostly over another common denominator
    order = data.draw(st.permutations(range(source.size)))
    if data.draw(st.booleans()):
        target = validate_algebra([source.atoms[x] for x in order])
    else:
        target = validate_algebra(m2)
    relabelling = [0] * source.size
    for y, x in enumerate(order):
        relabelling[x] = y
    mapping = data.draw(st.one_of(
        st.just(relabelling),
        st.permutations(range(target.size)),
        st.permutations(range(source.size)),
    ))
    got = outcome(Isomorphism.of, source, target, mapping)
    expected = outcome(oracle_isomorphism, source, target, mapping)
    assert (got[0], got[1] if got[0] != "value" else got[1].mapping) == expected


def test_isomorphism_compares_masses_over_two_denominators():
    source = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    target = validate_algebra([F(1, 6), F(1, 2), F(1, 3)])
    # atom 0 and target atom 1 both weigh 1/2: 2 units of 1/4, 3 of 1/6
    assert (source._units[0], target._units[1]) == (2, 3)
    with pytest.raises(NotMassPreserving) as err:
        Isomorphism.of(source, target, [1, 0, 2])
    assert str(err.value) == "atom 1 of mass 1/4 maps to mass 1/6"
    twin = validate_algebra([F(1, 4), F(1, 2), F(1, 4)])
    assert Isomorphism.of(source, twin, [1, 0, 2]).mapping == (1, 0, 2)
