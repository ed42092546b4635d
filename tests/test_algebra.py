"""Measured algebras, events, partitions, joints, refinements."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmplab.algebra import (
    AtomPartition,
    Event,
    EventTuple,
    _unit_law,
    dist_max,
    dist_partition,
    joint_distribution,
    lift_event,
    lift_tuple,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from pmplab.errors import (
    AlgebraMismatch,
    ArityMismatch,
    InstanceTooLarge,
    MassNotOne,
    PartMassMismatch,
    ValidationError,
    ZeroAtom,
)
from pmplab.limits import MAX_REFINED_ATOMS

from conftest import random_algebra, random_tuple

F = Fraction


def oracle_cells(t: EventTuple) -> dict[tuple[int, ...], tuple[frozenset[int], Fraction]]:
    """Every cell of the partition generated by t, keyed by sign vector.

    The cell of sign vector s is the intersection over i of event i (when
    s[i] = 1) or its complement (when s[i] = 0).  All 2^arity cells are
    listed, empty ones with mass 0; the empty tuple gives the single cell
    of mass one, keyed by the empty sign vector."""
    groups: dict[tuple[int, ...], set[int]] = {
        s: set() for s in itertools.product((0, 1), repeat=t.arity)
    }
    for atom in range(t.algebra.size):
        groups[tuple(1 if atom in e.members else 0 for e in t.events)].add(atom)
    return {s: (frozenset(atoms), t.algebra.mass_of(atoms)) for s, atoms in groups.items()}


def test_validate_algebra_accepts_partitions_of_one():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    assert alg.size == 2
    alg2 = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    assert alg2.atoms == (F(1, 2), F(1, 4), F(1, 4))


def test_validate_algebra_rejects_zero_and_negative_atoms():
    with pytest.raises(ZeroAtom):
        validate_algebra([F(1, 2), F(0), F(1, 2)])
    with pytest.raises(ZeroAtom):
        validate_algebra([F(3, 2), F(-1, 2)])


def test_validate_algebra_rejects_bad_total():
    with pytest.raises(MassNotOne):
        validate_algebra([F(1, 2), F(1, 3)])
    with pytest.raises(ZeroAtom):
        validate_algebra([])


@given(
    st.lists(
        st.fractions(min_value=F(1, 40), max_value=1, max_denominator=40),
        min_size=1,
        max_size=8,
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_mass_sums_match_fraction_sums(masses, data):
    """The integer sums give what adding Fractions one at a time gives, in
    the algebra check's message and in mass_of."""
    total = sum(masses, F(0))
    if total != 1:
        with pytest.raises(MassNotOne) as err:
            validate_algebra(masses)
        assert str(err.value) == f"atom masses sum to {total}, expected 1"
        masses = [m / total for m in masses]
    alg = validate_algebra(masses)
    members = data.draw(st.sets(st.integers(0, alg.size - 1)))
    assert alg.mass_of(members) == sum((alg.atoms[i] for i in members), F(0))
    assert alg.mass_of([]) == 0


def test_event_validation_and_mass():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    e = Event.of(alg, [2, 0, 2])
    assert e.members == (0, 2)
    assert e.mass == F(3, 4)
    with pytest.raises(ValidationError):
        Event.of(alg, [3])
    with pytest.raises(ValidationError):
        Event.of(alg, [-1])


def test_event_boolean_operations():
    alg = validate_algebra([F(1, 4)] * 4)
    a = Event.of(alg, [0, 1])
    b = Event.of(alg, [1, 2])
    assert a.intersect(b).members == (1,)
    assert a.union(b).members == (0, 1, 2)
    assert a.symmetric_difference(b).members == (0, 2)
    assert a.complement().members == (2, 3)


def test_events_from_different_algebras_do_not_mix():
    a1 = validate_algebra([F(1, 2), F(1, 2)])
    a2 = validate_algebra([F(1, 2), F(1, 2)])
    with pytest.raises(AlgebraMismatch):
        Event.of(a1, [0]).intersect(Event.of(a2, [0]))


def test_generated_partition_single_event():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    part = oracle_cells(EventTuple.of_members(alg, [[0]]))
    cells = {s: (set(c[0]), c[1]) for s, c in part.items()}
    assert cells[(1,)] == ({0}, F(1, 2))
    assert cells[(0,)] == ({1, 2}, F(1, 2))


def test_equal_split_size_cap():
    """An equal split by m is the product with uniform_algebra(m); both
    builders refuse past MAX_REFINED_ATOMS atoms before building any."""
    assert 256 * 256 == MAX_REFINED_ATOMS
    at_cap = product_algebra(uniform_algebra(256), uniform_algebra(256))
    assert at_cap.size == MAX_REFINED_ATOMS
    # one atom past the cap, and far past it: a 10**12-atom build would not
    # return, so these refusals come before anything is built
    with pytest.raises(InstanceTooLarge):
        product_algebra(uniform_algebra(256), uniform_algebra(257))
    with pytest.raises(InstanceTooLarge):
        uniform_algebra(MAX_REFINED_ATOMS + 1)
    with pytest.raises(InstanceTooLarge):
        uniform_algebra(10**12)
    for m in (0, -1):
        with pytest.raises(ZeroAtom):
            uniform_algebra(m)


def test_refine_to_unit_size_cap():
    at_cap, projection = refine_to_unit(validate_algebra([F(1, 2)] * 2), F(1, MAX_REFINED_ATOMS))
    assert at_cap.size == len(projection) == MAX_REFINED_ATOMS
    # the masses sum to one, so the unit alone fixes the size: refused
    # before anything is built
    with pytest.raises(InstanceTooLarge):
        refine_to_unit(validate_algebra([F(1)]), F(1, MAX_REFINED_ATOMS + 1))
    # a unit that divides no mass is still a PartMassMismatch
    with pytest.raises(PartMassMismatch):
        refine_to_unit(validate_algebra([F(1, 2)] * 2), F(1, MAX_REFINED_ATOMS + 1))


def test_generated_partition_pair_of_events():
    alg = validate_algebra([F(1, 4)] * 4)
    part = oracle_cells(EventTuple.of_members(alg, [[0, 1], [0, 2]]))
    masses = {s: c[1] for s, c in part.items()}
    assert masses == {
        (1, 1): F(1, 4),
        (1, 0): F(1, 4),
        (0, 1): F(1, 4),
        (0, 0): F(1, 4),
    }


def test_partition_cells_cover_and_marginalize():
    rng = random.Random(7)
    for _ in range(25):
        alg = random_algebra(rng, max_atoms=6, max_den=24)
        t = random_tuple(rng, alg, rng.randint(0, 3))
        part = oracle_cells(t)
        total = sum((c[1] for c in part.values()), F(0))
        assert total == 1
        seen = [x for cell, _mass in part.values() for x in cell]
        assert sorted(seen) == list(range(alg.size))


def test_dist_examples():
    alg = validate_algebra([F(1, 4)] * 4)
    a = EventTuple.of_members(alg, [[0, 1], [0]])
    b = EventTuple.of_members(alg, [[0, 1], [1]])
    assert dist_max(a, b) == F(1, 2)
    assert dist_partition(a, b) == F(1, 2)


def test_dist_rejects_arity_mismatch():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    a = EventTuple.of_members(alg, [[0]])
    b = EventTuple.of_members(alg, [[0], [1]])
    with pytest.raises(ArityMismatch):
        dist_max(a, b)
    with pytest.raises(ArityMismatch):
        dist_partition(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_dist_partition_is_a_pseudometric(seed, arity):
    rng = random.Random(seed)
    alg = random_algebra(rng, max_atoms=6, max_den=30)
    a = random_tuple(rng, alg, arity)
    b = random_tuple(rng, alg, arity)
    c = random_tuple(rng, alg, arity)
    assert dist_partition(a, a) == 0
    assert dist_partition(a, b) == dist_partition(b, a)
    assert dist_partition(a, c) <= dist_partition(a, b) + dist_partition(b, c)
    assert dist_max(a, c) <= dist_max(a, b) + dist_max(b, c)


def test_joint_distribution_marginals():
    rng = random.Random(13)
    for _ in range(25):
        alg = random_algebra(rng, max_atoms=6, max_den=24)
        base = random_tuple(rng, alg, rng.randint(0, 2))
        fiber = random_tuple(rng, alg, rng.randint(0, 2))
        joint = joint_distribution(base, fiber)
        base_part = oracle_cells(base)
        for sign, (_cell, mass) in base_part.items():
            assert joint.base_marginal().get(sign, F(0)) == mass
        total = sum(joint.mass.values(), F(0))
        assert total == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_unit_law_matches_the_oracle_cells(seed, arities):
    """Every nonempty intersection of one oracle cell per tuple is a key of
    _unit_law, with its mass in units of 1/D, and the keys come in order of
    each cell's least atom."""
    rng = random.Random(seed)
    alg = random_algebra(rng, max_atoms=8, max_den=30)
    tuples = [random_tuple(rng, alg, arity) for arity in arities]
    expected = {}
    for cells in itertools.product(*[oracle_cells(t).items() for t in tuples]):
        atoms = frozenset.intersection(*[cell for _s, (cell, _m) in cells])
        if atoms:
            expected[tuple(s for s, _cell in cells)] = atoms
    law = _unit_law(*tuples)
    assert list(law) == sorted(expected, key=lambda key: min(expected[key]))
    for key, atoms in expected.items():
        assert F(law[key], alg.den) == sum((alg.atoms[x] for x in atoms), F(0))


def test_concat_takes_any_number_of_tuples():
    alg = validate_algebra([F(1, 4)] * 4)
    a = EventTuple.of_members(alg, [[0]])
    b = EventTuple.of_members(alg, [[1], [2]])
    c = EventTuple.of_members(alg, [[3]])
    assert a.concat() == a
    assert a.concat(b) == EventTuple(alg, a.events + b.events)
    assert a.concat(b, c) == a.concat(b).concat(c)
    other = EventTuple.of_members(validate_algebra([F(1, 2)] * 2), [[0]])
    with pytest.raises(AlgebraMismatch):
        a.concat(b, other)


def test_equal_split_example():
    alg = validate_algebra([F(1, 3), F(2, 3)])
    assert (uniform_algebra(3).den, uniform_algebra(3).units) == (3, (1, 1, 1))
    refined = product_algebra(alg, uniform_algebra(3))
    assert refined.atoms == (F(1, 9),) * 3 + (F(2, 9),) * 3
    assert (refined.den, refined.units) == (9, (1, 1, 1, 2, 2, 2))


def test_refine_to_unit_and_lift():
    alg = validate_algebra([F(1, 2), F(1, 3), F(1, 6)])
    refined, projection = refine_to_unit(alg, F(1, 6))
    assert refined.atoms == (F(1, 6),) * 6
    e = Event.of(alg, [0, 2])
    lifted = lift_event(e, refined, projection)
    assert lifted.mass == e.mass
    t = EventTuple.of_members(alg, [[0], [1, 2]])
    lt = lift_tuple(t, refined, projection)
    for orig, up in zip(t.events, lt.events):
        assert up.mass == orig.mass


def test_product_algebra_masses():
    a = validate_algebra([F(1, 2), F(1, 2)])
    b = validate_algebra([F(1, 3), F(2, 3)])
    prod = product_algebra(a, b)
    assert prod.atoms == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))


def test_atom_partition_validation():
    alg = validate_algebra([F(1, 4)] * 4)
    part = AtomPartition.of(alg, [[1, 0], [3, 2]])
    assert part.blocks == (frozenset({0, 1}), frozenset({2, 3}))
    with pytest.raises(PartMassMismatch):
        AtomPartition.of(alg, [[0, 1], [2]])
    with pytest.raises(PartMassMismatch):
        AtomPartition.of(alg, [[0, 1], [1, 2, 3]])


def test_dist_partition_counts_disagreeing_atom_mass():
    rng = random.Random(99)
    for _ in range(50):
        alg = random_algebra(rng, max_atoms=7, max_den=40)
        arity = rng.randint(1, 3)
        a = random_tuple(rng, alg, arity)
        b = random_tuple(rng, alg, arity)
        half_sum = F(0)
        pa = oracle_cells(a)
        pb = oracle_cells(b)
        signs = set(pa) | set(pb)
        for s in signs:
            cell_a = set(pa[s][0]) if s in pa else set()
            cell_b = set(pb[s][0]) if s in pb else set()
            half_sum += alg.mass_of(cell_a ^ cell_b)
        assert dist_partition(a, b) == half_sum / 2
