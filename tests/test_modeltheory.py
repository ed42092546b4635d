"""Type distances over a base tuple and conditional-independence
deficiencies."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pmplab.algebra import (
    EventTuple,
    joint_distribution,
    product_algebra,
    validate_algebra,
)
from pmplab.errors import ArityMismatch, InstanceTooLarge, ValidationError
from pmplab.modeltheory import (
    TYPE_METRICS,
    independence_deficiency,
    joint_tv_distance,
    relatively_independent_joining,
    triple_law,
    type_distance,
    type_distance_max,
    type_distance_tv,
)

from conftest import oracle_type_distance, random_algebra, random_tuple, uniform_algebra

F = Fraction


def _tuples(alg, *memberses):
    return EventTuple.of_members(alg, list(memberses))


def test_type_distance_single_event_example():
    alg = validate_algebra([F(1, 3), F(1, 6), F(1, 2)])
    base = _tuples(alg)
    b = _tuples(alg, [0])
    c = _tuples(alg, [2])
    assert type_distance_tv(base, b, c) == F(1, 6)
    assert type_distance_max(base, b, c) == F(1, 6)
    assert oracle_type_distance(base, b, c, grid=6) == F(1, 6)
    assert oracle_type_distance(base, b, c, grid=6, metric="max") == F(1, 6)


def test_type_distance_same_mass_is_zero():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    base = _tuples(alg)
    b = _tuples(alg, [0])
    c = _tuples(alg, [1, 2])
    assert type_distance_tv(base, b, c) == 0
    assert type_distance_max(base, b, c) == 0


def test_type_distance_pair_example():
    alg = uniform_algebra(4)
    base = _tuples(alg)
    b = _tuples(alg, [0, 1], [0, 1])
    c = _tuples(alg, [0, 1], [2, 3])
    assert type_distance_tv(base, b, c) == 1
    assert type_distance_max(base, b, c) == F(1, 2)
    assert oracle_type_distance(base, b, c, grid=4, metric="max") == F(1, 2)
    assert oracle_type_distance(base, b, c, grid=4) == 1


def test_metric_names_select_the_type_distances():
    assert TYPE_METRICS == ("tv", "max")
    assert type_distance("tv") is type_distance_tv
    assert type_distance("max") is type_distance_max
    with pytest.raises(ValidationError, match="euclid"):
        type_distance("euclid")


def test_joint_tv_distance_shape_check():
    alg = uniform_algebra(2)
    j1 = joint_distribution(_tuples(alg), _tuples(alg, [0]))
    j2 = joint_distribution(_tuples(alg), _tuples(alg, [0], [1]))
    with pytest.raises(ArityMismatch):
        joint_tv_distance(j1, j2)


def test_type_distance_sandwich():
    rng = random.Random(101)
    for _ in range(60):
        alg = random_algebra(rng, max_atoms=6, max_den=20)
        base = random_tuple(rng, alg, arity=rng.randint(0, 1))
        n = rng.randint(1, 2)
        b = random_tuple(rng, alg, arity=n)
        c = random_tuple(rng, alg, arity=n)
        tv = type_distance_tv(base, b, c)
        mx = type_distance_max(base, b, c)
        assert mx <= tv <= n * 2 ** (n - 1) * mx


def test_type_distance_max_between_coordinate_and_joint_tv():
    # An optimal coupling mismatches coordinate i on at least the TV distance
    # of the i-th coordinates' types, and the TV coupling of the whole tuples
    # mismatches each coordinate on at most their TV distance; one coordinate's
    # optimal coupling is its TV coupling, so arity 1 gives equality.
    rng = random.Random(107)
    for _ in range(60):
        alg = random_algebra(rng, max_atoms=6, max_den=30)
        base = random_tuple(rng, alg, arity=rng.randint(0, 2))
        n = rng.randint(1, 3)
        b = random_tuple(rng, alg, arity=n)
        c = random_tuple(rng, alg, arity=n)
        coordinate = max(
            type_distance_tv(
                base,
                EventTuple.of(alg, [b.events[i]]),
                EventTuple.of(alg, [c.events[i]]),
            )
            for i in range(n)
        )
        mx = type_distance_max(base, b, c)
        assert coordinate <= mx <= type_distance_tv(base, b, c)
        if n == 1:
            assert mx == coordinate


def test_type_distance_tv_matches_oracle_on_small_instances():
    rng = random.Random(103)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        alg = uniform_algebra(n)
        base = random_tuple(rng, alg, arity=rng.choice([0, 1]))
        arity = rng.randint(1, 2)
        b = random_tuple(rng, alg, arity=arity)
        c = random_tuple(rng, alg, arity=arity)
        grid = alg.den
        try:
            got = oracle_type_distance(base, b, c, grid=grid)
        except InstanceTooLarge:
            continue
        assert got == type_distance_tv(base, b, c)
        done += 1


def test_type_distance_max_bounded_by_oracle():
    rng = random.Random(107)
    done = 0
    while done < 15:
        alg = uniform_algebra(rng.randint(2, 4))
        base = _tuples(alg)
        b = random_tuple(rng, alg, arity=2)
        c = random_tuple(rng, alg, arity=2)
        try:
            upper = oracle_type_distance(
                base, b, c, grid=alg.den, metric="max"
            )
        except InstanceTooLarge:
            continue
        assert type_distance_max(base, b, c) <= upper
        done += 1


def test_oracle_rejects_bad_instances():
    alg = uniform_algebra(2)
    base = _tuples(alg)
    b = _tuples(alg, [0])
    c = _tuples(alg, [1])
    with pytest.raises(ValueError):
        oracle_type_distance(base, b, c, grid=0)
    with pytest.raises(InstanceTooLarge):
        oracle_type_distance(base, b, c, grid=65)
    wide_b = random_tuple(random.Random(0), alg, arity=3)
    with pytest.raises(InstanceTooLarge):
        oracle_type_distance(base, wide_b, wide_b, grid=2)


def test_oracle_accepts_a_wide_base_with_few_cells():
    """A 40-event base over 4 atoms has 3 nonempty cells; only those are
    enumerated, never the 2**40 sign vectors."""
    alg = uniform_algebra(4)
    narrow = _tuples(alg, [0, 1], [0, 1, 2])
    wide = _tuples(alg, *([[0, 1], [0, 1, 2]] * 20))
    b = _tuples(alg, [0, 2])
    c = _tuples(alg, [1, 3])
    expected = oracle_type_distance(narrow, b, c, grid=2)
    assert expected == F(1, 2)
    assert oracle_type_distance(wide, b, c, grid=2) == expected


def test_joining_product_example():
    alg = uniform_algebra(4)
    base = _tuples(alg)
    b = _tuples(alg, [0, 1])
    join = relatively_independent_joining(base, b, b)
    assert set(join.mass.values()) == {F(1, 4)}
    assert len(join.mass) == 4


def test_joining_of_base_measurable_fiber_is_the_actual_law():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    base = _tuples(alg, [0])
    b = _tuples(alg, [0])
    c = _tuples(alg, [1])
    join = relatively_independent_joining(base, b, c)
    actual = triple_law(base, c, b)
    assert join.mass == actual.mass


def test_deficiency_examples():
    alg = uniform_algebra(4)
    base = _tuples(alg)
    b = _tuples(alg, [0, 1])
    assert independence_deficiency(base, b, b) == F(1, 2)

    prod = product_algebra(uniform_algebra(2), uniform_algebra(2))
    pbase = _tuples(prod)
    left = _tuples(prod, [0, 1])
    right = _tuples(prod, [0, 2])
    assert independence_deficiency(pbase, left, right) == 0


def test_deficiency_zero_iff_product_identity():
    rng = random.Random(109)
    seen_nonzero = False
    for _ in range(80):
        alg = random_algebra(rng, max_atoms=6, max_den=12)
        base = random_tuple(rng, alg, arity=rng.choice([0, 1]))
        b = random_tuple(rng, alg, arity=1)
        c = random_tuple(rng, alg, arity=1)
        dp = independence_deficiency(base, b, c)
        law = triple_law(base, c, b)
        jb = joint_distribution(base, b)
        jc = joint_distribution(base, c)
        marg = jb.base_marginal()
        identity = all(
            law.mass.get((r, t, s), F(0)) * marg[r]
            == jb.mass.get((r, s), F(0)) * jc.mass.get((r, t), F(0))
            for r in marg
            for t in set(t2 for (r2, t2) in jc.mass if r2 == r)
            for s in set(s2 for (r2, s2) in jb.mass if r2 == r)
        )
        assert (dp == 0) == identity
        symmetric = independence_deficiency(base, c, b)
        assert (dp == 0) == (symmetric == 0)
        seen_nonzero = seen_nonzero or dp > 0
    assert seen_nonzero


def test_type_distance_invariant_under_mass_preserving_relabeling():
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randint(3, 6)
        alg = uniform_algebra(n)
        base = random_tuple(rng, alg, arity=1)
        b = random_tuple(rng, alg, arity=2)
        c = random_tuple(rng, alg, arity=2)
        perm = list(range(n))
        rng.shuffle(perm)

        def relabel(t):
            return EventTuple.of_members(
                alg, [sorted(perm[x] for x in e.members) for e in t.events]
            )

        assert type_distance_tv(base, b, c) == type_distance_tv(
            relabel(base), relabel(b), relabel(c)
        )
        assert type_distance_max(base, b, c) == type_distance_max(
            relabel(base), relabel(b), relabel(c)
        )
