"""Every refinement entry point lays its refined algebra out the same way:
the parts of atom x are one run of consecutive atoms, the runs come in atom
order, and a refined action sends part j of x to part j of g(x).

The checks below read the layout from the projection alone, atom by atom,
so they do not lean on the library's own run bookkeeping.  The equal split
and the trivial tensor product that product_action replaced stay here as
its oracles."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _runs,
    _split,
    product_algebra,
    refine_to_unit,
)
from pmplab.action import (
    FkAction,
    _lift_action,
    product_action,
    refine_action_to_unit,
    validate_action,
)
from pmplab.constructions import eppa_extend, match_partitions

from conftest import (
    random_algebra,
    random_mass_preserving_perm,
    random_partial_automorphism,
    random_tuple,
    uniform_algebra,
)

F = Fraction


def parts_of(alg: MeasuredAlgebra, projection) -> list[list[int]]:
    """The refined atoms of each parent, in increasing order."""
    return [
        [u for u, parent in enumerate(projection) if parent == x] for x in range(alg.size)
    ]


def assert_run_layout(alg, refined, projection, equal_parts=True):
    """A nondecreasing projection onto every parent whose parts are one run
    summing to the parent's mass, of equal masses unless told otherwise."""
    assert len(projection) == refined.size
    assert list(projection) == sorted(projection)
    parts = parts_of(alg, projection)
    for x, run in enumerate(parts):
        assert run and run == list(range(run[0], run[-1] + 1))
        masses = [refined.atoms[u] for u in run]
        assert sum(masses) == alg.atoms[x]
        if equal_parts:
            assert len(set(masses)) == 1
    assert [list(r) for r in _runs(projection)] == parts


def assert_part_for_part(act: FkAction, refined: FkAction, projection):
    """Each generator sends part j of x to part j of p[x]."""
    assert refined.k == act.k
    parts = parts_of(act.algebra, projection)
    for p, q in zip(act.gens, refined.gens):
        for x, run in enumerate(parts):
            assert [q[u] for u in run] == parts[p[x]]


def random_action(rng: random.Random) -> FkAction:
    alg = random_algebra(rng, max_atoms=6, max_den=24)
    gens = [random_mass_preserving_perm(rng, alg) for _ in range(rng.randint(1, 2))]
    return validate_action(alg, gens)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_every_refinement_has_the_run_layout(seed):
    rng = random.Random(seed)
    act = random_action(rng)
    alg = act.algebra
    m = rng.randint(1, 3)
    unit = F(1, alg.den * rng.randint(1, 2))

    assert_run_layout(alg, *refine_to_unit(alg, unit))

    refined, projection = product_action(act, uniform_algebra(m))
    assert_run_layout(alg, refined.algebra, projection)
    assert_part_for_part(act, refined, projection)

    refined, projection = refine_action_to_unit(act, unit)
    assert_run_layout(alg, refined.algebra, projection)
    assert_part_for_part(act, refined, projection)

    factor = random_algebra(rng, max_atoms=3, max_den=6)
    tensored, projection = product_action(act, factor)
    assert_run_layout(alg, tensored.algebra, projection, equal_parts=False)
    assert_part_for_part(act, tensored, projection)

    a = random_tuple(rng, alg, rng.randint(1, 2))
    perm = random_mass_preserving_perm(rng, alg)
    b = EventTuple.of_members(alg, [[perm[x] for x in e.members] for e in a.events])
    matching = match_partitions(a, b)
    assert_run_layout(alg, matching.refined, matching.projection)

    partial = random_partial_automorphism(rng, alg)
    eppa = eppa_extend(alg, [partial])
    projection = [0] * eppa.action.algebra.size
    for (x,), block in eppa.embedding.pairs:
        for u in block:
            projection[u] = x
    assert_run_layout(alg, eppa.action.algebra, projection)
    parts = parts_of(alg, projection)
    for (x,), (y,) in partial.pairs:
        assert [eppa.action.gens[0][u] for u in parts[x]] == parts[y]


def oracle_runs(projection) -> list[range]:
    """_runs counting each parent's run one refined atom at a time."""
    sizes = (sum(1 for _ in parts) for _parent, parts in itertools.groupby(projection))
    stops = list(itertools.accumulate(sizes))
    return [range(start, stop) for start, stop in zip([0] + stops, stops)]


@given(st.lists(st.just(1) | st.integers(2, 40), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_runs_match_the_groupby_oracle(counts):
    """Parents of one part and of many, in any mix, on _split's layout."""
    alg = uniform_algebra(len(counts))
    _refined, projection = _split(alg, counts)
    assert _runs(projection) == oracle_runs(projection)
    assert [len(run) for run in _runs(projection)] == counts
    assert _runs(()) == oracle_runs(()) == []


def oracle_equal_refine_action(act: FkAction, m: int) -> tuple[FkAction, tuple[int, ...]]:
    """Split every atom into m equal parts through _split, part j of atom x
    at x*m + j, and carry the generators part-for-part."""
    refined, projection = _split(act.algebra, [m] * act.algebra.size)
    return _lift_action(act, refined, projection), projection


def oracle_tensor_trivial(
    act: FkAction, factor: MeasuredAlgebra
) -> tuple[FkAction, list[int]]:
    """Tensor with a trivial action: generators act on the first coordinate."""
    prod = product_algebra(act.algebra, factor)
    # atom (i, j) of the product is part j of atom i
    projection = [i for i in range(act.algebra.size) for _ in range(factor.size)]
    return _lift_action(act, prod, projection), projection


def assert_extension(act: FkAction, fiber: MeasuredAlgebra, extended: FkAction, projection):
    """Part (x, h), at x*fiber.size + h, lies over x and weighs
    mass(x)·mass(h), and the projection intertwines every generator."""
    alg = act.algebra
    pairs = [(x, h) for x in range(alg.size) for h in range(fiber.size)]
    assert list(projection) == [x for x, _h in pairs]
    assert extended.algebra.atoms == tuple(alg.atoms[x] * fiber.atoms[h] for x, h in pairs)
    assert extended.k == act.k
    for p, q in zip(act.gens, extended.gens):
        assert [projection[q[u]] for u in range(len(pairs))] == [p[x] for x in projection]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_product_action_matches_the_split_and_tensor_oracles(seed):
    rng = random.Random(seed)
    alg = random_algebra(rng, max_atoms=6, max_den=24)
    gens = [random_mass_preserving_perm(rng, alg) for _ in range(rng.randint(1, 3))]
    act = validate_action(alg, gens)
    m = rng.randint(1, 4)
    factor = random_algebra(rng, max_atoms=4, max_den=12)

    def layout(extended, projection):
        return extended.algebra.den, extended.algebra.units, extended.gens, tuple(projection)

    split = product_action(act, uniform_algebra(m))
    assert layout(*split) == layout(*oracle_equal_refine_action(act, m))
    assert_extension(act, uniform_algebra(m), *split)

    tensored = product_action(act, factor)
    assert layout(*tensored) == layout(*oracle_tensor_trivial(act, factor))
    assert_extension(act, factor, *tensored)
