"""Every refinement entry point lays its refined algebra out the same way:
the parts of atom x are one run of consecutive atoms, the runs come in atom
order, and a refined action sends part j of x to part j of g(x).

The checks below read the layout from the projection alone, atom by atom,
so they do not lean on the library's own run bookkeeping."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    AtomPartition,
    EventTuple,
    MeasuredAlgebra,
    _runs,
    _split,
    refine_equal,
    refine_to_unit,
)
from pmplab.action import (
    FkAction,
    equal_refine_action,
    perturb_small,
    refine_action_to_unit,
    tensor_trivial,
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


def random_partition(rng: random.Random, alg: MeasuredAlgebra) -> AtomPartition:
    atoms = list(range(alg.size))
    rng.shuffle(atoms)
    cuts = sorted(rng.sample(range(1, alg.size), rng.randint(0, alg.size - 1)))
    bounds = [0] + cuts + [alg.size]
    return AtomPartition.of(alg, [atoms[i:j] for i, j in zip(bounds, bounds[1:])])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_every_refinement_has_the_run_layout(seed):
    rng = random.Random(seed)
    act = random_action(rng)
    alg = act.algebra
    m = rng.randint(1, 3)
    unit = F(1, alg.denominator_lcm() * rng.randint(1, 2))

    assert_run_layout(alg, *refine_equal(alg, m))
    assert_run_layout(alg, *refine_to_unit(alg, unit))

    refined, projection = equal_refine_action(act, m)
    assert_run_layout(alg, refined.algebra, projection)
    assert_part_for_part(act, refined, projection)

    refined, projection = refine_action_to_unit(act, unit)
    assert_run_layout(alg, refined.algebra, projection)
    assert_part_for_part(act, refined, projection)

    factor = random_algebra(rng, max_atoms=3, max_den=6)
    tensored = tensor_trivial(act, factor)
    projection = [u // factor.size for u in range(tensored.algebra.size)]
    assert_run_layout(alg, tensored.algebra, projection, equal_parts=False)
    assert_part_for_part(act, tensored, projection)

    a = random_tuple(rng, alg, rng.randint(1, 2))
    perm = random_mass_preserving_perm(rng, alg)
    b = EventTuple.of_members(alg, [[perm[x] for x in e.members] for e in a.events])
    matching = match_partitions(a, b)
    assert_run_layout(alg, matching.refined, matching.projection)

    partial = random_partial_automorphism(rng, alg)
    eppa = eppa_extend(alg, [partial])
    projection = [0] * eppa.algebra.size
    for (x,), block in eppa.embedding.pairs:
        for u in block:
            projection[u] = x
    assert_run_layout(alg, eppa.algebra, projection)
    parts = parts_of(alg, projection)
    for (x,), (y,) in partial.pairs:
        assert [eppa.action.gens[0][u] for u in parts[x]] == parts[y]

    delta = F(1, rng.randint(2, 8))
    perturbation = perturb_small(act, random_partition(rng, alg), delta)
    assert_run_layout(alg, perturbation.action.algebra, perturbation.projection)
    assert_part_for_part(act, perturbation.action, perturbation.projection)


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
