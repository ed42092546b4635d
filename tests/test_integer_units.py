"""The measure kernels add integer units over one common denominator per
algebra, and so do the type distances, the joining and the independence
deficiency.  Each is checked here against the Fraction-by-Fraction code it
replaced, kept as the oracle: equal values, equal key order in the laws,
and equal exception types and messages.  Every algebra a constructor
builds from its parents' integer units is checked against the units
validate_algebra gives its atoms, and the atoms of splits and products
against the Fraction quotients and products.
PartialIsomorphism.of compares block masses as unit sums over two
denominators and is checked against the Fraction comparison it replaced."""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab import modeltheory
from pmplab.action import check_permutation
from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _cell_law,
    _split,
    dist_partition,
    joint_distribution,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from pmplab.constructions import (
    Isomorphism,
    PartialIsomorphism,
    eppa_extend,
    match_partitions,
)
from pmplab.errors import (
    AlgebraMismatch,
    ArityMismatch,
    InstanceTooLarge,
    LPInternal,
    MassNotOne,
    NotBijective,
    NotMassPreserving,
    NotMeasurePreserving,
    PartMassMismatch,
    ZeroAtom,
)
from pmplab.modeltheory import (
    TripleDistribution,
    independence_deficiency,
    joint_tv_distance,
    relatively_independent_joining,
    triple_law,
    type_distance_max,
    type_distance_tv,
)
from pmplab.simplex import LPSolution, solve_lp

from conftest import fiber_support, oracle_cell_law, oracle_sign_map, outcome

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


def oracle_partial_isomorphism(source: MeasuredAlgebra, target: MeasuredAlgebra, pairs):
    seen_src: set[int] = set()
    seen_tgt: set[int] = set()
    out = []
    for src, tgt in pairs:
        fs, ft = frozenset(src), frozenset(tgt)
        if not all(0 <= i < source.size for i in fs):
            raise AlgebraMismatch("source block out of range")
        if not all(0 <= i < target.size for i in ft):
            raise AlgebraMismatch("target block out of range")
        if fs & seen_src or ft & seen_tgt:
            raise NotMassPreserving("blocks of a partial isomorphism overlap")
        seen_src |= fs
        seen_tgt |= ft
        if oracle_mass_of(source, fs) != oracle_mass_of(target, ft):
            raise NotMassPreserving(
                f"block masses differ: {oracle_mass_of(source, fs)} vs "
                f"{oracle_mass_of(target, ft)}"
            )
        out.append((fs, ft))
    return PartialIsomorphism(source, target, tuple(out))


def oracle_refine_to_unit(alg: MeasuredAlgebra, unit: Fraction):
    counts = []
    for mass in alg.atoms:
        count = mass / unit
        if count.denominator != 1 or count < 1:
            raise PartMassMismatch(f"unit {unit} does not divide atom mass {mass}")
        counts.append(int(count))
    return _split(alg, counts)


def oracle_tv(p, q) -> Fraction:
    keys = set(p) | set(q)
    return sum((abs(p.get(k, ZERO) - q.get(k, ZERO)) for k in keys), ZERO) / 2


def oracle_type_distance_tv(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    return oracle_tv(joint_distribution(base, b).mass, joint_distribution(base, c).mass)


def oracle_type_distance_max(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    """One coupling variable for every pair of fiber signs of each base cell,
    shared mass included, with Fraction rows."""
    n = b.arity
    if n == 0:
        return ZERO
    jb = joint_distribution(base, b)
    jc = joint_distribution(base, c)
    cells = sorted(jb.base_marginal())
    var_index = {}
    for r in cells:
        for s in fiber_support(jb, r):
            for t in fiber_support(jc, r):
                var_index[(r, s, t)] = len(var_index)
    z_index = len(var_index)
    width = z_index + 1 + n
    rows, rhs = [], []
    for r in cells:
        for s in fiber_support(jb, r):
            row = [ZERO] * width
            for t in fiber_support(jc, r):
                row[var_index[(r, s, t)]] = F(1)
            rows.append(row)
            rhs.append(jb.mass.get((r, s), ZERO))
        for t in fiber_support(jc, r):
            row = [ZERO] * width
            for s in fiber_support(jb, r):
                row[var_index[(r, s, t)]] = F(1)
            rows.append(row)
            rhs.append(jc.mass.get((r, t), ZERO))
    for i in range(n):
        row = [ZERO] * width
        for (r, s, t), j in var_index.items():
            if s[i] != t[i]:
                row[j] = F(1)
        row[z_index] = F(-1)
        row[z_index + 1 + i] = F(1)
        rows.append(row)
        rhs.append(ZERO)
    objective = [ZERO] * width
    objective[z_index] = F(1)
    return solve_lp(objective, rows, rhs).value


def oracle_joining(base: EventTuple, b: EventTuple, c: EventTuple) -> TripleDistribution:
    jb = joint_distribution(base, b)
    jc = joint_distribution(base, c)
    base_masses = jb.base_marginal()
    mass = {}
    for (r, s), mb in jb.mass.items():
        for t in fiber_support(jc, r):
            mass[(r, t, s)] = mb * jc.mass.get((r, t), ZERO) / base_masses[r]
    return TripleDistribution(base.arity, c.arity, b.arity, mass)


def oracle_independence_deficiency(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    return oracle_tv(triple_law(base, c, b).mass, oracle_joining(base, b, c).mass)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def mixed_masses(draw, max_atoms: int = 64, min_atoms: int = 1) -> list[Fraction]:
    """min_atoms..max_atoms masses summing to one, with mixed denominators;
    drawn from a small pool, so equal masses recur."""
    pool = draw(st.lists(
        st.fractions(min_value=F(1, 64), max_value=4, max_denominator=64),
        min_size=1, max_size=6,
    ))
    weights = draw(st.lists(st.sampled_from(pool), min_size=min_atoms, max_size=max_atoms))
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


@st.composite
def type_instances(draw):
    """An algebra of 1-40 atoms, a base tuple of arity 0-2 and two fiber
    tuples b and c of arity 0-3.  c is drawn afresh, or its law agrees with
    b's in some or in every base cell: there c carries b's signs moved along
    a mass-preserving permutation of the cell's atoms, so the two tuples
    differ while their laws agree."""
    alg = validate_algebra(draw(mixed_masses(max_atoms=40)))
    n = alg.size
    members = st.sets(st.integers(0, n - 1))
    base = EventTuple.of_members(alg, draw(st.lists(members, max_size=2)))
    arity = draw(st.sampled_from([2, 3, 1, 0]))  # programs are the point
    b = EventTuple.of_members(alg, draw(st.lists(members, min_size=arity, max_size=arity)))
    fresh = [set(e) for e in draw(st.lists(members, min_size=arity, max_size=arity))]
    signs = [tuple(int(x in e) for e in fresh) for x in range(n)]
    b_signs = oracle_sign_map(b)
    cells: dict = {}
    for x, r in enumerate(oracle_sign_map(base)):
        cells.setdefault(r, {}).setdefault(alg.atoms[x], []).append(x)
    agree = draw(st.sampled_from(["none", "some", "all"]))
    for classes in cells.values():
        if agree == "all" or (agree == "some" and draw(st.booleans())):
            for group in classes.values():
                for x, y in zip(group, draw(st.permutations(group))):
                    signs[y] = b_signs[x]
    c = EventTuple.of_members(alg, [[x for x in range(n) if signs[x][i]] for i in range(arity)])
    return base, b, c


PAIR_FAULTS = ("good", "good", "empty", "whole", "range", "negative", "overlap", "mass", "any")


@st.composite
def partial_instances(draw):
    """A source algebra of 1-40 atoms; a target algebra that is another
    algebra, either the source's atoms shuffled with some split in two or
    three (so that a block and its image weigh the same over another common
    denominator) or an unrelated one; and 1-6 block pairs, all good, or
    each good or with a fault: empty blocks, the whole algebra on each side, an index out
    of range or negative, a block that meets an earlier one, a block that
    lost or gained an atom, or indices drawn anywhere.  Several faults in
    one list pin which one is reported first."""
    source = validate_algebra(draw(mixed_masses(max_atoms=40)))
    n = source.size
    image = None
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pieces = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        masses: list[Fraction] = []
        image = [[] for _ in range(n)]
        for x in order:
            image[x] = list(range(len(masses), len(masses) + pieces[x]))
            masses.extend([source.atoms[x] / pieces[x]] * pieces[x])
        target = validate_algebra(masses)
    else:
        target = validate_algebra(draw(mixed_masses(max_atoms=40)))
    m = target.size
    faults = draw(st.sampled_from([("good",), PAIR_FAULTS]))
    pairs = []
    used: set[int] = set()
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(faults))
        free = [x for x in range(n) if x not in used] or [0]
        src = set(draw(st.lists(st.sampled_from(free), max_size=4)))
        used |= src
        if image is None:
            tgt = draw(st.sets(st.integers(0, m - 1), max_size=4))
        else:
            tgt = {y for x in src for y in image[x]}
        side = draw(st.sampled_from([src, tgt]))
        if kind == "empty":
            src, tgt = draw(st.sampled_from([(set(), set()), (src, set()), (set(), tgt)]))
        elif kind == "whole":
            src, tgt = set(range(n)), set(range(m))
        elif kind == "range":
            side.add((n if side is src else m) + draw(st.integers(0, 2)))
        elif kind == "negative":
            side.add(-draw(st.integers(1, 3)))
        elif kind == "overlap" and pairs:
            earlier = draw(st.sampled_from(pairs))
            side.add(draw(st.sampled_from(sorted(earlier[0 if side is src else 1]) or [0])))
        elif kind == "mass":
            if side:
                side.discard(draw(st.sampled_from(sorted(side))))
            else:
                side.add(0)
        elif kind == "any":
            src = draw(st.sets(st.integers(-2, n + 1), max_size=4))
            tgt = draw(st.sets(st.integers(-2, m + 1), max_size=4))
        form = draw(st.sampled_from([list, tuple, sorted]))
        pairs.append((form(src), form(tgt)))
    return source, target, pairs


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
    assert alg.den == den
    assert [Fraction(u, den) for u in alg.units] == list(expected)


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
    mid = tuples[len(tuples) // 2]
    triple = triple_law(a, mid, b)
    assert list(triple.mass.items()) == list(oracle_cell_law(a, mid, b).items())
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
    assert (source.units[0], target.units[1]) == (2, 3)
    with pytest.raises(NotMassPreserving) as err:
        Isomorphism.of(source, target, [1, 0, 2])
    assert str(err.value) == "atom 1 of mass 1/4 maps to mass 1/6"
    twin = validate_algebra([F(1, 4), F(1, 2), F(1, 4)])
    assert Isomorphism.of(source, twin, [1, 0, 2]).mapping == (1, 0, 2)


@given(partial_instances())
@settings(max_examples=400, deadline=None)
def test_partial_isomorphism_matches_the_fraction_oracle(instance):
    source, target, pairs = instance
    assert outcome(PartialIsomorphism.of, source, target, pairs) == outcome(
        oracle_partial_isomorphism, source, target, pairs
    )


def test_partial_isomorphism_builds_masses_only_for_its_message():
    source = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    target = validate_algebra([F(1, 6), F(1, 2), F(1, 3)])
    refuse = mock.patch.object(MeasuredAlgebra, "mass_of", side_effect=AssertionError)
    with refuse:
        assert PartialIsomorphism.of(source, target, []).pairs == ()
        p = PartialIsomorphism.of(source, target, [([0], [1]), ([1, 2], (0, 2)), ([], [])])
    assert p.pairs == (
        (frozenset({0}), frozenset({1})),
        (frozenset({1, 2}), frozenset({0, 2})),
        (frozenset(), frozenset()),
    )
    with pytest.raises(NotMassPreserving) as err:
        PartialIsomorphism.of(source, target, [([0], [1]), ([1], [0])])
    assert str(err.value) == "block masses differ: 1/4 vs 1/6"


@pytest.mark.parametrize("pairs, error, message", [
    # out of range on both sides, overlapping and unequal: the source range wins
    ([([0], [1]), ([0, 3], [-1])], AlgebraMismatch, "source block out of range"),
    ([([0], [1]), ([-1], [5])], AlgebraMismatch, "source block out of range"),
    # then the target range, before the overlap and the masses
    ([([0], [1]), ([0], [3])], AlgebraMismatch, "target block out of range"),
    ([([0], [1]), ([0], [0])], NotMassPreserving, "blocks of a partial isomorphism overlap"),
    # a fault in an earlier pair wins over any fault in a later one
    ([([1], [0]), ([3], [3])], NotMassPreserving, "block masses differ: 1/4 vs 1/6"),
    ([([], [0]), ([0], [0])], NotMassPreserving, "block masses differ: 0 vs 1/6"),
])
def test_partial_isomorphism_reports_the_first_fault(pairs, error, message):
    source = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    target = validate_algebra([F(1, 6), F(1, 2), F(1, 3)])
    with pytest.raises(error) as err:
        PartialIsomorphism.of(source, target, pairs)
    assert (type(err.value), str(err.value)) == (error, message)
    assert outcome(oracle_partial_isomorphism, source, target, pairs) == (error, message)


@given(mixed_masses(max_atoms=12), mixed_masses(max_atoms=6), st.data())
@settings(max_examples=200, deadline=None)
def test_splits_and_products_build_the_fraction_atoms(m1, m2, data):
    alg = validate_algebra(m1)
    factor = validate_algebra(m2)
    counts = data.draw(st.lists(st.integers(1, 4), min_size=alg.size, max_size=alg.size))
    split, _ = _split(alg, counts)
    prod = product_algebra(alg, factor)
    assert split.atoms == tuple(m / c for m, c in zip(alg.atoms, counts) for _ in range(c))
    assert prod.atoms == tuple(a * b for a in alg.atoms for b in factor.atoms)
    assert {type(m) for m in split.atoms + prod.atoms} == {Fraction}


def assert_units_are_those_its_atoms_give(alg: MeasuredAlgebra) -> None:
    fresh = validate_algebra(alg.atoms)
    assert (alg.den, alg.units) == (fresh.den, fresh.units)


def preserving_permutation(data, alg: MeasuredAlgebra) -> list[int]:
    """A mass-preserving permutation: atoms of one unit count shuffled."""
    classes: dict[int, list[int]] = {}
    for x, u in enumerate(alg.units):
        classes.setdefault(u, []).append(x)
    table = [0] * alg.size
    for members in classes.values():
        for x, y in zip(members, data.draw(st.permutations(members))):
            table[x] = y
    return table


@given(mixed_masses(max_atoms=12), mixed_masses(max_atoms=6), st.data())
@settings(max_examples=200, deadline=None)
def test_every_constructor_gives_the_units_its_atoms_give(m1, m2, data):
    """Refinements, products, the matching's refinement and the eppa
    overalgebra build their units from their parents' integers; each equals
    what validate_algebra gives their atoms."""
    alg = validate_algebra(m1)
    factor = validate_algebra(m2)
    m = data.draw(st.integers(1, 4))
    counts = data.draw(st.lists(st.integers(1, 4), min_size=alg.size, max_size=alg.size))
    equal = product_algebra(alg, uniform_algebra(m))
    assert equal.den == alg.den * m
    assert equal.units == tuple(u for u in alg.units for _ in range(m))
    prod = product_algebra(alg, factor)
    assert prod.den == alg.den * factor.den
    built = [alg, factor, uniform_algebra(m), equal, _split(alg, counts)[0], prod]
    built.append(product_algebra(prod, uniform_algebra(2)))
    built.append(product_algebra(equal, factor))

    p = preserving_permutation(data, alg)
    members = st.sets(st.integers(0, alg.size - 1))
    a = EventTuple.of_members(alg, data.draw(st.lists(members, min_size=1, max_size=3)))
    b = EventTuple.of_members(alg, [[p[x] for x in e.members] for e in a.events])
    partial = PartialIsomorphism.of(alg, alg, [([x], [y]) for x, y in enumerate(p)])
    refusable = [
        lambda: refine_to_unit(alg, F(1, alg.den * data.draw(st.integers(1, 3))))[0],
        lambda: match_partitions(a, b).refined,
        lambda: eppa_extend(alg, [partial]).action.algebra,
    ]
    for build in refusable:
        try:
            built.append(build())
        except InstanceTooLarge:
            pass
    for each in built:
        assert_units_are_those_its_atoms_give(each)


raw_units = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=200).filter(bool),
    st.integers(1, 3),
)


@given(mixed_masses(max_atoms=12), st.data())
@settings(max_examples=200, deadline=None)
def test_refine_to_unit_matches_the_fraction_oracle(masses, data):
    alg = validate_algebra(masses)
    unit = data.draw(st.one_of(
        raw_units,
        st.integers(1, 4).map(lambda k: F(1, alg.den * k)),
        st.sampled_from(alg.atoms),
        st.sampled_from(alg.atoms).map(lambda m: m / 2),
    ))
    got = outcome(refine_to_unit, alg, unit)
    expected = outcome(oracle_refine_to_unit, alg, unit)
    if got[0] == "value":
        assert expected[0] == "value"
        assert got[1][0].atoms == expected[1][0].atoms
        assert got[1][1] == expected[1][1]
    else:
        assert got == expected
    with pytest.raises(ZeroDivisionError):
        refine_to_unit(alg, F(0))


@given(type_instances())
@settings(max_examples=300, deadline=None)
def test_type_distances_match_the_fraction_oracles(instance):
    base, b, c = instance
    for got, expected in [
        (type_distance_tv(base, b, c), oracle_type_distance_tv(base, b, c)),
        (type_distance_max(base, b, c), oracle_type_distance_max(base, b, c)),
    ]:
        assert got == expected and type(got) is Fraction


@given(type_instances())
@settings(max_examples=200, deadline=None)
def test_joining_and_deficiency_match_the_fraction_oracles(instance):
    base, b, c = instance
    joining = relatively_independent_joining(base, b, c)
    expected = oracle_joining(base, b, c)
    assert joining == expected and repr(joining) == repr(expected)
    assert list(joining.mass.items()) == list(expected.mass.items())
    assert all(type(m) is Fraction for m in joining.mass.values())
    for x, y in [(b, c), (c, b), (base, b)]:
        got = independence_deficiency(base, x, y)
        assert got == oracle_independence_deficiency(base, x, y)
        assert type(got) is Fraction


@given(algebra_and_tuples(), algebra_and_tuples())
@settings(max_examples=150, deadline=None)
def test_joint_tv_distance_across_algebras_matches_the_fraction_oracle(one, other):
    (_, [a, *rest]), (_, [x, *more]) = one, other
    b = rest[-1] if rest else a
    y = more[-1] if more else x
    j1, j2 = joint_distribution(a, b), joint_distribution(x, y)
    got = outcome(joint_tv_distance, j1, j2)
    if (a.arity, b.arity) == (x.arity, y.arity):
        assert got == ("value", oracle_tv(j1.mass, j2.mass))
        assert type(got[1]) is Fraction
        assert joint_tv_distance(j1, j1) == 0
    else:
        assert got == (ArityMismatch, "joint distributions have different shapes")


def residual_sides(base: EventTuple, b: EventTuple, c: EventTuple) -> list[tuple[int, int]]:
    """Per base cell, the number of signs where b's law exceeds c's and the
    number where c's exceeds b's."""
    jb, jc = joint_distribution(base, b), joint_distribution(base, c)
    sides = []
    for r in jb.base_marginal():
        keys = set(fiber_support(jb, r)) | set(fiber_support(jc, r))
        more = sum(1 for s in keys if jb.mass.get((r, s), ZERO) > jc.mass.get((r, s), ZERO))
        less = sum(1 for s in keys if jb.mass.get((r, s), ZERO) < jc.mass.get((r, s), ZERO))
        sides.append((more, less))
    return sides


def simplex_calls(base: EventTuple, b: EventTuple, c: EventTuple):
    """type_distance_max's value and the programs it hands the simplex."""
    calls = []

    def counted(objective, rows, rhs):
        calls.append((objective, rows, rhs))
        return solve_lp(objective, rows, rhs)

    with mock.patch.object(modeltheory, "solve_lp", counted):
        value = type_distance_max(base, b, c)
    return value, calls


@given(type_instances())
@settings(max_examples=200, deadline=None)
def test_the_simplex_sees_only_residual_pairs(instance):
    """No program at arity 0 or 1, nor when the laws agree in every base
    cell, nor when every cell's residual has one sign on a side, which
    forces its coupling; otherwise one integer program with one variable per
    residual pair of the other cells besides the maximum and the n slacks,
    and the margin rows of those cells less one each besides the n mismatch
    rows."""
    base, b, c = instance
    value, calls = simplex_calls(base, b, c)
    sides = residual_sides(base, b, c)
    free = [(more, less) for more, less in sides if more > 1 and less > 1]
    if b.arity <= 1 or not any(more * less for more, less in sides):
        assert calls == []
        assert value == oracle_type_distance_tv(base, b, c)
    elif not free:
        assert calls == []
        assert value == oracle_type_distance_max(base, b, c)
    else:
        [(objective, rows, rhs)] = calls
        assert len(objective) == sum(more * less for more, less in free) + 1 + b.arity
        assert len(rows) == sum(more + less - 1 for more, less in free) + b.arity
        assert all(type(v) is int for v in [*objective, *rhs, *(v for row in rows for v in row)])


@st.composite
def forced_instances(draw):
    """An algebra of 12-40 atoms, a base tuple of arity 1-2 and fresh fiber
    tuples b and c of arity 2-3, with c then made constant on some or on
    every base cell: there c's residual has at most one sign, so the cell's
    coupling is forced, while the other cells may keep a program."""
    alg = validate_algebra(draw(mixed_masses(max_atoms=40, min_atoms=12)))

    def events(arity):
        """Each atom in each event by a fair draw, so that cells hold many signs."""
        flags = st.lists(st.booleans(), min_size=alg.size, max_size=alg.size)
        return EventTuple.of_members(
            alg, [[x for x, inside in enumerate(draw(flags)) if inside] for _ in range(arity)]
        )

    base = events(draw(st.sampled_from([1, 2])))
    arity = draw(st.sampled_from([2, 3]))
    b, c = events(arity), events(arity)
    signs = oracle_sign_map(c)
    cells: dict = {}
    for x, r in enumerate(oracle_sign_map(base)):
        cells.setdefault(r, []).append(x)
    every = draw(st.booleans())
    for atoms in cells.values():
        if every or draw(st.booleans()):
            sign = signs[draw(st.sampled_from(atoms))]
            for x in atoms:
                signs[x] = sign
    members_c = [[x for x, sign in enumerate(signs) if sign[i]] for i in range(arity)]
    return base, b, EventTuple.of_members(alg, members_c)


@given(forced_instances())
@settings(max_examples=200, deadline=None)
def test_forced_cells_keep_the_value_of_the_whole_program(instance):
    """Moving the forced cells to the right-hand side keeps the value of the
    program over every cell."""
    base, b, c = instance
    value = type_distance_max(base, b, c)
    assert value == oracle_type_distance_max(base, b, c) and type(value) is Fraction


def test_agreeing_laws_and_arity_one_solve_no_program():
    alg = validate_algebra([F(1, 4), F(1, 4), F(1, 3), F(1, 6)])
    base = EventTuple.of_members(alg, [[0, 1, 2]])
    b = EventTuple.of_members(alg, [[0], [0, 3], [1, 2]])
    swapped = EventTuple.of_members(alg, [[1], [1, 3], [0, 2]])  # atoms 0 and 1 swap
    value, calls = simplex_calls(base, b, swapped)
    assert (value, calls) == (0, []) and type(value) is Fraction
    other = EventTuple.of_members(alg, [[2]])
    value, calls = simplex_calls(base, EventTuple.of_members(alg, [[0]]), other)
    assert (value, calls) == (F(1, 12), [])
    value, calls = simplex_calls(base, b, EventTuple.of_members(alg, [[2], [3], []]))
    assert len(calls) == 1 and value == oracle_type_distance_max(
        base, b, EventTuple.of_members(alg, [[2], [3], []])
    )
    with pytest.raises(ArityMismatch):
        type_distance_max(base, b, other)
    negative = mock.patch.object(modeltheory, "solve_lp", lambda *_: LPSolution(F(-1), ()))
    with negative, pytest.raises(LPInternal, match="negative distance"):
        type_distance_max(base, b, EventTuple.of_members(alg, [[2], [3], []]))
