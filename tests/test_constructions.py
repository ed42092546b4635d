"""Partial isomorphisms, partition matching, marked groups, quotient
actions, equal-atom extensions, ergodization, embeddings, and the
near-conjugacy search."""
from __future__ import annotations

import heapq
import inspect
import random
import time
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import permutations, product
from math import lcm, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    AtomPartition,
    Event,
    EventTuple,
    _runs,
    dist_partition,
    lift_tuple,
    refine_to_unit,
    validate_algebra,
)
from pmplab import action as action_module
from pmplab import constructions, limits
from pmplab.action import (
    FkAction,
    extensions,
    invariant_components,
    perm_compose,
    perm_inverse,
    product_action,
    refine_action_to_unit,
    uniform_distance,
    validate_action,
)
from pmplab.constructions import (
    ConjugacyCertificate,
    Isomorphism,
    MarkedGroup,
    _beam_assign,
    _conjugacy_defect,
    _cycle_type_assign,
    _exact_assign,
    _generated_group,
    _greedy_grouping,
    _grouping,
    PartialIsomorphism,
    approx_conjugacy_search,
    cyclic_group,
    embed_into_profinite_tensor,
    embed_transitive_into_quotient,
    eppa_extend,
    ergodize,
    joint_quotient,
    match_partitions,
    permutation_marked_group,
    quotient_action,
    verify_conjugacy,
)
from pmplab.errors import (
    AlgebraMismatch,
    ArityMismatch,
    InstanceTooLarge,
    InvalidGroupTable,
    LPInternal,
    NotBijective,
    NotGenerating,
    NotMassPreserving,
    NotMeasurePreserving,
    NotTransitive,
    PartitionNotPreserved,
    PreconditionInvariantElement,
    TypeMismatch,
    UnequalAtoms,
    ValidationError,
)
from pmplab.jsonio import action_to_json, group_from_json, group_to_json
from pmplab.limits import (
    BEAM_WIDTH,
    MAX_BEAM_STEPS,
    MAX_EXACT_STEPS,
    MAX_GENERATOR_ENTRIES,
    MAX_GROUP_ENTRIES,
    MAX_REFINED_ATOMS,
    _check_beam_steps,
    _check_exact_steps,
)

from conftest import (
    breadth_first,
    cycle_mismatch_pair,
    event_image,
    group_from_table,
    marked_group_isomorphism,
    oracle_sign_map,
    oracle_unit_law,
    oracle_validate_marked_group,
    oracle_visit_order,
    outcome,
    random_algebra,
    random_permutation,
    random_equal_atom_action,
    random_mass_preserving_perm,
    random_partial_automorphism,
    random_small_order_action,
    random_transitive_small_action,
    random_tuple,
    relabeled_action,
    transitive_census,
    uniform_algebra,
)
from test_action import oracle_components

F = Fraction


# ---------------------------------------------------------------- partials


def test_partial_isomorphism_validation():
    alg = uniform_algebra(4)
    p = PartialIsomorphism.of(alg, alg, [([0], [1]), ([2, 3], [0, 2])])
    assert p.pairs[0] == (frozenset({0}), frozenset({1}))
    with pytest.raises(NotMassPreserving):
        PartialIsomorphism.of(alg, alg, [([0], [1]), ([0], [2])])
    with pytest.raises(NotMassPreserving):
        PartialIsomorphism.of(alg, alg, [([0], [1, 2])])
    with pytest.raises(AlgebraMismatch):
        PartialIsomorphism.of(alg, alg, [([7], [1])])


def test_constructions_refuse_inputs_on_another_algebra_and_no_generators():
    alg, stranger = uniform_algebra(2), uniform_algebra(2)
    act = validate_action(alg, [(1, 0)])
    cases = [
        (lambda: match_partitions(EventTuple.of_members(alg, [[0]]),
                                  EventTuple.of_members(stranger, [[0]])),
         (AlgebraMismatch, "tuples live on different algebras")),
        (lambda: ergodize(act, AtomPartition.of(stranger, [[0, 1]])),
         (AlgebraMismatch, "fixed partition does not live on the action's algebra")),
        (lambda: permutation_marked_group([]),
         (InvalidGroupTable, "need at least one generator permutation")),
    ]
    for call, expected in cases:
        assert outcome(call) == expected


def test_partial_isomorphism_event_maps():
    alg = uniform_algebra(4)
    p = PartialIsomorphism.of(alg, alg, [([0], [1]), ([2], [3])])
    assert p.atom_blocks() == {0: frozenset({1}), 2: frozenset({3})}
    lumped = PartialIsomorphism.of(alg, alg, [([0, 1], [2, 3])])
    with pytest.raises(NotMassPreserving):
        lumped.atom_blocks()


def test_isomorphism_validation():
    alg = uniform_algebra(3)
    iso = Isomorphism.of(alg, alg, (1, 2, 0))
    assert iso.mapping == (1, 2, 0)
    skew = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    with pytest.raises(NotMassPreserving):
        Isomorphism.of(skew, skew, (1, 0, 2))


# ---------------------------------------------------------------- matching


def test_match_partitions_identity():
    alg = uniform_algebra(4)
    a = EventTuple.of_members(alg, [[0, 1]])
    m = match_partitions(a, a)
    assert m.dp == 0
    assert m.perm == tuple(range(len(m.refined.atoms)))


def test_match_partitions_swap_example():
    alg = uniform_algebra(4)
    a = EventTuple.of_members(alg, [[0, 1]])
    b = EventTuple.of_members(alg, [[0, 2]])
    m = match_partitions(a, b)
    assert m.dp == F(1, 2)
    assert m.perm == (0, 2, 1, 3)
    assert uniform_distance(m.refined, m.perm, tuple(range(4))) == F(1, 2)


def test_match_partitions_splits_atoms_when_needed():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    a = EventTuple.of_members(alg, [[0]])
    b = EventTuple.of_members(alg, [[1, 2]])
    m = match_partitions(a, b)
    assert m.refined.atoms == (F(1, 4),) * 4
    assert m.perm == (2, 3, 0, 1)
    assert m.dp == 1


def test_match_partitions_type_mismatch():
    alg = validate_algebra([F(1, 3), F(1, 6), F(1, 2)])
    a = EventTuple.of_members(alg, [[0]])
    b = EventTuple.of_members(alg, [[2]])
    with pytest.raises(TypeMismatch):
        match_partitions(a, b)


def test_match_partitions_wide_tuples_on_few_atoms():
    """40 events over 4 atoms: only the occurring cells are examined, never
    the 2**40 sign vectors."""
    rng = random.Random(223)
    alg = validate_algebra([F(1, 6), F(1, 6), F(1, 3), F(1, 3)])
    swap = (1, 0, 3, 2)
    a = random_tuple(rng, alg, arity=40)
    b = EventTuple.of(alg, [event_image(swap, e) for e in a.events])
    m = match_partitions(a, b)
    assert m.dp == dist_partition(a, b)
    a_lifted, b_lifted = (lift_tuple(t, m.refined, m.projection) for t in (a, b))
    for ea, eb in zip(a_lifted.events, b_lifted.events):
        assert event_image(m.perm, ea).members == eb.members
    assert uniform_distance(m.refined, m.perm, tuple(range(m.refined.size))) <= m.dp
    lopsided = EventTuple.of(alg, a.events[:-1] + (Event.of(alg, [0, 2]),))
    unequal = EventTuple.of(alg, b.events[:-1] + (Event.of(alg, [0]),))
    with pytest.raises(TypeMismatch):
        match_partitions(lopsided, unequal)


def test_match_partitions_postconditions_random():
    rng = random.Random(211)
    for _ in range(30):
        alg = random_algebra(rng, max_atoms=6, max_den=24)
        arity = rng.randint(1, 2)
        a = random_tuple(rng, alg, arity=arity)
        perm = random_mass_preserving_perm(rng, alg)
        b = EventTuple.of_members(
            alg, [sorted(perm[x] for x in e.members) for e in a.events]
        )
        m = match_partitions(a, b)
        a_lifted, b_lifted = (lift_tuple(t, m.refined, m.projection) for t in (a, b))
        mapped = EventTuple.of_members(
            m.refined,
            [sorted(m.perm[x] for x in e.members) for e in a_lifted.events],
        )
        assert mapped == b_lifted
        assert uniform_distance(
            m.refined, m.perm, tuple(range(len(m.refined.atoms)))
        ) <= m.dp
        for _ in range(10):
            c = random_tuple(rng, m.refined, arity=rng.randint(1, 2))
            gc = EventTuple.of_members(
                m.refined, [sorted(m.perm[x] for x in e.members) for e in c.events]
            )
            left = EventTuple(m.refined, a_lifted.events + c.events)
            right = EventTuple(m.refined, b_lifted.events + gc.events)
            assert dist_partition(left, right) == m.dp


def random_match_pair(rng):
    """Two tuples of one arity, 0-4, on an algebra of mixed masses.  A third
    of the pairs relabel a along a mass-preserving permutation.  A third
    redraw every atom's sign vector among a's until the cell masses agree,
    which often trades one atom for several of other masses.  The rest draw
    b freely, so a sign vector often occurs on one side only.  The two
    tuples trade places half the time."""
    alg = random_algebra(rng, max_atoms=6, max_den=12)
    arity = rng.randint(0, 4)
    a = random_tuple(rng, alg, arity=arity)
    kind = rng.randrange(3)
    if kind == 0:
        perm = random_mass_preserving_perm(rng, alg)
        b = EventTuple.of_members(alg, [sorted(perm[x] for x in e.members) for e in a.events])
    elif kind == 1:
        signs, law = oracle_sign_map(a), oracle_unit_law(a)
        for _ in range(50):
            drawn = [rng.choice(signs) for _ in signs]
            columns = [[x for x, s in enumerate(drawn) if s[i]] for i in range(arity)]
            b = EventTuple.of_members(alg, columns)
            if oracle_unit_law(b) == law:
                break
    else:
        b = random_tuple(rng, alg, arity=arity)
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_match_partitions_against_the_checks_it_dropped():
    """match_partitions compares cell masses over the moving atoms only and
    never lifts the tuples; the whole-algebra laws and the lifted tuples
    it checked before are the oracle."""
    rng = random.Random(4117)
    seen = Counter()
    for _ in range(1500):
        a, b = random_match_pair(rng)
        law_a, law_b = oracle_unit_law(a), oracle_unit_law(b)
        if law_a != law_b:
            with pytest.raises(TypeMismatch, match="^tuples are not equidistributed: cell masses differ$"):
                match_partitions(a, b)
            seen["a only"] += bool(law_a.keys() - law_b.keys())
            seen["b only"] += bool(law_b.keys() - law_a.keys())
            seen["same cells"] += law_a.keys() == law_b.keys()
            continue
        m = match_partitions(a, b)
        a_lifted, b_lifted = (lift_tuple(t, m.refined, m.projection) for t in (a, b))
        for ea, eb in zip(a_lifted.events, b_lifted.events):
            assert event_image(m.perm, ea).members == eb.members
        sa, sb = oracle_sign_map(a), oracle_sign_map(b)
        assert all(sa[x] != sb[x] for f, x in enumerate(m.projection) if m.perm[f] != f)
        assert m.dp == dist_partition(a, b)
        assert uniform_distance(m.refined, m.perm, tuple(range(m.refined.size))) <= m.dp
        seen["arity 0" if not a.arity else "moved" if m.dp else "fixed"] += 1
        seen["split"] += m.refined.size > a.algebra.size
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------- groups


def klein_group() -> MarkedGroup:
    mul = [[i ^ j for j in range(4)] for i in range(4)]
    return group_from_table(mul, [1, 2])


def test_validate_marked_group_errors():
    """A table document is refused at its first failing check, in the
    reader's order.  A row that is the elements in order but no right
    identity, and a marked column that is no permutation, are refused by the
    checks of the generator columns."""
    bad_assoc = [
        [0, 1, 2],
        [1, 2, 0],
        [2, 1, 0],
    ]
    square = "multiplication table is not square over the elements"
    column = "a column is not a permutation of the {} elements"
    for mul, gens, kind, text in [
        ([], [], InvalidGroupTable, "empty multiplication table"),
        ([[0, 1]], [1], InvalidGroupTable, square),
        ([[0, 2], [1, 0]], [1], InvalidGroupTable, square),
        ([[1, 0], [0, 1]], [5], InvalidGroupTable, "generator image 5 out of range"),
        ([[1, 0], [1, 0]], [1], InvalidGroupTable, "no identity element"),
        ([[0, 1], [1, 1]], [1], InvalidGroupTable, column.format(2)),
        (bad_assoc, [1], InvalidGroupTable, column.format(3)),
        ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], [1], NotGenerating,
         "marked generators reach only 2 of 3 elements"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], [1, 2], InvalidGroupTable,
         "multiplication is not associative"),
    ]:
        assert outcome(group_from_table, mul, gens) == (kind, text)
        assert outcome(oracle_validate_marked_group, mul, gens) == (kind, text)
    with pytest.raises(NotGenerating):
        cyclic_group(4, [2])


def test_marked_group_of_checks_the_columns_alone():
    """MarkedGroup.of with no reader in front: a short column, an entry out
    of range, a column that reaches every element and commutes with its left
    translation but is not a permutation, such a column marked twice after a
    good one, S_4 acting on 4 points, a set that misses an element and an
    identity out of range are refused, the columns before the identity; a
    group's columns are its group."""
    for order, right in [(3, [[1, 2]]), (2, [[1, 2]]), (2, [[1, 1]]), (2, [[1, -1]]),
                         (2, [[1, 0], [1, 1], [1, 1]])]:
        text = f"^a column is not a permutation of the {order} elements$"
        with pytest.raises(InvalidGroupTable, match=text):
            MarkedGroup.of(order, 5, right)
    for right, kind in [
        ([[1, 2, 3, 0], [1, 0, 2, 3]], InvalidGroupTable),
        ([[1, 0, 3, 2]], NotGenerating),
    ]:
        with pytest.raises(kind):
            MarkedGroup.of(len(right[0]), 0, right)
    with pytest.raises(InvalidGroupTable, match="identity 2 is not one of the 2 elements"):
        MarkedGroup.of(2, 2, [[1, 0]])
    s4, _ = permutation_marked_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert MarkedGroup.of(24, 0, [list(column) for column in s4.right]) == s4
    assert MarkedGroup.of(1, 0, []) == group_from_table([[0]], [])


def table_of(group: MarkedGroup):
    """The group's full table as rows rebuilds it, with its identity and
    marked elements: what oracle_validate_marked_group returns."""
    return group.rows(range(group.order)), group.identity, group.gen_images


def validated_table(mul, gen_images):
    return table_of(group_from_table(mul, gen_images))


def _outcome(build, *args):
    try:
        return build(*args)
    except (InvalidGroupTable, NotGenerating) as exc:
        return type(exc), str(exc)


def test_generator_associativity_matches_oracle_on_all_order_3_tables():
    # Every table of order 3 whose element 0 is an identity, with every
    # marked set of one or two elements.
    for cells in product(range(3), repeat=4):
        mul = [[0, 1, 2], [1, cells[0], cells[1]], [2, cells[2], cells[3]]]
        for gens in ([1], [2], [0, 1], [1, 2], [2, 2]):
            assert _outcome(validated_table, mul, gens) == _outcome(
                oracle_validate_marked_group, mul, gens
            )


SMALL_GROUP_TABLES = [
    [[(i + j) % n for j in range(n)] for i in range(n)] for n in range(2, 7)
] + [
    [[i ^ j for j in range(4)] for i in range(4)],
    [list(row) for row in permutation_marked_group([(1, 0, 2), (0, 2, 1)])[0].rows(range(6))],
]


@st.composite
def near_group_tables(draw):
    """Tables with an identity at 0: the Cayley table of a small group under
    a relabelling that fixes 0, with up to two cells off row and column 0
    overwritten, and one or two marked elements."""
    base = draw(st.sampled_from(SMALL_GROUP_TABLES))
    order = len(base)
    pi = [0, *draw(st.permutations(range(1, order)))]
    mul = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            mul[pi[a]][pi[b]] = pi[base[a][b]]
    cell = st.integers(1, order - 1)
    for a, b, v in draw(st.lists(st.tuples(cell, cell, st.integers(0, order - 1)), max_size=2)):
        mul[a][b] = v
    gens = draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=2))
    return mul, gens


@settings(max_examples=300, deadline=None)
@given(near_group_tables())
def test_generator_associativity_matches_oracle(case):
    mul, gens = case
    assert _outcome(validated_table, mul, gens) == _outcome(
        oracle_validate_marked_group, mul, gens
    )


# The generators of the transitive actions the conj-embed benchmark embeds:
# Z/12, the dihedral group of order 12, A_4, S_4 and S_5.
BENCHMARK_PERMUTATION_GROUPS = (
    [[(x + 1) % 12 for x in range(12)], [(x + 5) % 12 for x in range(12)]],
    [[(x + 1) % 6 for x in range(6)], [(-x) % 6 for x in range(6)]],
    [[1, 2, 0, 3], [0, 2, 3, 1]],
    [[1, 2, 3, 0], [1, 0, 2, 3]],
    [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]],
)


def _check_permutation_marked_group(perms):
    group, elements = permutation_marked_group(perms)
    table = group.rows(range(group.order))
    assert group_from_table(table, group.gen_images) == group
    assert elements[0] == tuple(range(len(perms[0])))
    assert len(set(elements)) == group.order
    for i in range(group.order):
        for j in range(group.order):
            assert elements[table[i][j]] == perm_compose(elements[i], elements[j])
    assert [elements[g] for g in group.gen_images] == [tuple(p) for p in perms]


def test_builders_are_groups_by_construction():
    for n in range(1, 41):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        for images in ([1], [n - 1], [0], [0, 1], [2, 3], [n // 2, 1], [6, 10, 15]):
            assert _outcome(cyclic_group, n, images) == _outcome(
                group_from_table, table, [i % n for i in images]
            )
    for perms in BENCHMARK_PERMUTATION_GROUPS:
        _check_permutation_marked_group(perms)
    rng = random.Random(404)
    for _ in range(60):
        degree = rng.randint(1, 5)
        _check_permutation_marked_group(
            [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))]
        )
    small = [cyclic_group(2, [1, 0]), cyclic_group(3, [1, 2]), cyclic_group(4, [1, 1]),
             permutation_marked_group([(1, 0, 2), (1, 2, 0)])[0]]
    for g1 in small:
        for g2 in small:
            jq = joint_quotient(g1, g2)
            table = jq.group.rows(range(jq.group.order))
            assert group_from_table(table, jq.group.gen_images) == jq.group
            assert (jq.proj1[0], jq.proj2[0]) == (g1.identity, g2.identity)


def test_group_order_cap():
    """A group has at most MAX_REFINED_ATOMS elements, one atom each in its
    quotient action: Z/65536 is built and Z/65537 refused, and the pair walk
    of Z/1024 x Z/1023 stops at the composition that finds element 65,537,
    before it is indexed or composed with anything."""
    refused = f"group has more than {MAX_REFINED_ATOMS} elements"
    assert cyclic_group(MAX_REFINED_ATOMS, [1]).order == MAX_REFINED_ATOMS
    with pytest.raises(InstanceTooLarge, match=refused):
        cyclic_group(MAX_REFINED_ATOMS + 1, [1])
    calls = []

    def add(x, g):
        calls.append(x)
        return ((x[0] + g[0]) % 1024, (x[1] + g[1]) % 1023)

    with pytest.raises(InstanceTooLarge, match=refused):
        _generated_group((0, 0), [(1, 1)], add)
    assert len(calls) == len(set(calls)) == MAX_REFINED_ATOMS
    with pytest.raises(InstanceTooLarge, match=refused):
        joint_quotient(cyclic_group(1024, [1]), cyclic_group(1023, [1]))
    with pytest.raises(InstanceTooLarge, match=refused):  # S_9
        permutation_marked_group([(1, 2, 3, 4, 5, 6, 7, 8, 0), (1, 0, 2, 3, 4, 5, 6, 7, 8)])


def test_group_walk_counts_its_entries_per_element(monkeypatch):
    """The walk counts len(identity) entries per composition before each
    element's compositions: Z/6 marked twice in Z/6 x Z/6 is six elements of
    two compositions of pairs, 24 entries, and a cyclic group's k * n."""
    g = cyclic_group(6, [1, 1])
    monkeypatch.setattr(limits, "MAX_GROUP_ENTRIES", 24)
    assert joint_quotient(g, g).group.order == 6
    assert cyclic_group(12, [1, 5]).order == 12
    monkeypatch.setattr(limits, "MAX_GROUP_ENTRIES", 23)
    calls = []
    with pytest.raises(InstanceTooLarge, match="more than 23 entries"):
        _generated_group((0, 0), [(1, 1)] * 2, _counting(lambda x, c: ((x[0] + 1) % 6,) * 2, calls))
    assert len(calls) == 10  # the sixth element's two compositions are not made
    with pytest.raises(InstanceTooLarge, match="more than 23 entries"):
        cyclic_group(12, [1, 5])


def test_rows_and_of_count_their_entries_before_building_any_column(monkeypatch):
    """rows(zs) builds len(zs) * order entries and of's check 2 k^2 order:
    at the cap they are built, past it no entry is read or copied."""

    class Recorded(Sequence):
        def __init__(self, values):
            self.values, self.read = values, []

        def __len__(self):
            return len(self.values)

        def __getitem__(self, i):
            self.read.append(i)
            return self.values[i]

    g = cyclic_group(6, [1])
    monkeypatch.setattr(limits, "MAX_GROUP_ENTRIES", 18)
    at_cap = Recorded((0, 2, 4))
    assert g.rows(at_cap) == tuple(tuple((z + x) % 6 for x in range(6)) for z in (0, 2, 4))
    assert at_cap.read
    past = Recorded((0, 1, 2, 3))
    with pytest.raises(InstanceTooLarge, match="more than 18 entries"):
        g.rows(past)
    assert past.read == []
    monkeypatch.setattr(limits, "MAX_GROUP_ENTRIES", 32)
    assert MarkedGroup.of(1, 0, [Recorded((0,))] * 4).k == 4
    column = Recorded((0,))
    with pytest.raises(InstanceTooLarge, match="more than 32 entries"):
        MarkedGroup.of(1, 0, [column] * 5)
    assert column.read == []


def test_group_enumeration_is_capped_by_the_entries_it_builds():
    """Each composition of permutations of d points builds d entries: Z/1024
    rotating 2048 points takes 1024 compositions, exactly the cap, and on
    2049 points its last composition is refused, though 1024 elements are
    within the order cap."""
    assert 1024 * 2048 == MAX_GROUP_ENTRIES

    def rotation_beside(points: int) -> list[int]:
        return [(x + 1) % 1024 for x in range(1024)] + list(range(1024, points))

    group, elements = permutation_marked_group([rotation_beside(2048)])
    assert group.order == len(elements) == 1024
    with pytest.raises(InstanceTooLarge, match=f"more than {MAX_GROUP_ENTRIES} entries"):
        permutation_marked_group([rotation_beside(2049)])
    with pytest.raises(InstanceTooLarge, match=f"more than {MAX_GROUP_ENTRIES} entries"):
        act = validate_action(uniform_algebra(2049), [rotation_beside(2049)])
        embed_into_profinite_tensor(act)


def test_cyclic_and_permutation_groups():
    g = cyclic_group(6, [1])
    assert g.order == 6
    assert g.k == 1
    s3, elements = permutation_marked_group([(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6
    assert elements[0] == (0, 1, 2)
    assert len(set(elements)) == 6


def test_marked_group_isomorphism():
    g = cyclic_group(4, [1])
    h = cyclic_group(4, [3])
    iso = marked_group_isomorphism(g, h)
    assert iso is not None
    g_table, h_table = g.rows(range(4)), h.rows(range(4))
    for x in range(4):
        for y in range(4):
            assert iso[g_table[x][y]] == h_table[iso[x]][iso[y]]
    assert marked_group_isomorphism(cyclic_group(2, [1]), cyclic_group(3, [1])) is None


def test_klein_vs_cyclic_four_not_isomorphic():
    k4 = klein_group()
    z4 = group_from_table(
        [[(i + j) % 4 for j in range(4)] for i in range(4)], [1, 2]
    )
    assert marked_group_isomorphism(k4, z4) is None


def test_quotient_action_examples():
    act = quotient_action(cyclic_group(2, [1, 1]))
    assert act.algebra.atoms == (F(1, 2), F(1, 2))
    assert act.gens == ((1, 0), (1, 0))

    triv = quotient_action(group_from_table([[0]], []))
    assert triv.algebra.atoms == (F(1),)
    assert triv.gens == ()

    z3 = quotient_action(cyclic_group(3, [1, 2]))
    assert z3.algebra.atoms == (F(1, 3),) * 3
    assert sorted(z3.gens) == sorted([(1, 2, 0), (2, 0, 1)])
    assert len(invariant_components(z3).blocks) == 1


def test_joint_quotient_examples():
    jq = joint_quotient(cyclic_group(2, [1]), cyclic_group(3, [1]))
    assert jq.group.order == 6
    iso = marked_group_isomorphism(jq.group, cyclic_group(6, [1]))
    assert iso is not None

    g = cyclic_group(4, [1])
    diag = joint_quotient(g, g)
    assert marked_group_isomorphism(diag.group, g) is not None

    with_trivial = joint_quotient(g, group_from_table([[0]], [0]))
    assert marked_group_isomorphism(with_trivial.group, g) is not None


def test_joint_quotient_projections_are_homomorphisms():
    g1 = cyclic_group(4, [1])
    g2 = cyclic_group(2, [1])
    jq = joint_quotient(g1, g2)
    table, t1, t2 = (g.rows(range(g.order)) for g in (jq.group, g1, g2))
    for x in range(jq.group.order):
        for y in range(jq.group.order):
            z = table[x][y]
            assert jq.proj1[z] == t1[jq.proj1[x]][jq.proj1[y]]
            assert jq.proj2[z] == t2[jq.proj2[x]][jq.proj2[y]]


# ---------------------------------------------------------------- eppa


def test_eppa_examples():
    halves = validate_algebra([F(1, 2), F(1, 2)])
    ext = eppa_extend(
        halves,
        [
            PartialIsomorphism.of(halves, halves, [([0], [1])]),
            PartialIsomorphism.of(halves, halves, []),
        ],
    )
    assert ext.action.algebra.atoms == (F(1, 2), F(1, 2))
    assert ext.action.gens == ((1, 0), (0, 1))

    thirds = validate_algebra([F(1, 3)] * 3)
    ext2 = eppa_extend(
        thirds, [PartialIsomorphism.of(thirds, thirds, [([0], [1])])]
    )
    assert ext2.action.gens == ((1, 0, 2),)

    mixed = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    ext3 = eppa_extend(
        mixed, [PartialIsomorphism.of(mixed, mixed, [([1], [2])])]
    )
    assert ext3.action.algebra.atoms == (F(1, 4),) * 4
    assert ext3.action.gens == ((0, 1, 3, 2),)

    ext4 = eppa_extend(mixed, [PartialIsomorphism.of(mixed, mixed, [])])
    assert ext4.action.gens == (tuple(range(4)),)


def test_eppa_generators_extend_the_partials():
    rng = random.Random(307)
    for _ in range(25):
        alg = random_algebra(rng, max_atoms=5, max_den=12)
        partials = [
            random_partial_automorphism(rng, alg)
            for _ in range(rng.randint(1, 2))
        ]
        ext = eppa_extend(alg, partials)
        blocks = ext.embedding.atom_blocks()
        assert sum(len(b) for b in blocks.values()) == len(ext.action.algebra.atoms)
        for p, gen in zip(partials, ext.action.gens):
            for src, tgt in p.pairs:
                src_units = {u for x in src for u in blocks[x]}
                tgt_units = {u for x in tgt for u in blocks[x]}
                assert {gen[u] for u in src_units} == tgt_units


def oracle_eppa(alg, partials):
    """eppa_extend's completion as it was: an assignment dict and a set of
    used targets per partial; the overalgebra's atoms, the generators and
    the embedding's pairs."""
    n_units = alg.den
    big, projection = refine_to_unit(alg, Fraction(1, n_units))
    runs = _runs(projection)

    def block_units(block):
        return [u for atom in sorted(block) for u in runs[atom]]

    gens = []
    for p in partials:
        assignment: dict[int, int] = {}
        used_targets: set[int] = set()
        for src, tgt in p.pairs:
            for u, v in zip(block_units(src), block_units(tgt)):
                assignment[u] = v
                used_targets.add(v)
        free_sources = [u for u in range(n_units) if u not in assignment]
        free_targets = [v for v in range(n_units) if v not in used_targets]
        for u, v in zip(free_sources, free_targets):
            assignment[u] = v
        gens.append(tuple(assignment[u] for u in range(n_units)))
    embedding = PartialIsomorphism.of(
        alg, big, [((i,), tuple(block_units(frozenset([i])))) for i in range(alg.size)]
    )
    return big.atoms, tuple(gens), embedding.pairs


@st.composite
def eppa_instances(draw):
    """An algebra whose atoms come in groups, each group a random split of
    a small total weight, so that groups of one weight recur with different
    splits; the atoms are shuffled.  Each of 1-3 partial automorphisms
    pairs some groups with groups of the same weight (blocks of unequal
    atom counts), and may merge neighbouring pairs into one and add a pair
    of empty blocks."""
    totals = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=8))
    splits = []
    for t in totals:
        cuts = sorted(draw(st.sets(st.integers(1, t - 1)))) if t > 1 else []
        splits.append([b - a for a, b in zip([0] + cuts, cuts + [t])])
    n = sum(len(split) for split in splits)
    place = draw(st.permutations(range(n)))
    units = [0] * n
    groups = []
    k = 0
    for split in splits:
        groups.append([place[k + j] for j in range(len(split))])
        for j, u in enumerate(split):
            units[place[k + j]] = u
        k += len(split)
    alg = validate_algebra([Fraction(u, sum(totals)) for u in units])
    by_total: dict[int, list[int]] = {}
    for g, t in enumerate(totals):
        by_total.setdefault(t, []).append(g)
    partials = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = []
        for members in by_total.values():
            for g, h in zip(members, draw(st.permutations(members))):
                if draw(st.booleans()):
                    pairs.append((list(groups[g]), list(groups[h])))
        if len(pairs) > 1 and draw(st.booleans()):
            (s1, t1), (s2, t2) = pairs.pop(), pairs.pop()
            pairs.append((s1 + s2, t1 + t2))
        if draw(st.booleans()):
            pairs.insert(draw(st.integers(0, len(pairs))), ([], []))
        partials.append(PartialIsomorphism.of(alg, alg, pairs))
    return alg, partials


@given(eppa_instances())
@settings(max_examples=200, deadline=None)
def test_eppa_matches_the_dict_completion(instance):
    alg, partials = instance
    ext = eppa_extend(alg, partials)
    atoms, gens, pairs = oracle_eppa(alg, partials)
    assert ext.action.algebra.atoms == atoms
    assert ext.action.gens == gens
    assert ext.embedding.pairs == pairs
    assert (ext.embedding.source, ext.embedding.target) == (alg, ext.action.algebra)


def test_eppa_rejects_foreign_partials():
    alg = uniform_algebra(2)
    other = uniform_algebra(2)
    p = PartialIsomorphism.of(other, other, [([0], [1])])
    with pytest.raises(AlgebraMismatch):
        eppa_extend(alg, [p])


# ---------------------------------------------------------------- ergodize


def test_ergodize_example():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (0, 1, 2, 3)])
    erg = ergodize(act, AtomPartition.of(alg4, [range(alg4.size)]))
    assert erg.action.gens == ((2, 0, 3, 1), (0, 1, 2, 3))
    assert erg.modifications == 1
    assert len(invariant_components(erg.action).blocks) == 1


def test_ergodize_already_ergodic_is_unchanged():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 2, 3, 0)])
    erg = ergodize(act, AtomPartition.of(alg4, [range(alg4.size)]))
    assert erg.action.gens == act.gens
    assert erg.modifications == 0


def test_ergodize_reports_invariant_element():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (0, 1, 2, 3)])
    fixed = AtomPartition.of(alg4, [[0, 1], [2, 3]])
    with pytest.raises(PreconditionInvariantElement) as info:
        ergodize(act, fixed)
    assert info.value.element == (0, 1)


def test_ergodize_rejects_unequal_atoms():
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    act = validate_action(alg, [(0, 2, 1)])
    with pytest.raises(UnequalAtoms):
        ergodize(act, AtomPartition.of(alg, [range(alg.size)]))


def _block_map(act, fixed, gen_index):
    out = []
    for block in fixed.blocks:
        image = {act.gens[gen_index][x] for x in block}
        out.append(fixed.block_index()[min(image)])
    return out


def test_ergodize_random_properties():
    rng = random.Random(401)
    for _ in range(30):
        blocks = rng.randint(2, 4)
        per = rng.randint(1, 3)
        n = blocks * per
        alg = uniform_algebra(n)
        fixed = AtomPartition.of(
            alg, [list(range(b * per, (b + 1) * per)) for b in range(blocks)]
        )
        gens = []
        for gi in range(rng.randint(1, 2)):
            if gi == 0:
                block_perm = [(b + 1) % blocks for b in range(blocks)]
            else:
                block_perm = list(range(blocks))
                rng.shuffle(block_perm)
            perm = [0] * n
            for b in range(blocks):
                image_slots = list(range(block_perm[b] * per, (block_perm[b] + 1) * per))
                rng.shuffle(image_slots)
                for off, x in enumerate(range(b * per, (b + 1) * per)):
                    perm[x] = image_slots[off]
            gens.append(tuple(perm))
        act = validate_action(alg, gens)
        comps = len(invariant_components(act).blocks)
        erg = ergodize(act, fixed)
        assert len(invariant_components(erg.action).blocks) == 1
        assert erg.modifications == comps - 1
        for gi in range(act.k):
            assert _block_map(act, fixed, gi) == _block_map(erg.action, fixed, gi)


def oracle_ergodize(act, fixed):
    """ergodize as it was before it computed its orbits once: after every
    swap it rebuilds the action, recounts every orbit, and rescans the first
    one for the next swap."""
    alg = act.algebra
    if fixed.algebra.id != alg.id:
        raise AlgebraMismatch("fixed partition does not live on the action's algebra")
    if not constructions._equal_atoms(alg):
        raise UnequalAtoms("ergodization requires all atoms of equal mass")
    block_index = fixed.block_index()
    block_perms = []
    for p in act.gens:
        bp = [-1] * len(fixed.blocks)
        for bi, block in enumerate(fixed.blocks):
            image = frozenset(p[x] for x in block)
            if image not in fixed.blocks:
                raise PartitionNotPreserved(
                    f"generator image of block {sorted(block)} is not a block"
                )
            bp[bi] = fixed.blocks.index(image)
        block_perms.append(bp)
    reached, _ = breadth_first(0, block_perms, lambda b, bp: bp[b])
    if len(reached) != len(fixed.blocks):
        element = tuple(sorted(x for bi in reached for x in fixed.blocks[bi]))
        raise PreconditionInvariantElement(
            "a nontrivial union of fixed blocks is invariant under all generators",
            element,
        )
    if not act.gens and alg.size > 1:
        raise ValidationError(
            "ergodization needs at least one generator: with k = 0 each of the "
            f"{alg.size} atoms is its own orbit"
        )
    gens = [list(p) for p in act.gens]
    modifications = 0
    while True:
        current = FkAction(alg, tuple([tuple(p) for p in gens]))
        orbits = invariant_components(current).blocks
        if len(orbits) == 1:
            return constructions.Ergodization(current, modifications)
        first = orbits[0]
        swap = None
        for gi, (p, bp) in enumerate(zip(gens, block_perms)):
            for x in sorted(first):
                image_block = fixed.blocks[bp[block_index[x]]]
                outside = sorted(y for y in image_block if y not in first)
                if outside:
                    swap = gi, p[x], outside[0]
                    break
            if swap is not None:
                break
        if swap is None:
            raise LPInternal("no merging swap found despite precondition")
        gi, u, v = swap
        p = gens[gi]
        pu = p.index(u)
        pv = p.index(v)
        p[pu], p[pv] = v, u
        modifications += 1


def random_ergodize_instance(rng):
    """An action on 1-12 blocks of 1-6 atoms with k = 1-3 and its block
    partition.  Most generators map blocks onto blocks of their size, so the
    blocks reached from block 0 may be all of them or an invariant union.
    Half the generators keep each atom's place in its block, which leaves
    many orbits to merge.  Some blocks have unequal sizes, atom labels may
    be scrambled, and some generators get one stray transposition that may
    break the block map."""
    count = rng.randint(1, 12)
    if rng.random() < 0.8:
        sizes = [rng.randint(1, 6)] * count
    else:
        sizes = [rng.randint(1, 6) for _ in range(count)]
    n = sum(sizes)
    starts = [sum(sizes[:b]) for b in range(count)]
    blocks = [list(range(s, s + size)) for s, size in zip(starts, sizes)]
    classes = {}
    for b, size in enumerate(sizes):
        classes.setdefault(size, []).append(b)
    gens = []
    for _ in range(rng.randint(1, 3)):
        block_perm = list(range(count))
        for members in classes.values():
            images = members[:]
            if rng.random() < 0.5:
                rng.shuffle(images)
            else:  # one cycle through the class: its blocks are one union
                images = images[1:] + images[:1]
            for b, c in zip(members, images):
                block_perm[b] = c
        aligned = rng.random() < 0.5  # the i-th atom of a block to the i-th of its image
        perm = [0] * n
        for b, block in enumerate(blocks):
            image = blocks[block_perm[b]][:]
            if not aligned:
                rng.shuffle(image)
            for x, y in zip(block, image):
                perm[x] = y
        if n > 1 and rng.random() < 0.1:
            i, j = rng.sample(range(n), 2)
            perm[i], perm[j] = perm[j], perm[i]
        gens.append(perm)
    if rng.random() < 0.5:
        label = random_permutation(rng, n)
        blocks = [[label[x] for x in block] for block in blocks]
        gens = [perm_compose(perm_compose(label, p), perm_inverse(label)) for p in gens]
    alg = uniform_algebra(n)
    return validate_action(alg, gens), AtomPartition.of(alg, blocks)


def naming_element(fn):
    """fn, with the element of a PreconditionInvariantElement in its message,
    so that outcome() compares it too."""

    def run(act, fixed):
        try:
            return fn(act, fixed)
        except PreconditionInvariantElement as exc:
            raise PreconditionInvariantElement(f"{exc} {exc.element}", exc.element) from exc

    return run


def test_ergodize_matches_oracle_on_random_instances():
    rng = random.Random(3301)
    kinds = Counter()
    for _ in range(2000):
        act, fixed = random_ergodize_instance(rng)
        got = outcome(naming_element(ergodize), act, fixed)
        assert got == outcome(naming_element(oracle_ergodize), act, fixed)
        kinds[got[0]] += 1
    assert set(kinds) == {"value", PreconditionInvariantElement, PartitionNotPreserved}


def test_ergodize_without_generators():
    """With k = 0 every atom is its own orbit and no swap can join two: one
    fixed block on two or more atoms is refused, and with two or more
    blocks, block 0 is an invariant union."""
    alg4 = uniform_algebra(4)
    bare = validate_action(alg4, [])
    with pytest.raises(ValidationError) as info:
        ergodize(bare, AtomPartition.of(alg4, [range(4)]))
    assert type(info.value) is ValidationError
    assert str(info.value) == (
        "ergodization needs at least one generator: with k = 0 each of the 4 atoms is its own orbit"
    )
    for blocks, element in [
        ([[0, 1], [2, 3]], (0, 1)),
        ([[3], [0, 2], [1]], (0, 2)),
        ([[0], [1], [2], [3]], (0,)),
    ]:
        with pytest.raises(PreconditionInvariantElement) as info:
            ergodize(bare, AtomPartition.of(alg4, blocks))
        assert info.value.element == element
    one = uniform_algebra(1)
    erg = ergodize(validate_action(one, []), AtomPartition.of(one, [[0]]))
    assert erg.action.gens == () and erg.modifications == 0

    rng = random.Random(4103)
    kinds = Counter()
    for _ in range(400):
        act, fixed = random_ergodize_instance(rng)
        bare = validate_action(act.algebra, [])
        got = outcome(naming_element(ergodize), bare, fixed)
        assert got == outcome(naming_element(oracle_ergodize), bare, fixed)
        kinds[got[0]] += 1
    assert set(kinds) == {"value", ValidationError, PreconditionInvariantElement}


def test_ergodize_joins_two_census_classes_as_the_oracle_does():
    """Two transitive F_2-sets of degree at most 4 side by side: one swap
    joins them under the trivial partition, and with the two orbits as
    the blocks the first orbit is an invariant union."""
    codes = [c.code for n in range(1, 5) for c in transitive_census(2, n)]
    for x, y in product(codes, repeat=2):
        n1, n = len(x[0]), len(x[0]) + len(y[0])
        alg = uniform_algebra(n)
        act = validate_action(alg, [gx + tuple(n1 + v for v in gy) for gx, gy in zip(x, y)])
        whole = AtomPartition.of(alg, [range(n)])
        joined = outcome(naming_element(ergodize), act, whole)
        assert joined == outcome(naming_element(oracle_ergodize), act, whole)
        assert joined[1].modifications == 1
        assert len(invariant_components(joined[1].action).blocks) == 1
        halves = AtomPartition.of(alg, [range(n1), range(n1, n)])
        split = outcome(naming_element(ergodize), act, halves)
        assert split == outcome(naming_element(oracle_ergodize), act, halves)
        assert split == (
            PreconditionInvariantElement,
            f"a nontrivial union of fixed blocks is invariant under all generators {tuple(range(n1))}",
        )


def test_ergodize_counts_orbits_once(monkeypatch):
    calls = []

    def counted(act):
        calls.append(act)
        return invariant_components(act)

    monkeypatch.setattr(constructions, "invariant_components", counted)
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(0, 1, 2, 3)])
    erg = ergodize(act, AtomPartition.of(alg4, [range(alg4.size)]))
    assert erg.modifications == 3
    assert calls == [act]


def test_ergodize_copies_only_the_generator_it_swaps():
    """Every swap is made in the first generator, so generators 2..k of the
    result are the input's own tuples."""
    rng = random.Random(4409)
    passed_on = 0
    for _ in range(400):
        act, fixed = random_ergodize_instance(rng)
        got = outcome(ergodize, act, fixed)
        if got[0] == "value" and act.k >= 2:
            assert len(got[1].action.gens) == act.k
            assert all(g is h for g, h in zip(got[1].action.gens[1:], act.gens[1:]))
            passed_on += 1
    assert passed_on > 50


def test_ergodize_names_first_block_whose_image_is_not_a_block():
    # {0} maps into the block {1, 2} without being it; checking only that
    # each image lands in one block would name [1, 2] instead
    alg3 = uniform_algebra(3)
    act = validate_action(alg3, [(1, 0, 2)])
    with pytest.raises(PartitionNotPreserved, match=r"^generator image of block \[0\] is not a block$"):
        ergodize(act, AtomPartition.of(alg3, [[0], [1, 2]]))


def oracle_every_generator_ergodize(act, fixed):
    """ergodize as it was before it searched one generator: each swap scans
    every generator, and for each the atoms of merged from the least, in a
    table of the block images, and finds its partner with p.index."""
    alg = act.algebra
    if fixed.algebra.id != alg.id:
        raise AlgebraMismatch("fixed partition does not live on the action's algebra")
    if not constructions._equal_atoms(alg):
        raise UnequalAtoms("ergodization requires all atoms of equal mass")
    block_index = fixed.block_index()
    block_perms = []
    for p in act.gens:
        bp = []
        for block in fixed.blocks:
            bi = block_index[p[min(block)]]
            if frozenset(p[x] for x in block) != fixed.blocks[bi]:
                raise PartitionNotPreserved(
                    f"generator image of block {sorted(block)} is not a block"
                )
            bp.append(bi)
        block_perms.append(bp)
    orbits = invariant_components(act).blocks
    orbit_of = {x: orbit for orbit in orbits for x in orbit}
    merged = set(orbits[0])
    gens = [list(p) for p in act.gens]
    for _ in range(len(orbits) - 1):
        swap = next(
            (
                (p, x, min(outside))
                for p, bp in zip(gens, block_perms)
                for x in sorted(merged)
                for outside in [fixed.blocks[bp[block_index[x]]] - merged]
                if outside
            ),
            None,
        )
        if swap is None:
            blocks = {block_index[x] for x in merged}
            union = sorted(y for bi in blocks for y in fixed.blocks[bi])
            if len(union) == alg.size:
                raise ValidationError(
                    "ergodization needs at least one generator: with k = 0 each of the "
                    f"{alg.size} atoms is its own orbit"
                )
            raise PreconditionInvariantElement(
                "a nontrivial union of fixed blocks is invariant under all generators",
                tuple(union),
            )
        p, x, v = swap
        pv = p.index(v)
        p[x], p[pv] = v, p[x]
        merged |= orbit_of[v]
    return constructions.Ergodization(FkAction(alg, tuple(map(tuple, gens))), len(orbits) - 1)


def assert_ergodizes_as_every_generator_search(act, fixed):
    """ergodize gives the oracle's value or error, and neither changes a
    generator after the first."""
    got = outcome(naming_element(ergodize), act, fixed)
    assert got == outcome(naming_element(oracle_every_generator_ergodize), act, fixed)
    if got[0] == "value":
        assert got[1].action.gens[1:] == act.gens[1:]
    return got[0]


def test_ergodize_swaps_as_the_every_generator_search_does():
    """Every generator maps merged onto itself, so an image block leaves
    merged exactly when its block does, under any generator: the first
    generator finds each swap the search over all of them finds."""
    rng = random.Random(4201)
    kinds = Counter()
    for _ in range(1500):
        act, fixed = random_ergodize_instance(rng)
        kinds[assert_ergodizes_as_every_generator_search(act, fixed)] += 1
        bare = validate_action(act.algebra, [])
        kinds[assert_ergodizes_as_every_generator_search(bare, fixed)] += 1
    assert set(kinds) == {
        "value",
        ValidationError,
        PreconditionInvariantElement,
        PartitionNotPreserved,
    }
    codes = [c.code for n in range(1, 5) for c in transitive_census(2, n)]
    for x, y in product(codes, repeat=2):
        n1, n = len(x[0]), len(x[0]) + len(y[0])
        alg = uniform_algebra(n)
        act = validate_action(alg, [gx + tuple(n1 + v for v in gy) for gx, gy in zip(x, y)])
        for blocks in ([range(n)], [range(n1), range(n1, n)]):
            assert_ergodizes_as_every_generator_search(act, AtomPartition.of(alg, blocks))


def test_ergodize_merges_many_orbits_in_near_linear_time():
    """Two identity generators on 2^16 atoms: 65,535 swaps join the fixed
    points under the trivial partition, and under two-atom blocks the first
    block is an invariant union.  A search that rescans merged for each
    swap is quadratic in the atoms and would take minutes here."""
    n = 2**16
    alg = uniform_algebra(n)
    identity = tuple(range(n))
    act = FkAction(alg, (identity, identity))
    start = time.monotonic()
    erg = ergodize(act, AtomPartition.of(alg, [range(n)]))
    assert erg.modifications == n - 1
    assert erg.action.gens[1] == identity
    assert len(invariant_components(erg.action).blocks) == 1
    with pytest.raises(PreconditionInvariantElement) as info:
        ergodize(act, AtomPartition.of(alg, [range(i, i + 2) for i in range(0, n, 2)]))
    assert info.value.element == (0, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


# ---------------------------------------------------------------- embeddings


def test_embed_transitive_into_quotient_properties():
    rng = random.Random(419)
    for _ in range(25):
        act = random_transitive_small_action(rng, rng.randint(2, 8), rng.randint(1, 2))
        emb = embed_transitive_into_quotient(act)
        assert emb.group.order == len(emb.elements)
        assert emb.target.algebra.size == emb.group.order
        blocks = emb.sigma.atom_blocks()
        n = act.algebra.size
        for c in range(n):
            assert act.algebra.atoms[c] == emb.target.algebra.mass_of(blocks[c])
        for i in range(act.k):
            for c in range(n):
                image_block = blocks[act.gens[i][c]]
                pushed = {emb.target.gens[i][x] for x in blocks[c]}
                assert pushed == set(image_block)


def test_embed_transitive_rejects_bad_input():
    """UnequalAtoms before NotTransitive, and NotTransitive before the group
    build: S_9 on nine of ten atoms generates 362,880 elements."""
    alg = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    with pytest.raises(UnequalAtoms):
        embed_transitive_into_quotient(validate_action(alg, [(0, 2, 1)]))
    with pytest.raises(UnequalAtoms):
        embed_into_profinite_tensor(validate_action(alg, [(0, 2, 1)]))
    alg4 = uniform_algebra(4)
    with pytest.raises(NotTransitive):
        embed_transitive_into_quotient(validate_action(alg4, [(1, 0, 3, 2)]))
    s9_beside = validate_action(
        uniform_algebra(10),
        [(1, 2, 3, 4, 5, 6, 7, 8, 0, 9), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)],
    )
    with pytest.raises(NotTransitive):
        embed_transitive_into_quotient(s9_beside)
    with pytest.raises(InstanceTooLarge, match="group has more than"):
        embed_into_profinite_tensor(s9_beside)


def test_every_census_class_embeds_and_its_group_gives_back_the_target():
    """Every transitive F_k-set of degree at most 5, k = 1 and 2, embeds
    transitively and equivariantly, and the quotient action of its group
    read back from its columns, as gen-quotient reads it, is the target."""
    for k in (1, 2):
        for n in range(1, 6):
            for census_class in transitive_census(k, n):
                act = validate_action(uniform_algebra(n), census_class.code)
                emb = embed_transitive_into_quotient(act)
                blocks = emb.sigma.atom_blocks()
                for x in range(n):
                    assert emb.target.algebra.mass_of(blocks[x]) == F(1, n)
                    for g, h in zip(act.gens, emb.target.gens):
                        assert {h[y] for y in blocks[x]} == blocks[g[x]]
                quotient = quotient_action(group_from_json(group_to_json(emb.group)))
                assert action_to_json(quotient) == action_to_json(emb.target)


def test_embed_finds_the_orbits_once(monkeypatch):
    """Each embed computes the orbits once; the transitive one hands them
    to the shared build instead of computing them again."""
    calls = []

    def counted(act):
        calls.append(act)
        return invariant_components(act)

    monkeypatch.setattr(constructions, "invariant_components", counted)
    act = validate_action(uniform_algebra(4), [(1, 2, 3, 0)])
    embed_transitive_into_quotient(act)
    assert calls == [act]
    split = validate_action(uniform_algebra(4), [(1, 0, 3, 2)])
    embed_into_profinite_tensor(split)
    assert calls == [act, split]


def test_embed_profinite_tensor_properties():
    rng = random.Random(421)
    for _ in range(25):
        act = random_small_order_action(rng, rng.randint(2, 8), rng.randint(1, 2))
        emb = embed_into_profinite_tensor(act)
        assert emb.base_factor is not None
        blocks = emb.sigma.atom_blocks()
        n = act.algebra.size
        for c in range(n):
            assert act.algebra.atoms[c] == emb.target.algebra.mass_of(blocks[c])
        for i in range(act.k):
            for c in range(n):
                pushed = {emb.target.gens[i][x] for x in blocks[c]}
                assert pushed == set(blocks[act.gens[i][c]])


def _assert_transitive_embed_is_profinite(act):
    """The transitive embed is the one-orbit profinite embed without its
    one-atom trivial factor."""
    emb = embed_into_profinite_tensor(act)
    transitive = embed_transitive_into_quotient(act)
    assert emb.base_factor.atoms == (F(1),)
    assert transitive.base_factor is None
    assert transitive.group == emb.group
    assert transitive.elements == emb.elements
    assert transitive.target.algebra.atoms == emb.target.algebra.atoms
    assert transitive.target.gens == emb.target.gens
    assert transitive.sigma.pairs == emb.sigma.pairs


def test_transitive_embed_is_the_profinite_embed_of_the_benchmark_groups():
    for perms in BENCHMARK_PERMUTATION_GROUPS:
        act = validate_action(uniform_algebra(len(perms[0])), perms)
        _assert_transitive_embed_is_profinite(act)


def test_embedding_pairs_follow_the_orbit_components():
    # atom c of orbit o goes to the pairs (gamma, o), gamma sending o's
    # lowest atom to c; a transitive action is one orbit of width 1, where
    # both embeddings give the same group, target and pairs
    rng = random.Random(433)
    for make in (random_small_order_action, random_transitive_small_action):
        for _ in range(15):
            act = make(rng, rng.randint(2, 8), rng.randint(1, 2))
            emb = embed_into_profinite_tensor(act)
            orbits = invariant_components(act)
            assert orbits == AtomPartition.of(act.algebra, oracle_components(act))
            comps = orbits.blocks
            width = len(comps)
            expected = []
            for c in range(act.algebra.size):
                o = next(i for i, comp in enumerate(comps) if c in comp)
                base = min(comps[o])
                gammas = [g for g, e in enumerate(emb.elements) if e[base] == c]
                expected.append((frozenset([c]), frozenset(g * width + o for g in gammas)))
            assert emb.sigma.pairs == tuple(expected)
            if width == 1:
                _assert_transitive_embed_is_profinite(act)


# ---------------------------------------------------------------- conjugacy


def test_conjugacy_search_exact_on_relabeled_copy():
    rng = random.Random(431)
    for _ in range(10):
        act = random_equal_atom_action(rng, rng.randint(2, 8), rng.randint(1, 2))
        n = act.algebra.size
        relabel = list(range(n))
        rng.shuffle(relabel)
        inv = [0] * n
        for i, r in enumerate(relabel):
            inv[r] = i
        gens2 = []
        for g in act.gens:
            gens2.append(tuple(relabel[g[inv[x]]] for x in range(n)))
        act2 = validate_action(act.algebra, gens2)
        cert = approx_conjugacy_search(act, act2)
        assert cert.eps == 0
        assert not cert.exhausted
        assert verify_conjugacy(cert) == 0


def test_conjugacy_search_regressions():
    q = quotient_action(cyclic_group(2, [1]))
    t = product_action(q, validate_algebra([F(1, 2), F(1, 2)]))[0]
    cert = approx_conjugacy_search(q, t)
    assert cert.eps == 0
    assert verify_conjugacy(cert) == 0

    alg4 = uniform_algebra(4)
    four_cycle = validate_action(alg4, [(1, 2, 3, 0)])
    double_swap = validate_action(alg4, [(1, 0, 3, 2)])
    cert2 = approx_conjugacy_search(four_cycle, double_swap)
    assert cert2.eps == F(1, 2)
    assert cert2.exhausted
    assert verify_conjugacy(cert2) == F(1, 2)

    one = validate_algebra([F(1)])
    t1 = validate_action(one, [(0,)])
    cert3 = approx_conjugacy_search(t1, t1)
    assert cert3.eps == 0


def test_conjugacy_search_certificate_is_sound():
    rng = random.Random(433)
    for _ in range(8):
        n = rng.randint(2, 6)
        k = rng.randint(1, 2)
        a1 = random_equal_atom_action(rng, n, k)
        a2 = random_equal_atom_action(rng, rng.randint(2, 6), k)
        cert = approx_conjugacy_search(a1, a2)
        assert verify_conjugacy(cert) == cert.eps
        assert 0 <= cert.eps <= 1
        mapping = cert.iso.mapping
        assert sorted(mapping) == list(range(len(mapping)))


def test_search_defect_checks_nothing_and_verify_checks_everything(monkeypatch):
    """The search's own defect skips the permutation checks of
    uniform_distance; verify_conjugacy recomputes the same eps through
    them."""
    checked = []
    checked_distance = action_module.uniform_distance

    def counted(alg, g, h):
        checked.append(g)
        return checked_distance(alg, g, h)

    monkeypatch.setattr(action_module, "uniform_distance", counted)
    rng = random.Random(29)
    for _ in range(6):
        k = rng.randint(0, 2)
        a1, a2 = (random_equal_atom_action(rng, rng.randint(1, 6), k) for _ in range(2))
        cert = approx_conjugacy_search(a1, a2, max_refine=2)
        assert checked == []
        assert verify_conjugacy(cert) == cert.eps
        assert len(checked) == k
        checked.clear()


def test_verify_conjugacy_refuses_a_hand_built_certificate():
    """A certificate built by hand, not by the search, is checked as
    before: a conjugate that is not a permutation or does not preserve
    mass, a bad act2 generator, and tuples of different lengths."""
    alg = uniform_algebra(3)
    skew = validate_algebra([F(1, 2), F(1, 4), F(1, 4)])
    rotate = Isomorphism.of(alg, alg, (1, 2, 0))
    rotation = FkAction(alg, ((1, 2, 0),))
    not_a_permutation = (NotBijective, "generator table is not a permutation")
    cases = [
        (rotate, FkAction(alg, ((0, 0, 2),)), rotation, not_a_permutation),
        (rotate, rotation, FkAction(alg, ((2, 2, 0),)), not_a_permutation),
        (rotate, rotation, FkAction(alg, ()),
         (ArityMismatch, "automorphism tuples have different lengths")),
        (Isomorphism.of(skew, skew, (0, 2, 1)), FkAction(skew, ((1, 0, 2),)),
         FkAction(skew, ((0, 1, 2),)),
         (NotMeasurePreserving, "atom 0 (mass 1/2) maps to atom 2 (mass 1/4)")),
    ]
    for iso, r1, r2, (error, message) in cases:
        cert = ConjugacyCertificate(iso, F(0), r1, r2, (0, 1, 2), (0, 1, 2), False)
        with pytest.raises(error) as raised:
            verify_conjugacy(cert)
        assert str(raised.value) == message


def test_conjugacy_search_arity_mismatch():
    alg = uniform_algebra(2)
    a1 = validate_action(alg, [(1, 0)])
    a2 = validate_action(alg, [(1, 0), (0, 1)])
    with pytest.raises(ArityMismatch):
        approx_conjugacy_search(a1, a2)


def oracle_exact_assign(r1: FkAction, r2: FkAction):
    """Depth-first search for an exact conjugacy, atom by atom in
    oracle_visit_order, targets in increasing order, with no node budget.  A
    candidate is checked with its own atom placed, so a fixed point of a
    generator must land on a fixed point."""
    n = r1.algebra.size
    order = oracle_visit_order(r1)
    mapping = [-1] * n
    used = [False] * n
    edges = list(zip(r1.gens, map(perm_inverse, r1.gens), r2.gens, map(perm_inverse, r2.gens)))

    def fits(x: int, t: int) -> bool:
        return all(
            mapping[g1[x]] in (-1, g2[t]) and mapping[ig1[x]] in (-1, ig2[t])
            for g1, ig1, g2, ig2 in edges
        )

    def descend(idx: int) -> bool:
        if idx == n:
            return True
        x = order[idx]
        for t in range(n):
            if used[t]:
                continue
            mapping[x] = t
            used[t] = True
            if fits(x, t) and descend(idx + 1):
                return True
            mapping[x] = -1
            used[t] = False
        return False

    return tuple(mapping) if descend(0) else None


def conjugates_exactly(r1: FkAction, r2: FkAction, mapping) -> bool:
    return sorted(mapping) == list(range(len(mapping))) and all(
        mapping[g1[x]] == g2[mapping[x]]
        for g1, g2 in zip(r1.gens, r2.gens)
        for x in range(len(mapping))
    )


def _block_action(draw, n: int, k: int) -> FkAction:
    """Generators built block by block; a block often repeats the generators
    of an earlier block of its size, so isomorphic orbits recur."""
    gens: list[list[int]] = [[] for _ in range(k)]
    shapes: dict[int, list] = {}
    while len(gens[0]) < n:
        size = draw(st.integers(1, min(3, n - len(gens[0]))))
        seen = shapes.setdefault(size, [])
        if seen and draw(st.booleans()):
            shape = draw(st.sampled_from(seen))
        else:
            shape = [draw(st.permutations(range(size))) for _ in range(k)]
            seen.append(shape)
        base = len(gens[0])
        for g, p in zip(gens, shape):
            g.extend(base + y for y in p)
    act = validate_action(uniform_algebra(n), [tuple(g) for g in gens])
    return relabeled_action(act, draw(st.permutations(range(n))))


@st.composite
def _conjugacy_pairs(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    r1 = _block_action(draw, n, k)
    kind = draw(st.sampled_from(["relabeled", "perturbed", "random"]))
    if kind == "random":
        return r1, _block_action(draw, n, k)
    r2 = relabeled_action(r1, draw(st.permutations(range(n))))
    if kind == "perturbed" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        swap = list(range(n))
        swap[i], swap[j] = j, i
        which = draw(st.integers(0, k - 1))
        gens = list(r2.gens)
        gens[which] = perm_compose(tuple(swap), gens[which])
        r2 = validate_action(r2.algebra, gens)
    return r1, r2


@given(_conjugacy_pairs())
@settings(max_examples=300, deadline=None)
def test_exact_assign_matches_the_depth_first_oracle(pair):
    r1, r2 = pair
    mapping = _exact_assign(r1, r2)
    assert mapping == oracle_exact_assign(r1, r2)
    assert mapping is None or conjugates_exactly(r1, r2, mapping)


def test_exact_phase_finds_a_mapping_exactly_within_a_census_class():
    """Every standard table of a class, relabelled at random, conjugates
    exactly onto the class's code, and the codes of two classes of one
    degree never do: over the transitive F_2-sets of degree at most 5."""
    rng = random.Random(4109)
    for n in range(1, 6):
        alg = uniform_algebra(n)
        classes = transitive_census(2, n)
        codes = [validate_action(alg, c.code) for c in classes]
        for code, c in zip(codes, classes):
            for table in c.tables:
                relabelled = relabeled_action(validate_action(alg, table), random_permutation(rng, n))
                mapping = _exact_assign(code, relabelled)
                assert mapping is not None and conjugates_exactly(code, relabelled, mapping)
        for (i, r1), (j, r2) in product(enumerate(codes), repeat=2):
            assert (_exact_assign(r1, r2) is None) == (i != j)


def test_exact_phase_checks_generator_fixed_points():
    alg = uniform_algebra(8)
    fixed_points = validate_action(alg, [(0, 2, 1, 3, 4, 6, 5, 7)])
    four_cycle = validate_action(alg, [(4, 6, 3, 0, 2, 7, 1, 5)])
    assert _exact_assign(fixed_points, four_cycle) is None
    cert = approx_conjugacy_search(fixed_points, four_cycle)
    assert cert.eps == F(1, 2) and cert.exhausted
    assert verify_conjugacy(cert) == cert.eps


# ------------------------------------------- conjugacy depths as unit refinements


def oracle_unit_depths(act: FkAction, base: int, max_refine: int):
    """The depths of the conjugacy search as it was: at depth m the action
    refined anew to the unit 1/(base*m), with its projection."""
    return [refine_action_to_unit(act, F(1, base * m)) for m in range(1, max_refine + 1)]


def layout(refined: FkAction, projection):
    """What a depth is, whatever the algebra's id: den, units, generators
    and projection."""
    return refined.algebra.den, refined.algebra.units, refined.gens, tuple(projection)


def oracle_conjugacy_search(act1: FkAction, act2: FkAction, max_refine: int):
    """The search over oracle_unit_depths: the (mapping, eps, layout of each
    refined action) of every depth it searched, and of its answer, the
    least eps with earlier depths winning ties.  It stops at the first
    zero.  A depth with no exact conjugacy is built from cycle types when
    k = 1, each depth grouping afresh, and by the beam otherwise."""
    base = lcm(act1.algebra.den, act2.algebra.den)
    searched = []
    for (r1, p1), (r2, p2) in zip(
        oracle_unit_depths(act1, base, max_refine), oracle_unit_depths(act2, base, max_refine)
    ):
        mapping = _exact_assign(r1, r2)
        if mapping is None and r1.k == 1:
            mapping = _cycle_type_assign(r1.gens[0], r2.gens[0], [0])
        if mapping is None:
            mapping = _beam_assign(r1, r2, 16)
        searched.append((mapping, _conjugacy_defect(mapping, r1, r2), layout(r1, p1), layout(r2, p2)))
        if searched[-1][1] == 0:
            break
    return searched, min(searched, key=lambda depth: depth[1])


def certificate_layout(cert):
    return (
        cert.iso.mapping,
        cert.eps,
        layout(cert.act1_refined, cert.projection1),
        layout(cert.act2_refined, cert.projection2),
    )


def _unequal_mass_action(draw, k: int) -> FkAction:
    """Atoms of weights 1..3 over a total weight in {2, 3, 4, 6, 8, 12}, so
    that two such algebras have an lcm of at most 24; every generator
    shuffles each class of equal weight."""
    total = draw(st.sampled_from([2, 3, 4, 6, 8, 12]))
    weights: list[int] = []
    while sum(weights) < total:
        weights.append(draw(st.integers(1, min(3, total - sum(weights)))))
    weights.sort()
    alg = validate_algebra([F(w, total) for w in weights])
    classes = [[x for x, v in enumerate(weights) if v == w] for w in sorted(set(weights))]
    gens = [tuple(y for cls in classes for y in draw(st.permutations(cls))) for _ in range(k)]
    return validate_action(alg, gens)


@st.composite
def _unequal_mass_pairs(draw):
    k = draw(st.integers(1, 3))
    act1 = _unequal_mass_action(draw, k)
    if draw(st.booleans()):
        act2 = _unequal_mass_action(draw, k)
    else:
        act2 = relabeled_action(act1, random_mass_preserving_perm(
            random.Random(draw(st.integers(0, 99))), act1.algebra
        ))
    return act1, act2, draw(st.integers(1, 4))


@given(_unequal_mass_pairs())
@settings(max_examples=150, deadline=None)
def test_conjugacy_depths_are_the_unit_refinements(pair):
    """Depth m of the extensions of the unit refinement to 1/L, L = lcm(D1,
    D2), is the unit refinement to 1/(L*m) atom for atom, with the composed
    projection; so the search builds, depth by depth, the certificates the
    per-depth refinements gave, and answers what they did."""
    act1, act2, max_refine = pair
    base = lcm(act1.algebra.den, act2.algebra.den)
    for act in (act1, act2):
        unit_refined, unit_projection = refine_action_to_unit(act, F(1, base))
        depths = [
            layout(refined, perm_compose(unit_projection, projection))
            for refined, projection in extensions(unit_refined, max_refine)
        ]
        assert depths == [layout(*d) for d in oracle_unit_depths(act, base, max_refine)]
    built = []

    def recording(*fields):
        built.append(certificate_layout(ConjugacyCertificate(*fields)))
        return ConjugacyCertificate(*fields)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "ConjugacyCertificate", recording)
        cert = approx_conjugacy_search(act1, act2, max_refine)
    searched, answer = oracle_conjugacy_search(act1, act2, max_refine)
    assert built == searched
    assert certificate_layout(cert) == answer


@st.composite
def _equal_atom_pairs(draw):
    """Two equal-atom actions: a relabelled copy, a random pair (rarely
    conjugate) or a cycle-type mismatch, with a depth limit of 1-4."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["relabelled", "random", "mismatch"]))
    if kind == "mismatch":
        act1, act2 = cycle_mismatch_pair(rng, draw(st.sampled_from([8, 12])))
    else:
        n, k = draw(st.integers(1, 7)), draw(st.integers(1, 2))
        act1 = random_equal_atom_action(rng, n, k)
        if kind == "relabelled":
            act2 = relabeled_action(act1, random_permutation(rng, n))
        else:
            act2 = random_equal_atom_action(rng, n, k)
    return act1, act2, draw(st.integers(1, 4))


@given(_equal_atom_pairs())
@settings(max_examples=120, deadline=None)
def test_exact_conjugacy_exists_at_every_depth_or_at_none(pair):
    """Depth m is m disjoint copies of depth 1, and a finite F_k-set splits
    uniquely into orbits, so the exact phase answers at depth m as it does
    at depth 1; the search that runs it at depth 1 alone builds every
    certificate the search that ran it at every depth built."""
    act1, act2, max_refine = pair
    depths = list(zip(extensions(act1, max_refine), extensions(act2, max_refine)))
    exact = [_exact_assign(r1, r2) is not None for (r1, _), (r2, _) in depths]
    assert exact == [exact[0]] * max_refine
    built = []

    def recording(*fields):
        built.append(certificate_layout(ConjugacyCertificate(*fields)))
        return ConjugacyCertificate(*fields)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "ConjugacyCertificate", recording)
        cert = approx_conjugacy_search(act1, act2, max_refine)
    searched, answer = oracle_conjugacy_search(act1, act2, max_refine)
    assert built == searched
    assert certificate_layout(cert) == answer


def test_conjugacy_search_refines_each_action_once(monkeypatch):
    """However many depths run, each action is refined to the unit at most
    once, and not at all when its atoms already weigh the unit; every depth
    comes from extensions; the exact phase runs once, at depth 1, with two
    generators, and never with one; a search that stops at depth 1 builds
    no product."""
    refined, searched, products = [], [], []

    def counting_refine(act, unit):
        refined.append(unit)
        return refine_action_to_unit(act, unit)

    def counting_exact(r1, r2):
        searched.append(r1.algebra.size)
        return _exact_assign(r1, r2)

    def counting_product(act, fiber):
        products.append(fiber.size)
        return product_action(act, fiber)

    monkeypatch.setattr(constructions, "refine_action_to_unit", counting_refine)
    monkeypatch.setattr(constructions, "_exact_assign", counting_exact)
    monkeypatch.setattr(action_module, "product_action", counting_product)
    # each instance with one generator, and with the identity as a second
    for extra, exact in (((), []), (((0, 1, 2, 3),), [4])):
        # no exact conjugacy at any depth, so every depth runs
        four_cycle = validate_action(uniform_algebra(4), [(1, 2, 3, 0), *extra])
        double_swap = validate_action(uniform_algebra(4), [(1, 0, 3, 2), *extra])
        for max_refine in range(1, 5):
            del refined[:], searched[:], products[:]
            cert = approx_conjugacy_search(four_cycle, double_swap, max_refine)
            assert cert.eps == F(1, 2)
            assert refined == []
            assert searched == exact
            assert products == [m for m in range(2, max_refine + 1) for _ in range(2)]
        # a relabeled copy conjugates exactly at depth 1
        del refined[:], searched[:], products[:]
        relabeled = relabeled_action(four_cycle, (2, 0, 3, 1))
        assert approx_conjugacy_search(four_cycle, relabeled, max_refine=4).eps == 0
        assert (refined, searched, products) == ([], exact, [])
        # two atoms of mass 1/2 are refined to the unit 1/4, once
        del refined[:], searched[:], products[:]
        swap = validate_action(uniform_algebra(2), [(1, 0), *[(0, 1) for _ in extra]])
        cert = approx_conjugacy_search(swap, double_swap, max_refine=3)
        assert cert.eps == 0
        assert (refined, searched, products) == ([F(1, 4)], exact, [])


# The beam's answers to the cycle-type mismatches, as recorded when the exact
# phase was a depth-first search with a node budget.
MISMATCH_BEAM = {
    20: (F(1, 10), (0, 5, 13, 6, 1, 15, 2, 11, 3, 8, 4, 10, 7, 18, 17, 19, 9, 12,
                    14, 16)),
    28: (F(1, 14), (0, 20, 1, 8, 2, 16, 18, 15, 3, 17, 4, 23, 5, 22, 19, 7, 6, 13,
                    14, 25, 9, 12, 10, 27, 11, 21, 26, 24)),
    36: (F(1, 18), (0, 5, 20, 16, 1, 3, 21, 18, 2, 24, 25, 22, 4, 33, 26, 10, 6, 15,
                    12, 27, 7, 31, 23, 8, 9, 30, 19, 29, 11, 13, 28, 17, 14, 32, 35,
                    34)),
}


def recorded_groupings(monkeypatch) -> list:
    """Wrap _grouping: each call appends the grouping steps summed after it
    and the groups it returned."""
    calls = []

    def recording(lengths1, lengths2, counts, spent):
        groups = _grouping(lengths1, lengths2, counts, spent)
        calls.append((spent[0], groups))
        return groups

    monkeypatch.setattr(constructions, "_grouping", recording)
    return calls


@pytest.mark.parametrize("n", sorted(MISMATCH_BEAM))
def test_cycle_type_mismatch_is_refuted_then_built_as_one_group(n, monkeypatch):
    """The beam's recorded answers, from _beam_assign itself, which stays the
    k >= 2 search and the oracle here.  A search within the cap builds the
    same eps from cycle types.  The 8-cycle against two 4-cycles is one
    minimal group, so a search whose grouping may take no step, exact or
    greedy, stops at its first count, 1 * 3 sub-multisets, takes the
    leftover cycles as one group, and builds that same mapping byte for
    byte, with no beam."""
    a1, a2 = cycle_mismatch_pair(random.Random(n), n)
    assert _exact_assign(a1, a2) is None
    eps, mapping = MISMATCH_BEAM[n]
    assert _beam_assign(a1, a2, 16) == mapping
    assert _conjugacy_defect(mapping, a1, a2) == eps
    built = approx_conjugacy_search(a1, a2)
    assert built.eps == eps and built.iso.mapping != mapping
    assert built.exhausted and verify_conjugacy(built) == eps
    monkeypatch.setattr(constructions, "MAX_GROUPING_STEPS", 0)
    monkeypatch.setattr(constructions, "_beam_assign", None)  # not called
    groupings = recorded_groupings(monkeypatch)
    cert = approx_conjugacy_search(a1, a2)
    assert groupings == [(4, [(1, 2)])]
    assert (cert.eps, cert.iso.mapping) == (eps, built.iso.mapping)
    assert cert.exhausted and verify_conjugacy(cert) == cert.eps


def cycle_type_perm(parts, order) -> tuple[int, ...]:
    """A permutation whose cycles have the lengths parts, laid over the atoms
    in the given order."""
    p, start = [0] * len(order), 0
    for length in parts:
        cycle = order[start:start + length]
        for i, x in enumerate(cycle):
            p[x] = cycle[(i + 1) % length]
        start += length
    return tuple(p)


def cycle_type(p) -> list[int]:
    """The cycle lengths of p, greatest first."""
    lengths, seen = [], set()
    for start in range(len(p)):
        if start not in seen:
            seen.add(start)
            x, length = p[start], 1
            while x != start:
                seen.add(x)
                x, length = p[x], length + 1
            lengths.append(length)
    return sorted(lengths, reverse=True)


def integer_partitions(n: int, most: int | None = None):
    """Every partition of n into parts of at most most, greatest part first."""
    if n == 0:
        yield ()
    for first in range(min(n, most or n), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first, *rest)


def oracle_least_cost(g, h) -> int:
    """min over every bijection p of the atoms of n times the uniform
    distance of p g p^-1 from h: the atoms of h^-1 p g p^-1 less its odd
    cycles."""
    n = len(g)
    hinv = perm_inverse(h)
    best = n
    for p in permutations(range(n)):
        tau = [0] * n
        for x in range(n):
            tau[p[x]] = hinv[p[g[x]]]
        best = min(best, sum(length - length % 2 for length in cycle_type(tau)))
    return best


def oracle_grouping_cost(lengths1, lengths2) -> int:
    """The least cost of a split of every part of lengths1 and lengths2 into
    groups of a >= 1 parts of the one and b >= 1 of the other with equal
    sums, a group costing a + b - 2 plus 1 when a + b is odd; no length is
    paired first.  Searched over the subsets of the parts as bitmasks, each
    set of parts left taking every subset holding its lowest part."""
    signed = [*lengths1, *(-d for d in lengths2)]
    balance = [0] * (1 << len(signed))
    for mask in range(1, len(balance)):
        low = mask & -mask
        balance[mask] = balance[mask ^ low] + signed[low.bit_length() - 1]
    costs = {0: 0}

    def cost(mask: int) -> int:
        if mask not in costs:
            low, best, sub = mask & -mask, len(signed), mask
            while sub:
                if sub & low and balance[sub] == 0:
                    size = bin(sub).count("1")
                    best = min(best, size - 2 + size % 2 + cost(mask ^ sub))
                sub = (sub - 1) & mask
            costs[mask] = best
        return costs[mask]

    return cost(len(balance) - 1)


def one_generator_pair(rng, parts1, parts2):
    """Actions on equal atoms of one generator each, of the two cycle
    types, the second laid over a shuffled order of the atoms."""
    n = sum(parts1)
    order = list(range(n))
    rng.shuffle(order)
    alg = uniform_algebra(n)
    return (validate_action(alg, [cycle_type_perm(parts1, range(n))]),
            validate_action(alg, [cycle_type_perm(parts2, order)]))


def test_one_generator_search_is_the_brute_force_optimum():
    """Every pair of cycle types on at most 6 atoms, and a seeded sample on
    7, gets the least defect over every bijection, and it re-verifies."""
    rng = random.Random(4901)
    pairs = [(a, b) for n in range(1, 7) for a in integer_partitions(n)
             for b in integer_partitions(n)]
    sevens = list(integer_partitions(7))
    pairs += [(rng.choice(sevens), rng.choice(sevens)) for _ in range(12)]
    for parts1, parts2 in pairs:
        a1, a2 = one_generator_pair(rng, parts1, parts2)
        n = a1.algebra.size
        assert sorted(_cycle_type_assign(a1.gens[0], a2.gens[0], [0])) == list(range(n))
        cert = approx_conjugacy_search(a1, a2)
        assert cert.eps * n == oracle_least_cost(a1.gens[0], a2.gens[0]), (parts1, parts2)
        assert verify_conjugacy(cert) == cert.eps


def test_one_generator_search_answers_what_the_exact_phase_would():
    """The exact phase stays the oracle for one generator: it finds no
    mapping exactly when the cycle types differ, and wherever it finds one
    the search, built from cycle types with no exact phase to call, returns
    that mapping with eps 0.  Over every pair of cycle types on at most 6 atoms, the second laid over
    a shuffled order, and seeded random pairs on at most 12, half of them
    relabelled copies."""
    rng = random.Random(5301)
    pairs = [one_generator_pair(rng, a, b) for n in range(1, 7)
             for a in integer_partitions(n) for b in integer_partitions(n)]
    for _ in range(200):
        n = rng.randint(1, 12)
        a1 = validate_action(uniform_algebra(n), [random_permutation(rng, n)])
        if rng.random() < 0.5:
            a2 = relabeled_action(a1, random_permutation(rng, n))
        else:
            a2 = validate_action(uniform_algebra(n), [random_permutation(rng, n)])
        pairs.append((a1, a2))
    conjugate = 0
    for a1, a2 in pairs:
        mapping = _exact_assign(a1, a2)
        assert (mapping is None) == (cycle_type(a1.gens[0]) != cycle_type(a2.gens[0]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constructions, "_exact_assign", None)  # not called
            cert = approx_conjugacy_search(a1, a2)
        if mapping is not None:
            conjugate += 1
            assert (cert.iso.mapping, cert.eps) == (mapping, 0)
        else:
            assert cert.eps > 0
    assert 0 < conjugate < len(pairs)


def test_one_generator_search_never_runs_the_exact_phase(monkeypatch):
    """Conjugate or not, at one depth or several, and when the grouping is
    past its cap, a search of one generator calls no exact phase; with
    none or two generators it calls it once."""
    calls = []

    def counting_exact(r1, r2):
        calls.append(r1.k)
        return _exact_assign(r1, r2)

    monkeypatch.setattr(constructions, "_exact_assign", counting_exact)
    rng = random.Random(5302)
    four_cycle = validate_action(uniform_algebra(4), [(1, 2, 3, 0)])
    double_swap = validate_action(uniform_algebra(4), [(1, 0, 3, 2)])
    for a1, a2, max_refine in (
        (four_cycle, relabeled_action(four_cycle, (2, 0, 3, 1)), 3),
        (four_cycle, double_swap, 3),
        (*cycle_mismatch_pair(rng, 12), 2),
        (*one_generator_pair(rng, (5, 3, 1), (4, 4, 1)), 1),
    ):
        approx_conjugacy_search(a1, a2, max_refine)
    with monkeypatch.context() as capped:
        capped.setattr(constructions, "MAX_GROUPING_STEPS", 0)
        assert approx_conjugacy_search(four_cycle, double_swap, 2).eps == F(1, 2)
    assert calls == []
    free = validate_action(uniform_algebra(4), [])
    pair = validate_action(uniform_algebra(4), [(1, 2, 3, 0), (1, 0, 3, 2)])
    for act in (free, pair):
        assert approx_conjugacy_search(act, act, 2).eps == 0
    assert calls == [0, 2]


def test_one_generator_defect_is_the_grouping_cost_and_never_above_the_beam():
    """On 2 to 60 atoms the built defect times n equals the least grouping
    cost, it re-verifies, and a width-16 beam is never below it.  The
    subset search takes the random draws and the small shapes; an n-cycle
    or 30 swaps against 60 fixed points cost every atom."""
    rng = random.Random(4902)
    for parts1, parts2 in (((60,), (1,) * 60), ((2,) * 30, (1,) * 60)):
        cert = approx_conjugacy_search(*one_generator_pair(rng, parts1, parts2))
        assert cert.eps == 1 and verify_conjugacy(cert) == 1
    cases = [((9,), (1,) * 9), ((2, 2, 2), (1,) * 6), ((4, 4, 1, 1), (3, 3, 2, 2))]
    for _ in range(150):
        n = rng.randint(2, 60)
        cases.append((cycle_type(random_permutation(rng, n)),
                      cycle_type(random_permutation(rng, n))))
    below_beam = 0
    for parts1, parts2 in cases:
        a1, a2 = one_generator_pair(rng, parts1, parts2)
        cert = approx_conjugacy_search(a1, a2)
        n = a1.algebra.size
        assert cert.eps * n == oracle_grouping_cost(parts1, parts2), (parts1, parts2)
        assert verify_conjugacy(cert) == cert.eps
        beam = _conjugacy_defect(_beam_assign(a1, a2, 16), a1, a2)
        assert cert.eps <= beam
        below_beam += cert.eps < beam
    assert below_beam > 0


def test_one_generator_grouping_is_capped_by_its_summed_steps(monkeypatch):
    """An 8-cycle and a 4-cycle against a 7-cycle and a 5-cycle group in 7
    steps: 2 g-side sub-multisets holding the 4, 4 h-side ones, and the one
    group they match.  That group holds every leftover cycle, so one step
    below the cap, where the search stops at its last count and takes them
    as one group, builds the same mapping byte for byte; the beam, which
    does worse on this labelling, never runs.  The steps are summed over
    depths: depth 2 enumerates 3 * 2 + 9 sub-multisets, matches
    (8, 4 | 7, 5) and (8, 8, 4, 4 | 7, 7, 5, 5), and the state the first
    leaves takes 7 more, 31 in all.  Stopped at the first count past the
    cap, at 22, 23 or 31, depth 2 is one group of all eight cycles, whose
    defect 1/4 is above the 1/6 of its two groups, and depth 1 answers:
    the greedy grouping's first round, 2 * 13 * 8 table steps at depth 1
    and 2 * 17 * 12 at depth 2, is past each of these caps too."""
    a1, a2 = one_generator_pair(random.Random(4915), (8, 4), (7, 5))
    assert _conjugacy_defect(_beam_assign(a1, a2, 16), a1, a2) == F(1, 3)
    monkeypatch.setattr(constructions, "_beam_assign", None)  # not called
    monkeypatch.setattr(constructions, "MAX_GROUPING_STEPS", 7)
    cert = approx_conjugacy_search(a1, a2)
    assert cert.eps == F(1, 6) and verify_conjugacy(cert) == cert.eps
    monkeypatch.setattr(constructions, "MAX_GROUPING_STEPS", 6)
    capped = approx_conjugacy_search(a1, a2)
    assert (capped.eps, capped.iso.mapping) == (cert.eps, cert.iso.mapping)
    groupings = recorded_groupings(monkeypatch)
    defects = []

    def recording_defect(h, r1, r2):
        defects.append(_conjugacy_defect(h, r1, r2))
        return defects[-1]

    monkeypatch.setattr(constructions, "_conjugacy_defect", recording_defect)
    one = (1, 1, 1, 1)
    for cap, depth2, groups2 in ((31, 31, [one, one]), (30, 31, [(2, 2, 2, 2)]),
                                 (22, 23, [(2, 2, 2, 2)]), (21, 22, [(2, 2, 2, 2)]),
                                 (6, 22, [(2, 2, 2, 2)])):
        del groupings[:], defects[:]
        monkeypatch.setattr(constructions, "MAX_GROUPING_STEPS", cap)
        assert approx_conjugacy_search(a1, a2, max_refine=2).eps == F(1, 6)
        assert groupings == [(7, [one]), (depth2, groups2)], cap
        assert defects == [F(1, 6), F(1, 6) if cap == 31 else F(1, 4)], cap


def test_one_generator_search_never_runs_the_beam(monkeypatch):
    """At every depth, within the grouping cap and past it, a search of one
    generator builds its mapping from cycle types and never calls the beam,
    which two generators with no exact conjugacy do call, once per depth."""
    ks = []

    def counting_beam(r1, r2, beam_width):
        ks.append(r1.k)
        return _beam_assign(r1, r2, beam_width)

    monkeypatch.setattr(constructions, "_beam_assign", counting_beam)
    rng = random.Random(5601)
    pairs = [cycle_mismatch_pair(rng, 20), one_generator_pair(rng, (8, 4), (7, 5))]
    for _ in range(40):
        n = rng.randint(2, 30)
        pairs.append(tuple(
            validate_action(uniform_algebra(n), [random_permutation(rng, n)]) for _ in range(2)))
    for cap in (limits.MAX_GROUPING_STEPS, 0):
        monkeypatch.setattr(constructions, "MAX_GROUPING_STEPS", cap)
        for a1, a2 in pairs:
            cert = approx_conjugacy_search(a1, a2, max_refine=3)
            assert verify_conjugacy(cert) == cert.eps
    assert ks == []
    swap_first = validate_action(uniform_algebra(2), [(1, 0), (0, 1)])
    swap_second = validate_action(uniform_algebra(2), [(0, 1), (1, 0)])
    assert approx_conjugacy_search(swap_first, swap_second, max_refine=2).eps > 0
    assert ks == [2, 2]


def drawn_parts(rng, n: int, lengths) -> list[int]:
    """Cycle lengths drawn from lengths until they sum to n, the last cut to
    what is left."""
    parts = []
    while n:
        parts.append(min(rng.choice(lengths), n))
        n -= parts[-1]
    return parts


def first_state_steps(parts1, parts2) -> int:
    """The steps _grouping counts before its first state enumerates: the
    g-side sub-multisets of the leftover cycles holding the least g-length,
    and every h-side one."""
    left1, left2 = Counter(parts1) - Counter(parts2), Counter(parts2) - Counter(parts1)
    pin = min(left1)
    return prod(m + (d != pin) for d, m in left1.items()) + prod(m + 1 for m in left2.values())


def test_one_generator_past_the_grouping_cap_is_never_above_the_beam(monkeypatch):
    """300 pairs on 30 to 300 atoms whose first grouping state alone counts
    past the real MAX_GROUPING_STEPS: the lengths 1..top are shuffled and
    split between the two sides, each drawing its cycles from its own.
    Every search stops its exact grouping there and splits the leftover
    cycles greedily, within the cap's steps of its own.  Every certificate
    verifies, its defect is at most the cost of the groups it was built
    from, a + b - 2 atoms plus 1 when a + b is odd for a group of a + b
    cycles, and no eps is above a width-16 beam's; their sum is below the
    beam's.  One group of every leftover cycle, the split that needs no
    search, was above the beam on 124 of these pairs."""
    rng = random.Random(23)
    pairs = []
    while len(pairs) < 300:
        n = rng.randint(30, 300)
        lengths = list(range(1, rng.choice((8, 12, 16, 24)) + 1))
        rng.shuffle(lengths)
        cut = rng.randint(1, len(lengths) - 1)
        parts1, parts2 = drawn_parts(rng, n, lengths[:cut]), drawn_parts(rng, n, lengths[cut:])
        if Counter(parts1) != Counter(parts2):
            if first_state_steps(parts1, parts2) > limits.MAX_GROUPING_STEPS:
                pairs.append(one_generator_pair(rng, parts1, parts2))
    groupings = recorded_groupings(monkeypatch)
    summed = Counter()
    for a1, a2 in pairs:
        cert = approx_conjugacy_search(a1, a2)
        assert verify_conjugacy(cert) == cert.eps
        (spent, groups), = groupings
        del groupings[:]
        assert spent > limits.MAX_GROUPING_STEPS
        assert cert.eps * a1.algebra.size <= sum(sum(g) - 2 + sum(g) % 2 for g in groups)
        beam = _conjugacy_defect(_beam_assign(a1, a2, 16), a1, a2)
        assert cert.eps <= beam
        summed["greedy"] += cert.eps
        summed["beam"] += beam
    assert summed["greedy"] < summed["beam"]


def test_one_generator_past_the_grouping_cap_from_one_pool_is_below_the_beam(monkeypatch):
    """Both sides drawing their cycles from one pool of lengths 1..top, top
    10, 20 or 30, on 30 to 300 atoms: of the pairs whose grouping passes the
    real MAX_GROUPING_STEPS, the first 24 are each split greedily into more
    than one group, and each verifies and is below a width-16 beam."""
    rng = random.Random(23)
    groupings = recorded_groupings(monkeypatch)
    kept = 0
    while kept < 24:
        n = rng.randint(30, 300)
        lengths = range(1, rng.choice((10, 20, 30)) + 1)
        a1, a2 = one_generator_pair(rng, drawn_parts(rng, n, lengths), drawn_parts(rng, n, lengths))
        del groupings[:]
        cert = approx_conjugacy_search(a1, a2)
        (spent, groups), = groupings
        if spent > limits.MAX_GROUPING_STEPS:
            kept += 1
            assert len(groups) > 1 and verify_conjugacy(cert) == cert.eps
            assert cert.eps < _conjugacy_defect(_beam_assign(a1, a2, 16), a1, a2)


def test_greedy_grouping_takes_the_group_of_most_worth_per_cycle():
    """m swaps against 2m fixed points are m groups of a swap and two fixed
    points, found in one round: for m >= 2, sums up to 4, two parities, and
    3 + 5 counts of swaps and fixed points, 2 * 5 * 8 table steps.  Eight 4-cycles, eight 8-cycles against
    eight 5- and eight 7-cycles are eight groups (4, 8 | 5, 7), worth 2 for
    4 cycles, where one group would be worth as much for 32.  Against 2- and
    1-cycles, a 3-cycle takes three fixed points, worth 2, before a 2-cycle
    and a fixed point, worth 1.  The rounds stop at MAX_GROUPING_STEPS of
    steps summed in spent[1], and what is left is one group.  On 200
    random pairs of disjoint cycle lengths the groups split the counts
    exactly, each of equal nonzero sums on its two sides."""
    for m in (2, 5, 1000):
        spent = [0, 0]
        assert _greedy_grouping([2], [1], (m, 2 * m), spent) == [(1, 2)] * m
        assert spent[1] == 80
    spent = [0, 0]
    assert _greedy_grouping([4, 8], [5, 7], (8, 8, 8, 8), spent) == [(1, 1, 1, 1)] * 8
    assert _greedy_grouping([3], [1, 2], (3, 7, 1), [0, 0]) == [(1, 3, 0)] * 2 + [(1, 1, 1)]
    spent = [0, limits.MAX_GROUPING_STEPS]
    assert _greedy_grouping([4, 8], [5, 7], (8, 8, 8, 8), spent) == [(8, 8, 8, 8)]
    assert spent[1] > limits.MAX_GROUPING_STEPS
    rng = random.Random(5602)
    for _ in range(200):
        n = rng.randint(2, 400)
        lengths = list(range(1, rng.randint(2, 30) + 1))
        rng.shuffle(lengths)
        cut = rng.randint(1, len(lengths) - 1)
        left1, left2 = (Counter(drawn_parts(rng, n, pool)) for pool in (lengths[:cut], lengths[cut:]))
        lengths1, lengths2 = sorted(left1), sorted(left2)
        counts = tuple(left1[d] for d in lengths1) + tuple(left2[d] for d in lengths2)
        groups = _greedy_grouping(lengths1, lengths2, counts, [0, 0])
        assert tuple(map(sum, zip(*groups))) == counts
        for group in groups:
            g_side, h_side = group[:len(lengths1)], group[len(lengths1):]
            assert sum(map(mul, g_side, lengths1)) == sum(map(mul, h_side, lengths2)) > 0


# ------------------------------------------ fast kernels against the old code

S6_GENERATORS = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
S5_GENERATORS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]


def oracle_generated_group(identity, gens, compose):
    """The table as built before the Cayley graph: every product of two
    elements composed and looked up, order^2 compositions.  Returns the
    table, the indices of the marked generators and the elements."""
    elements, index = breadth_first(identity, gens, compose, MAX_REFINED_ATOMS)
    if len(elements) > MAX_REFINED_ATOMS:
        raise InstanceTooLarge(f"group has more than {MAX_REFINED_ATOMS} elements")
    mul = tuple(tuple(index[compose(x, y)] for y in elements) for x in elements)
    return mul, tuple(index[g] for g in gens), elements


def _pair_compose(t1, t2):
    """Multiplication in the product of two groups given by their tables."""
    return lambda x, y: (t1[x[0]][y[0]], t2[x[1]][y[1]])


def test_group_tables_match_the_order_squared_oracle():
    rng = random.Random(808)
    cases = [S6_GENERATORS, S5_GENERATORS, *BENCHMARK_PERMUTATION_GROUPS]
    for _ in range(80):
        degree = rng.randint(1, 5)
        cases.append([random_permutation(rng, degree) for _ in range(rng.randint(1, 3))])
    groups = []
    for perms in cases:
        perms = [tuple(p) for p in perms]
        identity = tuple(range(len(perms[0])))
        group, got_elements = permutation_marked_group(perms)
        mul, gen_images, elements = oracle_generated_group(identity, perms, perm_compose)
        assert table_of(group) == (mul, 0, gen_images)
        assert got_elements == tuple(elements)
        if group.order <= 60:
            groups.append((group, mul))
    for _ in range(60):
        (g1, t1), (g2, t2) = rng.sample(groups, 2)
        if g1.k != g2.k:
            continue
        jq = joint_quotient(g1, g2)
        mul, gen_images, elements = oracle_generated_group(
            (g1.identity, g2.identity),
            list(zip(g1.gen_images, g2.gen_images)),
            _pair_compose(t1, t2),
        )
        assert table_of(jq.group) == (mul, 0, gen_images)
        assert (jq.proj1, jq.proj2) == tuple(tuple(e[i] for e in elements) for i in (0, 1))


def _counting(compose, calls):
    def counted(x, y):
        calls.append((x, y))
        return compose(x, y)

    return counted


def test_group_tables_compose_order_k_plus_order_times_at_most(monkeypatch):
    """The walk composes each element with each generator once and builds
    no table: a guard on the group's cost without timing."""
    calls = []
    monkeypatch.setattr(constructions, "perm_compose", _counting(perm_compose, calls))
    s5, _ = permutation_marked_group(S5_GENERATORS)
    assert s5.order == 120 and 0 < len(calls) <= s5.order * (s5.k + 1)
    calls.clear()
    emb = embed_transitive_into_quotient(validate_action(uniform_algebra(6), S6_GENERATORS))
    s6 = emb.group
    assert s6.order == 720 and 0 < len(calls) <= s6.order * (s6.k + 1)

    g1 = permutation_marked_group([(1, 2, 3, 0), (1, 0, 2, 3)])[0]
    g2 = cyclic_group(6, [1, 3])
    calls.clear()
    group, _ = _generated_group(
        (g1.identity, g2.identity),
        list(zip(g1.gen_images, g2.gen_images)),
        _counting(_pair_compose(g1.rows(range(g1.order)), g2.rows(range(g2.order))), calls),
    )
    assert group == joint_quotient(g1, g2).group
    assert group.order == 72 and 0 < len(calls) <= group.order * (group.k + 1)


def oracle_cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Z/n's table as built before the rotated rows: every entry summed."""
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def oracle_quotient_gens(table, gen_images) -> list[tuple[int, ...]]:
    """The quotient action's generators as built before: the marked
    generators' table rows read entry by entry."""
    return [tuple(table[g][x] for x in range(len(table))) for g in gen_images]


def test_cyclic_tables_and_quotient_generators_match_the_entrywise_oracle():
    for n in (1, 2, 3, 5, 7, 31, 36, 60, 1448):  # 1448^2 table entries fit, 1449^2 do not
        images = [1, n // 2 + 3]
        group = cyclic_group(n, images)
        assert table_of(group) == (oracle_cyclic_table(n), 0, tuple(i % n for i in images))
    rng = random.Random(811)
    cyclic = [cyclic_group(n, [1, rng.randrange(n)]) for n in (1, 2, 12, 36, 60)]
    perm = [permutation_marked_group(perms)[0] for perms in BENCHMARK_PERMUTATION_GROUPS]
    joint = [
        joint_quotient(cyclic_group(6, [1, 4]), perm[4]).group,  # Z/6 with S_5
        joint_quotient(perm[3], cyclic[3]).group,  # S_4 with Z/36
    ]
    for group in (*cyclic, *perm, *joint, group_from_table([[0]], [])):
        act = quotient_action(group)
        table = group.rows(range(group.order))
        assert act == validate_action(act.algebra, oracle_quotient_gens(table, group.gen_images))


# A generating set of each table in SMALL_GROUP_TABLES, and S_4's table as
# the order^2 oracle builds it, generated by the elements at 1 and 2.
SMALL_GROUP_GENERATORS = [[1]] * 5 + [[1, 2], [1, 2]]
S4_TABLE = oracle_generated_group(
    (0, 1, 2, 3), [(1, 2, 3, 0), (1, 0, 2, 3)], perm_compose
)[0]


@st.composite
def relabeled_group_tables(draw):
    """The Cayley table of a small group or S_4 under a relabelling that
    moves the identity off index 0, marked by a generating set with up to
    two more elements, in any order, and some elements to take rows of."""
    base, gens = draw(st.sampled_from(
        [*zip(SMALL_GROUP_TABLES, SMALL_GROUP_GENERATORS), (S4_TABLE, [1, 2])]
    ))
    order = len(base)
    pi = draw(st.permutations(range(order)).filter(lambda p: p[0] != 0))
    mul = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            mul[pi[a]][pi[b]] = pi[base[a][b]]
    element = st.integers(0, order - 1)
    extra = draw(st.lists(element, max_size=2))
    marked = draw(st.permutations([pi[g] for g in gens] + extra))
    return mul, marked, pi[0], draw(st.lists(element, max_size=4))


@settings(max_examples=200, deadline=None)
@given(relabeled_group_tables())
def test_rows_rebuild_a_table_whose_identity_is_not_element_0(case):
    mul, marked, identity, zs = case
    group = group_from_table(mul, marked)
    assert group.identity == identity != 0
    assert group.rows(range(group.order)) == tuple(tuple(row) for row in mul)
    assert group.rows(zs) == tuple(tuple(mul[z]) for z in zs)
    act = quotient_action(group)
    assert act == validate_action(act.algebra, oracle_quotient_gens(mul, marked))


def test_groups_are_built_without_rows_and_quotients_ask_for_k(monkeypatch):
    """Building a group calls rows never, checking a table calls it for the
    k marked generators and then for the whole table, and a quotient action
    calls it once, for the k marked generators: a guard on the table cost
    without timing."""
    calls = []
    rows = MarkedGroup.rows

    def counted(group, zs):
        calls.append(tuple(zs))
        return rows(group, zs)

    monkeypatch.setattr(MarkedGroup, "rows", counted)
    s5, _ = permutation_marked_group(S5_GENERATORS)
    z36 = cyclic_group(36, [1, 5])
    joint = joint_quotient(s5, cyclic_group(6, [1, 5])).group
    assert calls == []
    klein = klein_group()
    assert calls == [(1, 2), (0, 1, 2, 3)]
    for group in (s5, z36, joint, klein):
        calls.clear()
        quotient_action(group)
        assert calls == [group.gen_images] and len(calls[0]) == group.k


def oracle_beam_assign(r1: FkAction, r2: FkAction, beam_width: int):
    """The beam as it was: every candidate mapping copied, all of them
    sorted, the first beam_width kept."""
    n = r1.algebra.size
    inverses = [perm_inverse(g1) for g1 in r1.gens]
    states = [(0, ())]
    for x in range(n):
        grown = []
        for score, mapping in states:
            used = set(mapping)
            for t in range(n):
                if t in used:
                    continue
                penalty = 0
                for g1, ig1, g2 in zip(r1.gens, inverses, r2.gens):
                    y = g1[x]
                    if y < x and mapping[y] != g2[t]:
                        penalty += 1
                    z = ig1[x]
                    if z < x and g2[mapping[z]] != t:
                        penalty += 1
                grown.append((score + penalty, mapping + (t,)))
        grown.sort()
        states = grown[:beam_width]
    return states[0][1]


def oracle_bisect_beam_assign(r1: FkAction, r2: FkAction, beam_width: int):
    """The beam as it was before its states were ranked: candidates keyed
    (score, parent mapping, t, parent's free targets) and taken with
    heapq.nsmallest, free targets kept as sorted tuples.  It ranks only
    the candidates that can survive, as _beam_assign does, so it is fast
    enough for sizes the sort-everything oracle never reaches."""
    n = r1.algebra.size
    edges = list(zip(r1.gens, map(perm_inverse, r1.gens), r2.gens, map(perm_inverse, r2.gens)))
    states = [(0, (), tuple(range(n)))]
    for x in range(n):
        spare = [(ig2, g1[x]) for g1, _, _, ig2 in edges if g1[x] < x]
        spare += [(g2, ig1[x]) for _, ig1, g2, _ in edges if ig1[x] < x]
        grown = []
        unwalked = beam_width
        for score, mapping, free in states:
            worst = score + len(spare)
            spared = {}
            for keep, y in spare:
                t = keep[mapping[y]]
                spared[t] = spared.get(t, worst) - 1
            for t, p in spared.items():
                i = bisect_left(free, t)
                if i < len(free) and free[i] == t:
                    grown.append((p, mapping, t, free))
            if unwalked:
                head = free[:unwalked]
                grown += [(worst, mapping, t, free) for t in head if t not in spared]
                unwalked -= len(head)
        states = []
        for score, mapping, t, free in heapq.nsmallest(beam_width, grown):
            i = bisect_left(free, t)
            states.append((score, mapping + (t,), free[:i] + free[i + 1 :]))
    return states[0][1]


def _mostly_fixed_action(rng: random.Random, n: int, k: int) -> FkAction:
    """Generators that each move at most four atoms, some none at all."""
    gens = []
    for _ in range(k):
        gen = list(range(n))
        moved = rng.sample(range(n), rng.randint(0, 4))
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            gen[x] = y
        gens.append(tuple(gen))
    return validate_action(uniform_algebra(n), gens)


def test_beam_matches_the_sort_everything_oracle():
    rng = random.Random(909)
    for _ in range(150):
        n = rng.randint(1, 9)
        k = rng.randint(1, 3)
        r1 = random_equal_atom_action(rng, n, k)
        if rng.random() < 0.5:
            r2 = random_equal_atom_action(rng, n, k)
        else:
            r2 = relabeled_action(r1, random_permutation(rng, n))
        for beam_width in (1, 2, 16, n + 1):
            assert _beam_assign(r1, r2, beam_width) == oracle_beam_assign(r1, r2, beam_width)
    for n in sorted(MISMATCH_BEAM):
        a1, a2 = cycle_mismatch_pair(random.Random(n), n)
        for beam_width in (1, 2, 16):
            assert _beam_assign(a1, a2, beam_width) == oracle_beam_assign(a1, a2, beam_width)
    # from n = 10 on, a width-16 beam ranks only some of a state's targets;
    # over mostly fixed points nearly every target ties, so the survivors'
    # unspared targets come from more than one state
    rng = random.Random(910)
    for case in range(24):
        n = rng.randint(10, 40)
        k = rng.randint(1, 3)
        kind = case % 4
        if kind == 0:
            r1, r2 = (random_equal_atom_action(rng, n, k) for _ in range(2))
        elif kind == 1:
            r1 = random_equal_atom_action(rng, n, k)
            r2 = relabeled_action(r1, random_permutation(rng, n))
        elif kind == 2:
            r1, r2 = (_mostly_fixed_action(rng, n, k) for _ in range(2))
        else:
            r1 = validate_action(uniform_algebra(n), [tuple(range(n))] * k)
            r2 = _mostly_fixed_action(rng, n, k)
        for beam_width in (1, 2, 16, n + 1):
            assert _beam_assign(r1, r2, beam_width) == oracle_beam_assign(r1, r2, beam_width)
            assert _beam_assign(r2, r1, beam_width) == oracle_beam_assign(r2, r1, beam_width)


def test_beam_matches_the_bisect_oracle_at_larger_sizes():
    """n from 64 to 256, where the ranks, the bitmask walk and the new
    sort decide among many states with shared prefixes."""

    def agree(r1, r2, widths=(1, 2, 16)):
        for beam_width in widths:
            for a, b in ((r1, r2), (r2, r1)):
                assert _beam_assign(a, b, beam_width) == oracle_bisect_beam_assign(a, b, beam_width)

    rng = random.Random(2929)
    for case in range(24):
        n = rng.randint(64, 256)
        k = rng.randint(1, 3)
        kind = case % 3
        if kind == 0:
            r1, r2 = (random_equal_atom_action(rng, n, k) for _ in range(2))
        elif kind == 1:
            r1 = random_equal_atom_action(rng, n, k)
            r2 = relabeled_action(r1, random_permutation(rng, n))
        else:
            r1, r2 = (_mostly_fixed_action(rng, n, k) for _ in range(2))
        agree(r1, r2)
    agree(*cycle_mismatch_pair(random.Random(96), 96))
    # edges: no generators, one atom, a beam wider than the algebra
    for n in (1, 2, 5, 70):
        alg = uniform_algebra(n)
        agree(FkAction(alg, ()), FkAction(alg, ()), (1, 2, n, n + 1, 16))
    one = validate_action(uniform_algebra(1), [(0,), (0,)])
    agree(one, one, (1, 16))
    r1, r2 = (random_equal_atom_action(rng, 6, 2) for _ in range(2))
    agree(r1, r2, (7, 40))


# ------------------------------------------------------- unit refinement caps


def test_match_partitions_refinement_cap():
    """Two moving atoms of mass (2^15 - 1)/2^16 split into fragments of
    1/2^16; the fixed atoms are kept whole and set the total."""
    m = F(MAX_REFINED_ATOMS // 2 - 1, MAX_REFINED_ATOMS)
    unit = F(1, MAX_REFINED_ATOMS)
    at_cap = validate_algebra([m, m, unit, unit])
    a = EventTuple.of_members(at_cap, [[0]])
    b = EventTuple.of_members(at_cap, [[1]])
    matching = match_partitions(a, b)
    assert matching.refined.size == MAX_REFINED_ATOMS
    assert matching.dp == 2 * m
    # one fixed atom more: one atom past the cap, refused before any split
    past = validate_algebra([m, m, unit, unit / 2, unit / 2])
    assert 2 * (m / unit) + 3 == MAX_REFINED_ATOMS + 1
    with pytest.raises(InstanceTooLarge):
        match_partitions(
            EventTuple.of_members(past, [[0]]), EventTuple.of_members(past, [[1]])
        )


def test_eppa_and_conjugacy_refinement_caps():
    at_cap = validate_algebra([F(1, MAX_REFINED_ATOMS), F(MAX_REFINED_ATOMS - 1, MAX_REFINED_ATOMS)])
    assert eppa_extend(at_cap, []).action.algebra.size == MAX_REFINED_ATOMS
    past = validate_algebra(
        [F(1, MAX_REFINED_ATOMS + 1), F(MAX_REFINED_ATOMS, MAX_REFINED_ATOMS + 1)]
    )
    with pytest.raises(InstanceTooLarge):
        eppa_extend(past, [])
    # 2 base units: depths 1..255 sum to 65280 atoms, inside the cap, and the
    # identity conjugates to itself at depth 1; depths 1..256 sum to 65792
    # atoms and are refused before any search
    assert 255 * 256 <= MAX_REFINED_ATOMS < 256 * 257
    identity = validate_action(uniform_algebra(2), [(0, 1)])
    cert = approx_conjugacy_search(identity, identity, max_refine=255)
    assert cert.eps == 0 and cert.iso.source.size == 2
    with pytest.raises(InstanceTooLarge):
        approx_conjugacy_search(identity, identity, max_refine=256)


def test_eppa_generator_entries_are_capped(monkeypatch):
    """eppa_extend builds one generator of den entries per partial: two
    partials on the largest unit refinement reach the cap exactly, and a
    third is refused before the overalgebra or any generator is built."""
    assert 2 * MAX_REFINED_ATOMS == MAX_GENERATOR_ENTRIES
    at_cap = validate_algebra([F(1, MAX_REFINED_ATOMS), F(MAX_REFINED_ATOMS - 1, MAX_REFINED_ATOMS)])
    empty = PartialIsomorphism.of(at_cap, at_cap, [])
    ext = eppa_extend(at_cap, [empty, empty])
    assert len(ext.action.gens) * ext.action.algebra.size == MAX_GENERATOR_ENTRIES

    def unbuilt(*args):
        raise AssertionError("the overalgebra was built")

    monkeypatch.setattr(constructions, "refine_to_unit", unbuilt)
    with pytest.raises(InstanceTooLarge, match=f"{MAX_GENERATOR_ENTRIES + MAX_REFINED_ATOMS} entries"):
        eppa_extend(at_cap, [empty] * 3)


def test_profinite_tensor_embedding_is_capped():
    """Z/1024 rotating 1024 atoms beside f fixed atoms has f + 1 orbit
    components, so its target has 1024 * (f + 1) atoms: exactly the cap at
    f = 63, and refused before the product is built at f = 64."""
    assert 1024 * 64 == MAX_REFINED_ATOMS

    def rotation_beside(fixed: int) -> FkAction:
        n = 1024 + fixed
        rotation = [(x + 1) % 1024 for x in range(1024)] + list(range(1024, n))
        return validate_action(uniform_algebra(n), [rotation])

    assert embed_into_profinite_tensor(rotation_beside(63)).target.algebra.size == MAX_REFINED_ATOMS
    with pytest.raises(InstanceTooLarge):
        embed_into_profinite_tensor(rotation_beside(64))


def test_conjugacy_beams_are_capped_by_their_summed_steps(monkeypatch):
    """A beam over n atoms takes BEAM_WIDTH * n^2 steps; before each beam the
    steps summed over the beams run so far must stay within MAX_BEAM_STEPS."""
    _check_beam_steps(MAX_BEAM_STEPS)
    with pytest.raises(InstanceTooLarge):
        _check_beam_steps(MAX_BEAM_STEPS + 1)
    # the swap beside the identity against two identities is never conjugate
    # and has two generators, so every depth runs a beam: 2 atoms at depth 1
    # and 4 at depth 2, BEAM_WIDTH * (4 + 16) steps; one more unit of width
    # passes the cap on the sum, not on depth 2 alone
    swap = validate_action(uniform_algebra(2), [(1, 0), (0, 1)])
    identity = validate_action(uniform_algebra(2), [(0, 1), (0, 1)])
    width = MAX_BEAM_STEPS // 20
    assert 20 * width <= MAX_BEAM_STEPS < 20 * (width + 1)
    assert 16 * (width + 1) <= MAX_BEAM_STEPS
    with monkeypatch.context() as patched:
        patched.setattr(constructions, "BEAM_WIDTH", width)
        cert = approx_conjugacy_search(swap, identity, max_refine=2)
        assert cert.exhausted
        patched.setattr(constructions, "BEAM_WIDTH", width + 1)
        with pytest.raises(InstanceTooLarge):
            approx_conjugacy_search(swap, identity, max_refine=2)

    # with the width 16, depths 1..D sum to 16 * sum (2d)^2 steps:
    # depth 57 still runs, depth 58 is refused, inside the atom cap's 255
    # (for these two generators; one generator groups cycle types first)
    def summed(depths: int) -> int:
        return sum(BEAM_WIDTH * (2 * d) ** 2 for d in range(1, depths + 1))

    assert summed(57) <= MAX_BEAM_STEPS < summed(58)


def test_the_exact_conjugacy_phase_is_capped_by_its_steps(monkeypatch):
    """The exact phase takes k * n^2 steps over n atoms, checked before it
    runs: 32 for two generators on 4 atoms.  A 4-cycle is conjugated from
    its cycle type and 4 atoms with no generator take no counted step, so
    both are answered even under a cap of 0."""
    _check_exact_steps(MAX_EXACT_STEPS)
    with pytest.raises(InstanceTooLarge):
        _check_exact_steps(MAX_EXACT_STEPS + 1)
    alg = uniform_algebra(4)
    cycle = validate_action(alg, [(1, 2, 3, 0)])
    free = validate_action(alg, [])
    pair = validate_action(alg, [(1, 2, 3, 0), (1, 0, 3, 2)])
    monkeypatch.setattr(limits, "MAX_EXACT_STEPS", 32)
    assert approx_conjugacy_search(pair, pair).eps == 0
    monkeypatch.setattr(limits, "MAX_EXACT_STEPS", 31)
    with pytest.raises(InstanceTooLarge, match="of 32 steps exceeds the cap 31 steps"):
        approx_conjugacy_search(pair, pair)
    monkeypatch.setattr(limits, "MAX_EXACT_STEPS", 0)
    for act in (cycle, free):
        assert approx_conjugacy_search(act, act).eps == 0


def test_conjugacy_search_without_a_beam_or_a_depth_is_a_validation_error():
    """The beam's width is the constant BEAM_WIDTH, so only a depth below 1
    is refused."""
    act = quotient_action(cyclic_group(2, [1]))
    for max_refine in (0, -2):
        with pytest.raises(ValidationError) as err:
            approx_conjugacy_search(act, act, max_refine=max_refine)
        assert str(err.value) == f"max_refine must be >= 1, got {max_refine}"


def test_conjugacy_search_takes_two_actions_and_a_depth():
    """No width parameter: the beam keeps BEAM_WIDTH states, 16."""
    params = inspect.signature(approx_conjugacy_search).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("act1", inspect.Parameter.empty), ("act2", inspect.Parameter.empty), ("max_refine", 1)
    ]
    assert BEAM_WIDTH == 16


# ------------------------------------------------- actions built unchecked


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_every_action_the_library_builds_passes_the_outside_check(rng):
    """The builders make their actions without validate_action, from parts
    that are mass-preserving permutations by construction; the check they
    skip is kept here as the oracle, on every kind of action they build."""
    alg = random_algebra(rng, max_atoms=5, max_den=12)
    k = rng.randint(0, 2)
    act = validate_action(alg, [random_mass_preserving_perm(rng, alg) for _ in range(k)])
    built = [
        product_action(act, random_algebra(rng, max_atoms=3, max_den=6))[0],
        refine_action_to_unit(act, F(1, alg.den * rng.randint(1, 3)))[0],
        eppa_extend(alg, [random_partial_automorphism(rng, alg) for _ in range(k)]).action,
    ]
    n = rng.randint(1, 12)
    images = [1] + [rng.randrange(n) for _ in range(k)]
    rng.shuffle(images)
    built.append(quotient_action(cyclic_group(n, images)))
    m, k1 = rng.randint(1, 5), rng.randint(1, 2)
    equal = random_equal_atom_action(rng, m, k1)
    built += [
        quotient_action(permutation_marked_group(equal.gens)[0]),
        ergodize(equal, AtomPartition.of(equal.algebra, [range(equal.algebra.size)])).action,
        embed_into_profinite_tensor(equal).target,
        embed_transitive_into_quotient(random_transitive_small_action(rng, m, k1)).target,
    ]
    pair = []
    for _ in range(2):
        small = random_algebra(rng, max_atoms=4, max_den=6)
        pair.append(validate_action(
            small, [random_mass_preserving_perm(rng, small) for _ in range(k)]
        ))
    cert = approx_conjugacy_search(*pair, max_refine=rng.randint(1, 2))
    built += [cert.act1_refined, cert.act2_refined]
    for b in built:
        assert validate_action(b.algebra, b.gens) == b


# ------------------------------------------- correspondences built unchecked


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_every_correspondence_the_library_builds_passes_the_outside_check(rng):
    """eppa_extend, the embeddings and the conjugacy search make their
    correspondences without .of, from blocks that are disjoint and of equal
    mass, or bijections between algebras of one unit, by construction; the
    check they skip is kept here as the oracle."""
    alg = random_algebra(rng, max_atoms=5, max_den=12)
    k = rng.randint(0, 2)
    partials = [random_partial_automorphism(rng, alg) for _ in range(k)]
    m, k1 = rng.randint(1, 5), rng.randint(1, 2)
    built = [
        eppa_extend(alg, partials).embedding,
        embed_into_profinite_tensor(random_equal_atom_action(rng, m, k1)).sigma,
        embed_into_profinite_tensor(random_small_order_action(rng, m, k1)).sigma,
        embed_transitive_into_quotient(random_transitive_small_action(rng, m, k1)).sigma,
    ]
    for p in built:
        assert PartialIsomorphism.of(p.source, p.target, p.pairs) == p
    act = validate_action(alg, [random_mass_preserving_perm(rng, alg) for _ in range(k)])
    other = random_algebra(rng, max_atoms=4, max_den=6)
    pairs = [
        (act, relabeled_action(act, random_mass_preserving_perm(rng, alg))),
        (act, validate_action(other, [random_mass_preserving_perm(rng, other) for _ in range(k)])),
    ]
    for act1, act2 in pairs:
        iso = approx_conjugacy_search(act1, act2, max_refine=rng.randint(1, 2)).iso
        assert Isomorphism.of(iso.source, iso.target, iso.mapping) == iso
