"""Closure-condition audits: pushforward/independence reports, witness
searches on refinements, residual bounds, and the extension-imitation
check."""
from __future__ import annotations

import itertools
import random
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _sign_map,
    joint_distribution,
    lift_tuple,
    validate_algebra,
)
from pmplab.action import (
    FkAction,
    Word,
    apply_gen_tuple,
    apply_word,
    product_action,
    validate_action,
)
import pmplab.algebra as algebra
import pmplab.audit as audit
from pmplab.audit import (
    _c2_prepare,
    _check_embedding,
    _ec_prepare,
    _mass_spans,
    _pullback_seed,
    _refine_search,
    _search_best,
    axiom_residual,
    c2_distance,
    check_C1,
    ec_in_extension_check,
    search_C2_witness,
)
from pmplab.constructions import (
    PartialIsomorphism,
    cyclic_group,
    quotient_action,
)
from pmplab.errors import (
    EmbeddingNotEquivariant,
    InstanceTooLarge,
    NonpositiveEps,
    ValidationError,
    WrongTupleCount,
)
from pmplab.limits import EXHAUSTIVE_TUPLE_CAP, GREEDY_ROUNDS, MAX_REFINED_ATOMS
from pmplab.modeltheory import joint_tv_distance

from conftest import random_tuple, uniform_algebra

F = Fraction


def z2_two_gens():
    return quotient_action(cyclic_group(2, [1, 1]))


def whole(alg):
    return EventTuple.of_members(alg, [list(range(alg.size))])


def test_check_c1_whole_space_instance():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [])
    report = check_C1(act, a, [whole(alg), whole(alg), whole(alg)], F(1, 1000))
    assert report.xi == (F(0), F(0))
    assert report.psi == (F(0), F(0), F(0))
    assert report.satisfied


def test_check_c1_orbit_instance_is_exact():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    b0 = EventTuple.of_members(alg, [[0]])
    b1 = EventTuple.of_members(alg, [[1]])
    report = check_C1(act, a, [b0, b1, b1], F(1, 2))
    assert report.xi == (F(0), F(0))
    assert report.psi == (F(0), F(0), F(0))
    assert report.satisfied


def test_check_c1_errors():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    b = EventTuple.of_members(alg, [[0]])
    with pytest.raises(WrongTupleCount):
        check_C1(act, a, [b, b], F(1, 2))
    with pytest.raises(NonpositiveEps):
        check_C1(act, a, [b, b, b], F(0))


def test_check_c1_satisfaction_is_strict():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    a = EventTuple.of_members(alg4, [[0]])
    bs = [
        EventTuple.of_members(alg4, [[0, 1]]),
        EventTuple.of_members(alg4, [[0]]),
        EventTuple.of_members(alg4, [[3]]),
    ]
    report = check_C1(act, a, bs, F(1, 100))
    assert report.xi == (F(1, 4), F(1, 4))
    assert report.psi == (F(1, 3), F(1, 3), F(1, 3))
    assert not report.satisfied
    at_max = check_C1(act, a, bs, F(1, 3))
    assert not at_max.satisfied
    above = check_C1(act, a, bs, F(1, 2))
    assert above.satisfied


def test_check_c1_max_metric_variant():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    a = EventTuple.of_members(alg4, [[0]])
    bs = [
        EventTuple.of_members(alg4, [[0, 1]]),
        EventTuple.of_members(alg4, [[0]]),
        EventTuple.of_members(alg4, [[3]]),
    ]
    tv_report = check_C1(act, a, bs, F(1, 100))
    max_report = check_C1(act, a, bs, F(1, 100), metric="max")
    for lo, hi in zip(max_report.xi, tv_report.xi):
        assert lo <= hi
    assert max_report.psi == tv_report.psi
    with pytest.raises(ValueError):
        check_C1(act, a, bs, F(1, 100), metric="euclid")


def test_check_c1_invariant_under_commuting_relabeling():
    act = quotient_action(cyclic_group(4, [1, 3]))
    alg = act.algebra
    group = cyclic_group(4, [1])
    shift = tuple(group.mul[x][2] for x in range(4))

    def moved(t):
        return EventTuple.of_members(
            alg, [sorted(shift[x] for x in e.members) for e in t.events]
        )

    rng = random.Random(17)
    for _ in range(10):
        a = random_tuple(rng, alg, arity=1)
        bs = [random_tuple(rng, alg, arity=1) for _ in range(3)]
        r1 = check_C1(act, a, bs, F(1, 7))
        r2 = check_C1(act, moved(a), [moved(b) for b in bs], F(1, 7))
        assert r1 == r2


def test_search_c2_orbit_instance_finds_zero():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    b0 = EventTuple.of_members(alg, [[0]])
    b1 = EventTuple.of_members(alg, [[1]])
    res = search_C2_witness(act, a, [b0, b1, b1], F(1, 10))
    assert res.found
    assert res.witness.distance == 0
    assert res.witness.refinement_depth == 1
    assert [e.members for e in res.witness.c.events] == [(0,)]


def test_search_c2_whole_space_instance():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [])
    res = search_C2_witness(act, a, [whole(alg)] * 3, F(1, 4))
    assert res.found
    assert res.witness.distance == 0
    assert [e.members for e in res.witness.c.events] == [(0, 1)]


def test_search_c2_adversarial_regression():
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    a = EventTuple.of_members(alg4, [[0]])
    bs = [
        EventTuple.of_members(alg4, [[0, 1]]),
        EventTuple.of_members(alg4, [[0]]),
        EventTuple.of_members(alg4, [[3]]),
    ]
    res = search_C2_witness(act, a, bs, F(1, 100), max_refine=2)
    assert not res.found
    assert res.witness.distance == F(1, 4)
    assert res.witness.refinement_depth == 1
    assert [e.members for e in res.witness.c.events] == [(1,)]


def test_search_c2_witness_distance_is_recomputable():
    rng = random.Random(83)
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (1, 2, 3, 0)])
    for _ in range(10):
        a = random_tuple(rng, alg4, arity=1)
        bs = [random_tuple(rng, alg4, arity=1) for _ in range(3)]
        res = search_C2_witness(act, a, bs, F(1, 9), max_refine=2)
        w = res.witness
        refined, projection = product_action(act, uniform_algebra(w.refinement_depth))
        a_lift = lift_tuple(a, refined.algebra, projection)
        c = EventTuple.of_members(refined.algebra, [e.members for e in w.c.events])
        bcat = bs[0]
        for b in bs[1:]:
            bcat = bcat.concat(b)
        ccat = c
        for i in range(1, act.k + 1):
            ccat = ccat.concat(apply_gen_tuple(refined, i, c))
        recomputed = joint_tv_distance(
            joint_distribution(a, bcat), joint_distribution(a_lift, ccat)
        )
        assert recomputed == w.distance
        assert res.found == (w.distance < 2 * F(1, 9) or w.distance == 0)


def test_axiom_residual_examples():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    b0 = EventTuple.of_members(alg, [[0]])
    b1 = EventTuple.of_members(alg, [[1]])
    assert axiom_residual(act, a, [b0, b1, b1]) == 0

    empty = EventTuple.of_members(alg, [])
    assert axiom_residual(act, empty, [whole(alg)] * 3) == 0

    saturating = [whole(alg), b1, b1]
    report = check_C1(act, a, saturating, F(1, 2))
    assert max(report.xi + report.psi) >= F(1, 2)
    assert axiom_residual(act, a, saturating) == 0


def test_axiom_residual_monotone_in_depth():
    rng = random.Random(89)
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    for _ in range(8):
        a = random_tuple(rng, alg4, arity=1)
        bs = [random_tuple(rng, alg4, arity=1) for _ in range(3)]
        shallow = axiom_residual(act, a, bs, max_refine=1)
        deep = axiom_residual(act, a, bs, max_refine=2)
        assert deep <= shallow


def test_ec_self_extension_is_exact():
    act = quotient_action(cyclic_group(3, [1]))
    alg = act.algebra
    embed = PartialIsomorphism.of(alg, alg, [([i], [i]) for i in range(3)])
    anchors = EventTuple.of_members(alg, [[0]])
    bs = EventTuple.of_members(alg, [[1, 2]])
    words = [Word.of([]), Word.of([1])]
    res = ec_in_extension_check(act, act, embed, anchors, bs, words, F(1, 5))
    assert res.found
    assert res.witness.discrepancy == 0
    overlapping = EventTuple.of_members(alg, [[0, 1]])
    res2 = ec_in_extension_check(act, act, embed, anchors, overlapping, words, F(1, 5))
    assert res2.found
    assert res2.witness.discrepancy == 0


def test_ec_tensor_extension_regression():
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3])]
    )
    anchors = EventTuple.of_members(small.algebra, [[0]])
    bs = EventTuple.of_members(big.algebra, [[0, 2]])
    words = [Word.of([]), Word.of([1])]
    shallow = ec_in_extension_check(
        small, big, embed, anchors, bs, words, F(1, 4), max_refine=1
    )
    assert not shallow.found
    assert shallow.witness.discrepancy == F(1, 4)
    deep = ec_in_extension_check(
        small, big, embed, anchors, bs, words, F(1, 4), max_refine=2
    )
    assert deep.found
    assert deep.witness.discrepancy == 0
    assert deep.witness.refinement_depth == 2
    assert [e.members for e in deep.witness.cs.events] == [(0, 2)]


def test_tuple_candidates_lexicographic_in_bitmasks():
    assert list(_tuple_candidates(2, 1)) == [((),), ((0,),), ((1,),), ((0, 1),)]
    pairs = list(_tuple_candidates(2, 2))
    assert len(pairs) == 16
    assert pairs[:5] == [((), ()), ((), (0,)), ((), (1,)), ((), (0, 1)), ((0,), ())]
    # arity 0 has the one empty tuple and never lists the 2**size events
    assert list(_tuple_candidates(200, 0)) == [()]


def test_searches_visit_expected_depths(monkeypatch):
    """Each audit stops at the first depth whose best value passes its own
    test: strictly below 2*eps or at most the floor over every extension
    (C2), below eps (EC), at most 2*worst (residual)."""
    visited = []

    def recording(act, fiber):
        visited.append(fiber.size)
        return product_action(act, fiber)

    monkeypatch.setattr(audit, "product_action", recording)

    act = z2_two_gens()
    alg = act.algebra
    b1 = EventTuple.of_members(alg, [[1]])
    search_C2_witness(
        act,
        EventTuple.of_members(alg, [[0]]),
        [EventTuple.of_members(alg, [[0]]), b1, b1],
        F(1, 10),
        max_refine=2,
    )
    assert visited == [1]

    # against the swap of two halves, b0 = {0} and b1 = {} weigh 1/2 and 0:
    # every candidate in every extension is at least 1/4 away; depth 1 gets
    # 1/2 and depth 2 reaches 1/4
    visited.clear()
    swap = quotient_action(cyclic_group(2, [1]))
    empty = EventTuple.of_members(swap.algebra, [])
    halves = [
        EventTuple.of_members(swap.algebra, [[0]]),
        EventTuple.of_members(swap.algebra, [[]]),
    ]
    res = search_C2_witness(swap, empty, halves, F(1, 100), max_refine=4)
    assert visited == [1, 2]
    assert (res.lower_bound, res.refuted, res.found) == (F(1, 4), True, False)
    assert (res.witness.distance, res.witness.refinement_depth) == (F(1, 4), 2)

    visited.clear()
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3])]
    )
    ec_in_extension_check(
        small,
        big,
        embed,
        EventTuple.of_members(small.algebra, [[0]]),
        EventTuple.of_members(big.algebra, [[0, 2]]),
        [Word.of([]), Word.of([1])],
        F(1, 4),
        max_refine=2,
    )
    assert visited == [1, 2]

    # worst = 1/4 and the best depth-1 distance is exactly 1/2 = 2*worst,
    # so the residual's non-strict test stops after depth 1.
    visited.clear()
    alg4 = uniform_algebra(4)
    act4 = validate_action(alg4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    b3 = EventTuple.of_members(alg4, [[3]])
    residual = axiom_residual(
        act4,
        EventTuple.of_members(alg4, [[]]),
        [EventTuple.of_members(alg4, [[0, 3]]), b3, b3],
        max_refine=2,
    )
    assert visited == [1]
    assert residual == 0


def test_audit_depths_are_capped_by_their_summed_atoms(monkeypatch):
    """Depths 1..M of a 2-atom action refine to 2*M*(M+1)/2 atoms in all:
    65280 for M = 255, inside MAX_REFINED_ATOMS, and 65792 for M = 256,
    which every audit refuses before refining anything."""
    assert 255 * 256 <= MAX_REFINED_ATOMS < 256 * 257
    visited = []

    def recording(act, fiber):
        visited.append(fiber.size)
        return product_action(act, fiber)

    monkeypatch.setattr(audit, "product_action", recording)
    act = quotient_action(cyclic_group(2, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    # c and g(c) always weigh the same, b0 and b1 do not: no depth stops early
    bs = [EventTuple.of_members(alg, [[0]]), EventTuple.of_members(alg, [[0, 1]])]
    res = search_C2_witness(act, a, bs, F(1, 10**6), max_refine=255)
    assert not res.found
    assert visited == list(range(1, 256))

    visited.clear()
    big = product_action(act, validate_algebra([F(1, 2), F(1, 2)]))[0]
    embed = PartialIsomorphism.of(alg, big.algebra, [([0], [0, 1]), ([1], [2, 3])])
    past = [
        lambda: search_C2_witness(act, a, bs, F(1, 10**6), max_refine=256),
        lambda: axiom_residual(act, a, bs, max_refine=256),
        lambda: ec_in_extension_check(
            act, big, embed, a, EventTuple.of_members(big.algebra, [[0, 2]]),
            [Word.of([])], F(1, 4), max_refine=256,
        ),
    ]
    for audit_call in past:
        with pytest.raises(InstanceTooLarge):
            audit_call()
    assert visited == []


def test_ec_rejects_bad_embeddings_and_eps():
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    anchors = EventTuple.of_members(small.algebra, [[0]])
    bs = EventTuple.of_members(big.algebra, [[0]])
    words = [Word.of([])]
    skew = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 2]), ([1], [1, 3])]
    )
    with pytest.raises(EmbeddingNotEquivariant):
        ec_in_extension_check(small, big, skew, anchors, bs, words, F(1, 4))
    good = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3])]
    )
    with pytest.raises(NonpositiveEps):
        ec_in_extension_check(small, big, good, anchors, bs, words, F(0))


# ---------------------------------------------------------------------------
# the flip-based search against the Fraction oracle
#
# The oracle is the search that rebuilds every candidate: each one becomes a
# member tuple, then an EventTuple, and is scored as a Fraction by the public
# definitions (c2_distance, the triple pattern).


def _tuple_candidates(size, arity):
    """All event tuples over `size` atoms in lexicographic bitmask order."""
    if arity == 0:
        return iter(((),))
    events = [()]
    for j in range(size):  # events[mask | 1 << j] == events[mask] + (j,)
        events += [e + (j,) for e in events]
    return itertools.product(events, repeat=arity)


def oracle_greedy_descent(size, arity, seed, evaluate):
    """Steepest descent toggling one atom of one coordinate at a time,
    toggles scanned lexicographically, strict improvement required."""
    current = tuple(tuple(sorted(e)) for e in seed)
    value = evaluate(current)
    for _ in range(GREEDY_ROUNDS):
        improved = None
        for coord in range(arity):
            members = set(current[coord])
            for atom in range(size):
                flipped = tuple(sorted(members ^ {atom}))
                candidate = current[:coord] + (flipped,) + current[coord + 1 :]
                v = evaluate(candidate)
                if v < value and (improved is None or v < improved[0]):
                    improved = (v, candidate)
        if improved is None:
            break
        value, current = improved
    return value, current


def oracle_search_best(size, arity, seed, evaluate, stop_below):
    if (1 << size) ** arity <= EXHAUSTIVE_TUPLE_CAP:
        best_val = best_members = None
        for members in _tuple_candidates(size, arity):
            v = evaluate(members)
            if best_val is None or v < best_val:
                best_val, best_members = v, members
                if v < stop_below or v == 0:
                    break
        return best_val, best_members
    return oracle_greedy_descent(size, arity, seed, evaluate)


def oracle_refine_search(act, arity, max_refine, stop_below, prepare):
    """The (value, members, depth) sequence of _refine_search, from a prepare
    that returns (evaluate, seed)."""
    best = None
    for depth in range(1, max_refine + 1):
        refined, projection = product_action(act, uniform_algebra(depth))
        evaluate, seed = prepare(refined, projection)
        val, members = oracle_search_best(
            refined.algebra.size, arity, seed, evaluate, stop_below
        )
        if best is None or val < best[0]:
            best = (val, members, depth)
        yield best


def oracle_c2_prepare(a, tuples):
    """The obviously correct scorer: rebuild each candidate as an EventTuple
    and score it with the public Fraction definition c2_distance."""
    bcat = tuples[0]
    for b in tuples[1:]:
        bcat = bcat.concat(b)
    target = joint_distribution(a, bcat)

    def prepare(refined, projection):
        a_lift = lift_tuple(a, refined.algebra, projection)
        b0_lift = lift_tuple(tuples[0], refined.algebra, projection)

        def evaluate(members):
            c = EventTuple.of_members(refined.algebra, members)
            return c2_distance(refined, a_lift, target, c)

        return evaluate, tuple(e.members for e in b0_lift.events)

    return prepare


def _triple_pattern(
    alg: MeasuredAlgebra,
    act: FkAction,
    anchors: EventTuple,
    fibers: EventTuple,
    words: Sequence[Word],
) -> dict[tuple[int, int, int, int], Fraction]:
    """All triple intersection masses mu(a_i & c_j & w_l(c_k))."""
    moved = [
        [apply_word(act, w, e) for e in fibers.events] for w in words
    ]
    out: dict[tuple[int, int, int, int], Fraction] = {}
    for i, a_e in enumerate(anchors.events):
        a_set = set(a_e.members)
        for j, c_e in enumerate(fibers.events):
            base = a_set & set(c_e.members)
            for l, row in enumerate(moved):
                for k2, m_e in enumerate(row):
                    out[(i, j, l, k2)] = alg.mass_of(base & set(m_e.members))
    return out


def ec_target(big, target):
    """A Fraction pattern of _triple_pattern on the big system as
    _ec_prepare takes it: (units of 1/D in key order, D), D the big
    algebra's common denominator."""
    den = big.algebra.den
    return [m.numerator * (den // m.denominator) for m in target.values()], den


def oracle_ec_prepare(anchors, bs, words, target, blocks):
    """Each candidate's whole Fraction triple pattern against the target."""

    def prepare(refined, projection):
        a_lift = lift_tuple(anchors, refined.algebra, projection)

        def evaluate(members):
            cs = EventTuple.of_members(refined.algebra, members)
            pattern = _triple_pattern(refined.algebra, refined, a_lift, cs, words)
            return max(
                (abs(pattern[key] - target[key]) for key in target), default=F(0)
            )

        return evaluate, _pullback_seed(bs, blocks, projection)

    return prepare


def c2_prepare(a, bs):
    """_c2_prepare given the mass spans, as the searches give them."""
    return _c2_prepare(a, bs, _mass_spans(bs))


def extension_floor(bs):
    return audit._extension_floor(_mass_spans(bs))


def run_search(act, arity, max_refine, stop_below, prepare):
    out = []
    for value, c, depth in _refine_search(act, arity, max_refine, stop_below, prepare):
        assert type(value) is Fraction
        out.append((value, tuple(e.members for e in c.events), depth))
    return out


def toggles_of(members, size):
    """The flat toggle indices coord * size + atom of a member tuple."""
    return [coord * size + x for coord, event in enumerate(members) for x in event]


def score_of(scorer, members, size):
    """Walk members into an all-empty scorer, read the score, walk them back
    out and check that the start score returns."""
    walk, _peek, start, scale, _seed, _floor = scorer
    toggles = toggles_of(members, size)
    value = back = start
    if toggles:
        value = walk(toggles)[-1]
        back = walk(toggles)[-1]
    assert back == start
    return Fraction(value, scale)


@st.composite
def _mixed_c2_instances(draw):
    """An action on atoms of unequal masses (classes of equal-mass atoms that
    the generators shuffle), anchor and parameters, a depth and candidates."""
    classes = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 9)), min_size=1, max_size=3
        )
    )
    total = sum(size * weight for size, weight in classes)
    masses = [F(weight, total) for size, weight in classes for _ in range(size)]
    alg = validate_algebra(masses)
    n = alg.size
    k = draw(st.integers(1, 2))
    gens = []
    for _ in range(k):
        perm, start = [], 0
        for size, _weight in classes:
            block = draw(st.permutations(range(start, start + size)))
            perm.extend(block)
            start += size
        gens.append(perm)
    act = validate_action(alg, gens)

    def tuple_of(arity, size, alg_):
        events = draw(
            st.lists(
                st.sets(st.integers(0, size - 1)), min_size=arity, max_size=arity
            )
        )
        return EventTuple.of_members(alg_, events)

    a = tuple_of(draw(st.integers(0, 2)), n, alg)
    arity = draw(st.integers(0, 2))
    bs = [tuple_of(arity, n, alg) for _ in range(k + 1)]
    depth = draw(st.integers(1, 3))
    candidates = draw(
        st.lists(
            st.lists(
                st.sets(st.integers(0, n * depth - 1)),
                min_size=arity,
                max_size=arity,
            ),
            max_size=4,
        )
    )
    return act, a, bs, depth, candidates


@given(_mixed_c2_instances())
@settings(max_examples=150, deadline=None)
def test_c2_scorer_matches_fraction_oracle(instance):
    act, a, bs, depth, candidates = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    scorer = c2_prepare(a, bs)(refined, projection)
    oracle, oracle_seed = oracle_c2_prepare(a, bs)(refined, projection)
    seed = scorer[4]
    assert seed == oracle_seed
    for members in [seed] + [tuple(tuple(sorted(e)) for e in c) for c in candidates]:
        assert score_of(scorer, members, refined.algebra.size) == oracle(members)


def _exhaustive_instance():
    # depths 1 and 2: 16 and 256 candidates over unequal masses
    alg = validate_algebra([F(1, 6), F(1, 6), F(1, 3), F(1, 3)])
    act = validate_action(alg, [(1, 0, 3, 2), (0, 1, 3, 2)])
    a = EventTuple.of_members(alg, [[0, 2]])
    bs = [
        EventTuple.of_members(alg, [[1, 2]]),
        EventTuple.of_members(alg, [[0]]),
        EventTuple.of_members(alg, [[3]]),
    ]
    return act, a, bs, 1, 2


def _greedy_instance():
    # 8 atoms, arity 2: 2**16 candidates, past the exhaustive cap
    act = quotient_action(cyclic_group(8, [1, 3]))
    alg = act.algebra
    rng = random.Random(97)
    a = random_tuple(rng, alg, arity=1)
    bs = [random_tuple(rng, alg, arity=2) for _ in range(3)]
    return act, a, bs, 2, 1


@pytest.mark.parametrize(
    "build, exhaustive",
    [(_exhaustive_instance, True), (_greedy_instance, False)],
    ids=["exhaustive", "greedy"],
)
def test_refine_search_same_with_oracle_scorer(build, exhaustive):
    act, a, bs, arity, max_refine = build()
    for depth in range(1, max_refine + 1):
        total = (1 << act.algebra.size * depth) ** arity
        assert (total <= EXHAUSTIVE_TUPLE_CAP) == exhaustive

    fast = run_search(act, arity, max_refine, F(0), c2_prepare(a, bs))
    oracle = oracle_refine_search(act, arity, max_refine, F(0), oracle_c2_prepare(a, bs))
    assert fast == list(oracle)


@st.composite
def _search_instances(draw, greedy):
    """An action on classes of equal-mass atoms, a search arity, a depth and
    a stop threshold.  With greedy, at least one depth has more candidates
    than EXHAUSTIVE_TUPLE_CAP; otherwise every depth is scanned whole, at
    most 1024 candidates each to keep the oracle quick.  Generators often
    agree on an atom: classes of one atom are fixed points, where g_i(x) is
    g_0(x) = x, and the last generator may repeat the first."""
    if greedy:
        arity = draw(st.integers(1, 2))
        n = draw(st.integers(7, 12 if arity == 1 else 9))
        max_refine = 2 if arity == 1 else draw(st.integers(1, 2))
    else:
        arity = draw(st.integers(0, 2))
        max_refine = draw(st.integers(1, 2))
        n = draw(st.integers(1, 6 if arity == 0 else 10 // (max_refine * arity)))
    act = _class_action(draw, n)
    # 0 stops only at a zero, 2 at candidate 0
    stop = draw(st.sampled_from([F(0), F(2)]) | st.fractions(0, F(1, 4), max_denominator=30))
    return act, arity, max_refine, stop


def _class_action(draw, n):
    """An action on n atoms in classes of equal mass that the generators
    shuffle."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    weights = [draw(st.integers(1, 9)) for _ in sizes]
    total = sum(size * weight for size, weight in zip(sizes, weights))
    alg = validate_algebra(
        [F(w, total) for size, w in zip(sizes, weights) for _ in range(size)]
    )
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm, start = [], 0
        for size in sizes:
            perm.extend(draw(st.permutations(range(start, start + size))))
            start += size
        gens.append(perm)
    if draw(st.booleans()):
        gens[-1] = gens[0]
    return validate_action(alg, gens)


def _draw_tuple(data, alg, arity):
    events = data.draw(
        st.lists(st.sets(st.integers(0, alg.size - 1)), min_size=arity, max_size=arity)
    )
    return EventTuple.of_members(alg, events)


@pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_refine_search_matches_oracle_c2(greedy, data):
    act, arity, max_refine, stop = data.draw(_search_instances(greedy))
    alg = act.algebra
    a = _draw_tuple(data, alg, data.draw(st.integers(0, 2)))
    b0 = _draw_tuple(data, alg, arity)
    if data.draw(st.booleans()):
        # realizable: the lifted b0 scores zero
        bs = [b0] + [apply_gen_tuple(act, i, b0) for i in range(1, act.k + 1)]
    else:
        bs = [b0] + [_draw_tuple(data, alg, arity) for _ in range(act.k)]
    expected = oracle_refine_search(act, arity, max_refine, stop, oracle_c2_prepare(a, bs))
    assert run_search(act, arity, max_refine, stop, c2_prepare(a, bs)) == list(expected)


def _draw_ec_instance(data, small, arity):
    """A tensor extension of small by 2 or 3 equal parts, its embedding and
    blocks, anchors, a target tuple of the given arity and words."""
    n = small.algebra.size
    parts = data.draw(st.integers(2, 3))
    big = product_action(small, validate_algebra([F(1, parts)] * parts))[0]
    embed = PartialIsomorphism.of(
        small.algebra,
        big.algebra,
        [([x], list(range(x * parts, (x + 1) * parts))) for x in range(n)],
    )
    blocks = _check_embedding(small, big, embed)
    anchors = _draw_tuple(data, small.algebra, data.draw(st.integers(1, 2)))
    if data.draw(st.integers(0, 2)) == 0:
        # an image of the small system: some candidate matches it exactly
        bs = embed.map_tuple(_draw_tuple(data, small.algebra, arity))
    else:
        bs = _draw_tuple(data, big.algebra, arity)
    letters = st.integers(1, small.k).flatmap(lambda g: st.sampled_from([g, -g]))
    words = [
        Word.of(w)
        for w in data.draw(st.lists(st.lists(letters, max_size=2), min_size=1, max_size=2))
    ]
    return big, embed, blocks, anchors, bs, words


@pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_refine_search_matches_oracle_ec(greedy, data):
    small, arity, max_refine, stop = data.draw(_search_instances(greedy))
    big, embed, blocks, anchors, bs, words = _draw_ec_instance(data, small, arity)
    target = _triple_pattern(big.algebra, big, embed.map_tuple(anchors), bs, words)
    expected = oracle_refine_search(
        small, arity, max_refine, stop,
        oracle_ec_prepare(anchors, bs, words, target, blocks),
    )
    fast = run_search(
        small, arity, max_refine, stop,
        _ec_prepare(anchors, bs, words, *ec_target(big, target), blocks),
    )
    assert fast == list(expected)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ec_check_matches_the_fraction_oracle(data):
    """The whole check, its integer target included, against the search
    over the Fraction pattern of _triple_pattern, stopped at the first depth
    whose best is below eps."""
    small, arity, max_refine, _stop = data.draw(_search_instances(False))
    big, embed, blocks, anchors, bs, words = _draw_ec_instance(data, small, arity)
    eps = data.draw(st.fractions(F(1, 60), F(1, 4), max_denominator=60))
    target = _triple_pattern(big.algebra, big, embed.map_tuple(anchors), bs, words)
    for value, members, depth in oracle_refine_search(
        small, arity, max_refine, eps, oracle_ec_prepare(anchors, bs, words, target, blocks)
    ):
        if value < eps:
            break
    res = ec_in_extension_check(small, big, embed, anchors, bs, words, eps, max_refine)
    w = res.witness
    assert (res.found, w.discrepancy, w.refinement_depth) == (value < eps, value, depth)
    assert tuple(e.members for e in w.cs.events) == members


def test_ec_scorer_matches_fraction_oracle_on_every_candidate():
    """Words whose letters do not commute: w = g1 g2 moves an event by g2
    first, then by g1."""
    small = validate_action(uniform_algebra(3), [(1, 0, 2), (0, 2, 1)])
    big = product_action(small, validate_algebra([F(1, 3), F(2, 3)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([x], [2 * x, 2 * x + 1]) for x in range(3)]
    )
    blocks = _check_embedding(small, big, embed)
    anchors = EventTuple.of_members(small.algebra, [[0], [0, 1]])
    bs = EventTuple.of_members(big.algebra, [[0, 3, 5]])
    words = [Word.of([1, 2]), Word.of([-2, 1])]
    target = _triple_pattern(big.algebra, big, embed.map_tuple(anchors), bs, words)
    for depth in (1, 2):
        refined, projection = product_action(small, uniform_algebra(depth))
        scorer = _ec_prepare(anchors, bs, words, *ec_target(big, target), blocks)(
            refined, projection
        )
        oracle, seed = oracle_ec_prepare(anchors, bs, words, target, blocks)(
            refined, projection
        )
        assert scorer[4] == seed
        for members in _tuple_candidates(refined.algebra.size, 1):
            assert score_of(scorer, members, refined.algebra.size) == oracle(members)


def flip_scorer(flip, size, start, scale, seed, floor):
    """A scorer from flip(coord, atom): walk flips each toggle in turn, and
    peek flips and flips back."""

    def walk(indices):
        return [flip(*divmod(b, size)) for b in indices]

    def peek(b):
        value = flip(*divmod(b, size))
        flip(*divmod(b, size))
        return value

    return walk, peek, start, scale, seed, floor


def test_counter_walk_visits_candidates_in_lexicographic_order():
    """A score that falls along the lexicographic order makes the scan stop
    at candidate m exactly when the stop is just above its score, and only
    if candidates 0..m-1 were scored before it."""
    for size, arity in [(2, 1), (2, 2), (3, 2), (1, 3), (4, 0)]:
        order = list(_tuple_candidates(size, arity))
        rank = {members: i for i, members in enumerate(order)}
        for m, members in enumerate(order):
            state = [set() for _ in range(arity)]

            def flip(coord, atom, state=state):
                state[coord] ^= {atom}
                return -1 - rank[tuple(tuple(sorted(e)) for e in state)]

            # scores run down to -len(order), which is their floor
            scorer = flip_scorer(flip, size, -1, 1, ((),) * arity, -len(order))
            assert _search_best(size, arity, scorer, F(-m)) == (-1 - m, members)

            # a zero at candidate m ends the scan there, whatever the stop
            def flip_zero(coord, atom, state=state):
                state[coord] ^= {atom}
                return 0 if tuple(tuple(sorted(e)) for e in state) == members else 1

            state[:] = [set() for _ in range(arity)]
            start = 0 if m == 0 else 1
            scorer = flip_scorer(flip_zero, size, start, 1, ((),) * arity, 0)
            assert _search_best(size, arity, scorer, F(0)) == (0, members)
            assert tuple(tuple(sorted(e)) for e in state) == members


def full_scan_parameters(alg):
    """Parameters on Z/12 that no candidate matches and whose floor is 0: b0
    = b1 = {0}, but only the empty and the whole event equal their own push,
    so every distance is positive and an exhaustive scan runs to the end."""
    return [EventTuple.of_members(alg, [[0]]), EventTuple.of_members(alg, [[0]])]


def test_exhaustive_scan_builds_one_fraction_per_depth(monkeypatch):
    """A 4096-candidate scan that never reaches zero scores every candidate
    in integers; only the depth's result becomes a Fraction."""
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    act = quotient_action(cyclic_group(12, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [range(6)])
    bs = full_scan_parameters(alg)
    assert 1 << alg.size == EXHAUSTIVE_TUPLE_CAP
    monkeypatch.setattr(audit, "Fraction", CountingFraction)
    [(value, _c, depth)] = list(_refine_search(act, 1, 1, F(0), c2_prepare(a, bs)))
    assert value > 0 and depth == 1
    assert len(built) <= 1


def test_ec_check_builds_one_fraction_per_depth(monkeypatch):
    """The extension check computes its target and scores every candidate in
    integer units; only each depth's result becomes a Fraction.  The
    refinements' atom masses are the algebra's own and are not counted."""
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    depths = []

    def refine_uncounted(act, fiber):
        depths.append(fiber.size)
        with monkeypatch.context() as inner:
            inner.setattr(algebra, "Fraction", Fraction)
            return product_action(act, fiber)

    # the EC instance of test_full_gray_scan_flips_once_per_candidate:
    # every discrepancy is at least 1/18, so no depth stops the search
    small = quotient_action(cyclic_group(6, [1]))
    big = product_action(small, validate_algebra([F(1, 3), F(2, 3)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([x], [2 * x, 2 * x + 1]) for x in range(6)]
    )
    anchors = EventTuple.of_members(small.algebra, [[0, 1, 2]])
    target_tuple = EventTuple.of_members(big.algebra, [[0], [2, 5, 6]])
    words = [Word.of([]), Word.of([1])]
    monkeypatch.setattr(audit, "product_action", refine_uncounted)
    monkeypatch.setattr(audit, "Fraction", CountingFraction)
    monkeypatch.setattr(algebra, "Fraction", CountingFraction)
    res = ec_in_extension_check(
        small, big, embed, anchors, target_tuple, words, F(1, 18), max_refine=2
    )
    assert not res.found and depths == [1, 2]
    assert len(built) == len(depths)


# ---------------------------------------------------------------------------
# the Gray-code block scan against the binary-counter scan


def members_of(index, size, arity):
    """The member tuple of candidate `index`: coordinate 0 most significant,
    atom x at bit x of its coordinate."""
    return tuple(
        tuple(x for x in range(size) if (index >> ((arity - 1 - coord) * size + x)) & 1)
        for coord in range(arity)
    )


def oracle_counter_scan(size, arity, scorer, stop_below):
    """The exhaustive scan in lexicographic order, stepped as a binary
    counter: candidate i follows i - 1 by flipping the bits of (i - 1) ^ i,
    and the scan stops at the first strict new best that is below
    stop_below or zero."""
    walk, _peek, value, scale, _seed, _floor = scorer
    p, q = stop_below.numerator, stop_below.denominator
    limit = p * scale
    assert 1 << size * arity <= EXHAUSTIVE_TUPLE_CAP
    best, best_i = value, 0
    if value * q >= limit and value != 0:
        places = [(arity - 1 - b // size) * size + b % size for b in range(size * arity)]
        for i in range(1, 1 << size * arity):
            for b in range((i & -i).bit_length()):
                [value] = walk([places[b]])
            if value < best:
                best, best_i = value, i
                if value * q < limit or value == 0:
                    break
    return Fraction(best, scale), members_of(best_i, size, arity)


class TableScorer:
    """A scorer over a table of scores indexed by candidate: it holds the
    index of its current candidate and counts its scored steps, one per
    toggle walked and one per peek."""

    def __init__(self, size, arity, table, scale=1, floor=0):
        self.size, self.arity, self.table = size, arity, table
        self.index = self.flips = 0
        self.scorer = (self.walk, self.peek, table[0], scale, ((),) * arity, floor)

    def bit(self, b):
        coord, atom = divmod(b, self.size)
        return 1 << ((self.arity - 1 - coord) * self.size + atom)

    def walk(self, indices):
        scores = []
        for b in indices:
            self.index ^= self.bit(b)
            self.flips += 1
            scores.append(self.table[self.index])
        return scores

    def peek(self, b):
        self.flips += 1
        return self.table[self.index ^ self.bit(b)]


def compare_scans(size, arity, table, stop, scale=1, floor=0):
    """Both scans on one table give the same (value, members), the Gray-code
    scan told the table's floor and the counter scan not; after a hit both
    scorers hold the returned candidate.  Returns the result, whether it is
    a hit, and the flips of both scans."""
    fast = TableScorer(size, arity, table, scale, floor)
    slow = TableScorer(size, arity, table, scale)
    result = _search_best(size, arity, fast.scorer, stop)
    assert result == oracle_counter_scan(size, arity, slow.scorer, stop)
    value, members = result
    hit = value < stop or value == 0
    if hit:
        assert members_of(fast.index, size, arity) == members
        assert fast.index == slow.index
    return result, hit, fast.flips, slow.flips


@st.composite
def _score_tables(draw):
    """A candidate count up to EXHAUSTIVE_TUPLE_CAP, a table of non-negative
    scores over a few values (so ties and zeros are common), a scale, a stop
    (0 stops only at a zero, 2 may stop at candidate 0) and a floor at most
    the least score."""
    arity = draw(st.integers(0, 3))
    size = draw(st.integers(1, 12 // arity if arity else 3))
    count = 1 << size * arity
    top = draw(st.integers(0, 6))
    if count <= 128:
        table = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        table = [rng.randint(0, top) for _ in range(count)]
    if draw(st.booleans()):
        table[0] = draw(st.integers(0, top))
    scale = draw(st.integers(1, 4))
    stop = draw(st.sampled_from([F(0), F(2)]) | st.fractions(0, F(3, 2), max_denominator=8))
    floor = draw(st.integers(0, min(table)))
    return size, arity, table, stop, scale, floor


@given(_score_tables())
@settings(max_examples=300, deadline=None)
def test_gray_scan_matches_counter_scan_on_score_tables(instance):
    compare_scans(*instance)


def test_gray_scan_edge_cases():
    size, arity = 4, 2  # 256 candidates, 4 blocks of 64
    count = 1 << size * arity

    # no hit: the least score, its first candidate among ties
    table = [5] * count
    table[70] = table[40] = table[200] = 2
    (value, members), hit, _, _ = compare_scans(size, arity, table, F(1))
    assert (value, members, hit) == (2, members_of(40, size, arity), False)

    # a stop at candidate 0, by a zero and by the threshold
    for first, stop in [(0, F(0)), (1, F(2))]:
        table = [7] * count
        table[0] = first
        (value, members), hit, flips, _ = compare_scans(size, arity, table, stop)
        assert (value, members, hit, flips) == (first, ((), ()), True, 0)

    # zeros: the first zero wins over an earlier score below the stop
    table = [9] * count
    table[150], table[130] = 0, 1
    assert compare_scans(size, arity, table, F(2))[0] == (1, members_of(130, size, arity))
    assert compare_scans(size, arity, table, F(0))[0] == (0, members_of(150, size, arity))

    # ties among hits: the first one, whatever its score
    table = [9] * count
    table[100], table[90] = 3, 4
    assert compare_scans(size, arity, table, F(5))[0] == (4, members_of(90, size, arity))

    # two hits in one block, the one scanned later at the lower index: block
    # 0 runs 0, 1, 3, 2, ..., 32; block 1 starts at 96, keeping the low bits
    # block 0 ended on, and ends at 64
    for early, late in [(3, 2), (64 + 32, 64)]:
        table = [9] * count
        table[early], table[late] = 1, 4
        (value, members), hit, flips, _ = compare_scans(size, arity, table, F(5))
        assert (value, members) == (4, members_of(late, size, arity))
        assert flips <= (late // 64 + 1) * 64 + 6


def test_full_gray_scan_flips_once_per_candidate():
    """A full 4096-candidate scan, on a table and on the C2 and extension
    scorers, makes at most N + 2N/64 flips; the binary counter makes about
    2N."""
    count = EXHAUSTIVE_TUPLE_CAP
    bound = count + 2 * count // 64
    rng = random.Random(5)
    table = [rng.randint(1, 50) for _ in range(count)]
    _result, hit, flips, counter_flips = compare_scans(12, 1, table, F(0))
    assert not hit
    assert count - 1 <= flips <= bound < counter_flips

    def counted(scorer, tally):
        walk, peek, start, scale, seed, floor = scorer

        def counting_walk(indices):
            tally.extend(indices)
            return walk(indices)

        def counting_peek(b):
            tally.append(b)
            return peek(b)

        return counting_walk, counting_peek, start, scale, seed, floor

    # the C2 instance of test_exhaustive_scan_builds_one_fraction_per_depth
    act = quotient_action(cyclic_group(12, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [range(6)])
    bs = full_scan_parameters(alg)
    refined, projection = product_action(act, uniform_algebra(1))
    c2_flips = []
    fast = _search_best(12, 1, counted(c2_prepare(a, bs)(refined, projection), c2_flips), F(0))
    oracle = oracle_counter_scan(12, 1, c2_prepare(a, bs)(refined, projection), F(0))
    assert fast == oracle and fast[0] > 0
    assert count - 1 <= len(c2_flips) <= bound

    # pairs of events on Z/6 against a target whose first event is a third
    # of an anchor atom: every discrepancy is at least 1/18, so the scan runs
    # to the end
    small = quotient_action(cyclic_group(6, [1]))
    big = product_action(small, validate_algebra([F(1, 3), F(2, 3)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([x], [2 * x, 2 * x + 1]) for x in range(6)]
    )
    blocks = _check_embedding(small, big, embed)
    anchors = EventTuple.of_members(small.algebra, [[0, 1, 2]])
    target_tuple = EventTuple.of_members(big.algebra, [[0], [2, 5, 6]])
    words = [Word.of([]), Word.of([1])]
    target = _triple_pattern(big.algebra, big, embed.map_tuple(anchors), target_tuple, words)
    prepare = _ec_prepare(anchors, target_tuple, words, *ec_target(big, target), blocks)
    refined, projection = product_action(small, uniform_algebra(1))
    ec_flips = []
    fast = _search_best(6, 2, counted(prepare(refined, projection), ec_flips), F(0))
    assert fast == oracle_counter_scan(6, 2, prepare(refined, projection), F(0))
    assert fast[0] > 0
    assert count - 1 <= len(ec_flips) <= bound


# ---------------------------------------------------------------------------
# the block walk, peek and dense residuals against the flip-and-abs scorer
#
# The oracle is the second-condition scorer as it was before toggles were
# walked in blocks and peeked: flip(coord, atom) changes the tuple in place,
# keeps the residuals in a dict and updates the total with abs.


def oracle_flip_c2_prepare(a, tuples):
    """prepare(refined, projection) -> (flip, start): the flip-and-abs
    scorer, packing every key anew at each depth."""
    bcat = tuples[0]
    for b in tuples[1:]:
        bcat = bcat.concat(b)
    target = joint_distribution(a, bcat)
    base_arity = a.arity
    arity = tuples[0].arity

    def pack(signs):
        return sum(bit << i for i, bit in enumerate(signs))

    def prepare(refined, projection):
        alg = refined.algebra
        denom, weights = alg.den, alg.units
        diff = {
            pack(r) | pack(s) << base_arity: m.numerator * (denom // m.denominator)
            for (r, s), m in target.mass.items()
        }
        keys = [pack(signs) for signs in _sign_map(lift_tuple(a, alg, projection))]
        for key, w in zip(keys, weights):
            diff[key] = diff.get(key, 0) - w
        total = sum(abs(d) for d in diff.values())
        images = [tuple(range(alg.size))] + list(refined.gens)

        def flip(coord, atom):
            nonlocal total
            w = weights[atom]
            for i, g in enumerate(images):
                y, bit = g[atom], 1 << (base_arity + i * arity + coord)
                old = keys[y]
                new = keys[y] = old ^ bit
                d = diff[old]
                diff[old] = d + w
                e = diff.get(new, 0)
                diff[new] = e - w
                total += abs(d + w) - abs(d) + abs(e - w) - abs(e)
            return total

        return flip, total

    return prepare


def oracle_flip_descent(size, arity, flip, scorer):
    """The greedy descent as it was, with the new scorer's start, scale,
    seed and floor: each toggle is scored by flipping it and flipping it
    back, and the first strict best is flipped in."""
    _walk, _peek, value, scale, seed, floor = scorer
    current = [set(e) for e in seed]
    for coord, event in enumerate(current):
        for x in event:
            value = flip(coord, x)
    for _ in range(GREEDY_ROUNDS):
        if value <= floor:
            break
        best, move = value, None
        for coord in range(arity):
            for atom in range(size):
                v = flip(coord, atom)
                flip(coord, atom)
                if v < best:
                    best, move = v, (coord, atom)
        if move is None:
            break
        value = flip(*move)
        current[move[0]] ^= {move[1]}
    return Fraction(value, scale), tuple(tuple(sorted(e)) for e in current)


def oracle_toggle(flip, size, b):
    return flip(*divmod(b, size))


def oracle_peek(flip, size, b):
    value = oracle_toggle(flip, size, b)
    oracle_toggle(flip, size, b)
    return value


def _toggle_action(draw):
    """Z/4 with shifts {1, 5}, where both generators agree on every atom, or
    an action on classes of equal-mass atoms."""
    if draw(st.booleans()):
        return quotient_action(cyclic_group(4, [1, 5]))
    return _class_action(draw, draw(st.integers(1, 6)))


def _toggle_parameters(draw, act, arity):
    """An anchor of arity 0-2, so that many atoms share a key, and
    parameters that are pushes of b0 or drawn freely."""
    data = draw(st.data())
    a = _draw_tuple(data, act.algebra, draw(st.integers(0, 2)))
    b0 = _draw_tuple(data, act.algebra, arity)
    if draw(st.booleans()):
        return a, [b0] + [apply_gen_tuple(act, i, b0) for i in range(1, act.k + 1)]
    return a, [b0] + [_draw_tuple(data, act.algebra, arity) for _ in range(act.k)]


@st.composite
def _toggle_scripts(draw):
    """An instance at depth 1-3 and a script of walks and peeks."""
    act = _toggle_action(draw)
    arity = draw(st.integers(1, 2))
    a, bs = _toggle_parameters(draw, act, arity)
    depth = draw(st.integers(1, 3))
    n = act.algebra.size * depth * arity
    toggle = st.integers(0, n - 1)
    script = draw(
        st.lists(
            st.tuples(st.just("walk"), st.lists(toggle, max_size=8))
            | st.tuples(st.just("peek"), toggle),
            max_size=12,
        )
    )
    return act, a, bs, depth, script


@given(_toggle_scripts())
@settings(max_examples=150, deadline=None)
def test_c2_walk_and_peek_match_the_flip_oracle(instance):
    """walk returns the oracle's scores one by one, peek returns what a flip
    would, at every step and for every toggle, and the walks after a peek
    score as if it never happened."""
    act, a, bs, depth, script = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    size = refined.algebra.size
    walk, peek, start, *_ = c2_prepare(a, bs)(refined, projection)
    flip, oracle_start = oracle_flip_c2_prepare(a, bs)(refined, projection)
    assert start == oracle_start
    every = list(range(size * bs[0].arity))
    for op, arg in script:
        if op == "walk":
            assert walk(arg) == [oracle_toggle(flip, size, b) for b in arg]
        else:
            assert peek(arg) == oracle_peek(flip, size, arg)
        assert [peek(b) for b in every] == [oracle_peek(flip, size, b) for b in every]
    assert walk(every) == [oracle_toggle(flip, size, b) for b in every]


@st.composite
def _descent_instances(draw):
    """An instance with 13-24 candidate bits, past the exhaustive cap."""
    act = _toggle_action(draw)
    arity = draw(st.integers(1, 2))
    a, bs = _toggle_parameters(draw, act, arity)
    per_depth = act.algebra.size * arity
    least = -(-13 // per_depth)
    depth = draw(st.integers(least, max(least, 24 // per_depth)))
    return act, a, bs, depth


@given(_descent_instances())
@settings(max_examples=60, deadline=None)
def test_descent_matches_the_flip_and_flip_back_oracle(instance):
    act, a, bs, depth = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    size, arity = refined.algebra.size, bs[0].arity
    assert 1 << size * arity > EXHAUSTIVE_TUPLE_CAP
    scorer = c2_prepare(a, bs)(refined, projection)
    flip, _start = oracle_flip_c2_prepare(a, bs)(refined, projection)
    expected = oracle_flip_descent(size, arity, flip, scorer)
    assert _search_best(size, arity, scorer, F(0)) == expected


def residuals_of(walk):
    """The residual table a C2 scorer's walk closes over."""
    return walk.__closure__[walk.__code__.co_freevars.index("diff")].cell_contents


@pytest.mark.parametrize("base_arity", [0, 1], ids=["list-at-bound", "dict-above-bound"])
def test_c2_residuals_at_and_just_above_the_dense_key_bound(base_arity, monkeypatch):
    """Z/4 with shifts {1, 5, 3} (two generators agree) and parameters of
    arity 4 pack 16 key bits, plus one per anchor event: at the bound the
    residuals are a list, one bit above it a defaultdict, and both give the
    oracle's scores; moving the bound switches the kind and keeps them."""
    act = quotient_action(cyclic_group(4, [1, 5, 3]))
    rng = random.Random(18)
    a = random_tuple(rng, act.algebra, base_arity)
    bs = [random_tuple(rng, act.algebra, 4) for _ in range(4)]
    key_bits = base_arity + 4 * 4
    assert key_bits == audit._DENSE_KEY_BITS + base_arity
    refined, projection = product_action(act, uniform_algebra(1))
    steps = [rng.randrange(16) for _ in range(64)]

    def scores():
        walk, peek, start, *_ = c2_prepare(a, bs)(refined, projection)
        out = [start]
        for b in steps:
            out.append(peek(b))
            out.extend(walk([b]))
        return type(residuals_of(walk)), out

    kind, fast = scores()
    assert kind is (defaultdict if base_arity else list)
    flip, start = oracle_flip_c2_prepare(a, bs)(refined, projection)
    expected = [start]
    for b in steps:
        expected += [oracle_peek(flip, 4, b), oracle_toggle(flip, 4, b)]
    assert fast == expected
    monkeypatch.setattr(audit, "_DENSE_KEY_BITS", key_bits - 1 + 2 * base_arity)
    other_kind, other = scores()
    assert other_kind is not kind and other == fast


# ---------------------------------------------------------------------------
# the second-condition floors against brute force


def brute_force_minimum(act, a, bs, depth):
    """The least c2_distance over every candidate tuple at one depth."""
    refined, projection = product_action(act, uniform_algebra(depth))
    evaluate, _seed = oracle_c2_prepare(a, bs)(refined, projection)
    return min(evaluate(m) for m in _tuple_candidates(refined.algebra.size, bs[0].arity))


@st.composite
def _floor_instances(draw):
    """An action, anchor and parameters, and a depth 1..3 with at most 1024
    candidates.  Half the parameters are pushes of b0, which some candidate
    matches exactly; the rest are drawn freely, often of unequal masses."""
    data = draw(st.data())
    arity = draw(st.integers(0, 2))
    depth = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 if arity == 0 else 10 // (depth * arity)))
    act = _class_action(draw, n)
    a = _draw_tuple(data, act.algebra, draw(st.integers(0, 2)))
    b0 = _draw_tuple(data, act.algebra, arity)
    if draw(st.booleans()):
        bs = [b0] + [apply_gen_tuple(act, i, b0) for i in range(1, act.k + 1)]
    else:
        bs = [b0] + [_draw_tuple(data, act.algebra, arity) for _ in range(act.k)]
    return act, a, bs, depth


@given(_floor_instances(), st.sampled_from([F(0), F(2)]) | st.fractions(0, F(1, 4)))
@settings(max_examples=60, deadline=None)
def test_c2_floors_against_brute_force(instance, stop):
    """Both floors are at most the least distance at the depth, and the scan
    that stops at the depth's floor returns what the counter scan does."""
    act, a, bs, depth = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    prepare = c2_prepare(a, bs)
    _walk, _peek, _start, scale, _seed, floor = prepare(refined, projection)
    least = brute_force_minimum(act, a, bs, depth)
    assert 0 <= extension_floor(bs) <= F(floor, scale) <= least
    size, arity = refined.algebra.size, bs[0].arity
    fast = _search_best(size, arity, prepare(refined, projection), stop)
    assert fast == oracle_counter_scan(size, arity, prepare(refined, projection), stop)


def test_scan_stops_at_the_first_candidate_at_the_floor():
    """On Z/12, b1 weighs twice b0, so no candidate c and its push g(c)
    match them: the floor is 2 units of 1/24, and candidate {0} reaches it
    in the first Gray-code block, where the scan stops."""
    act = quotient_action(cyclic_group(12, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [range(6)])
    bs = [EventTuple.of_members(alg, [[0]]), EventTuple.of_members(alg, [[5, 6]])]
    refined, projection = product_action(act, uniform_algebra(1))
    scorer = c2_prepare(a, bs)(refined, projection)
    assert (scorer[3], scorer[5]) == (24, 2)
    flips = []

    def counting_walk(indices):
        flips.extend(indices)
        return scorer[0](indices)

    def counting_peek(b):
        flips.append(b)
        return scorer[1](b)

    fast = _search_best(12, 1, (counting_walk, counting_peek) + scorer[2:], F(0))
    assert fast == (F(1, 12), ((0,),))
    assert fast == oracle_counter_scan(12, 1, c2_prepare(a, bs)(refined, projection), F(0))
    assert len(flips) <= 64 + 1


@given(_floor_instances())
@settings(max_examples=40, deadline=None)
def test_residual_stop_is_above_every_floor(instance):
    """The residual stops at 2 * worst, and each depth's floor is at most
    worst: the floors could never end its search sooner."""
    act, a, bs, depth = instance
    report = check_C1(act, a, bs, F(1))
    worst = max(report.xi + report.psi)
    refined, projection = product_action(act, uniform_algebra(depth))
    _walk, _peek, _start, scale, _seed, floor = c2_prepare(a, bs)(refined, projection)
    assert extension_floor(bs) <= F(floor, scale) <= worst


@given(_floor_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_refuted_instances_have_no_witness_at_any_depth(instance, data):
    act, a, bs, max_refine = instance
    lower = extension_floor(bs)
    if lower > 0 and data.draw(st.booleans()):
        eps = lower / data.draw(st.integers(2, 3))
    else:
        eps = data.draw(st.fractions(F(1, 100), F(1, 2)))
    res = search_C2_witness(act, a, bs, eps, max_refine=max_refine)
    assert res.lower_bound == lower <= res.witness.distance
    assert res.refuted == (lower >= 2 * eps)
    if res.refuted:
        assert not res.found
        for depth in range(1, max_refine + 1):
            assert brute_force_minimum(act, a, bs, depth) >= 2 * eps


def test_audit_depth_below_one_is_a_validation_error():
    act = quotient_action(cyclic_group(2, [1]))
    a = EventTuple.of_members(act.algebra, [[0]])
    bs = [EventTuple.of_members(act.algebra, [[0]])]
    with pytest.raises(ValidationError, match="max_refine"):
        search_C2_witness(act, a, bs, F(1, 4), max_refine=0)
    with pytest.raises(ValidationError, match="max_refine"):
        axiom_residual(act, a, bs, max_refine=0)


def test_check_c1_unknown_metric_is_a_validation_error():
    act = quotient_action(cyclic_group(2, [1]))
    a = EventTuple.of_members(act.algebra, [[0]])
    bs = [EventTuple.of_members(act.algebra, [[0]])] * 2
    with pytest.raises(ValidationError, match="metric"):
        check_C1(act, a, bs, F(1, 4), metric="euclid")
