"""Closure-condition audits: pushforward/independence reports, witness
searches on refinements, residual bounds, and the extension-imitation
check."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    EventTuple,
    MeasuredAlgebra,
    _keys,
    _unit_law,
    joint_distribution,
    lift_tuple,
    validate_algebra,
)
from pmplab.action import (
    FkAction,
    Word,
    apply_gen_tuple,
    extensions,
    product_action,
    validate_action,
)
import pmplab.action as action
import pmplab.algebra as algebra
import pmplab.audit as audit
from pmplab.audit import (
    _c2_prepare,
    _check_embedding,
    _ec_prepare,
    _mass_spans,
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
    AlgebraMismatch,
    EmbeddingNotEquivariant,
    InstanceTooLarge,
    NonpositiveEps,
    ValidationError,
    WrongTupleCount,
)
from pmplab import limits
from pmplab.limits import (
    EXHAUSTIVE_TUPLE_CAP,
    GREEDY_ROUNDS,
    MAX_EC_READ_ENTRIES,
    MAX_REFINED_ATOMS,
    _check_ec_read_entries,
)
from pmplab.modeltheory import joint_tv_distance

from conftest import oracle_sign_map, outcome, random_tuple, uniform_algebra
from test_action import oracle_apply_word

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
    (shift,) = group.rows([2])

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
    assert res.distance == 0
    assert res.refinement_depth == 1
    assert [e.members for e in res.c.events] == [(0,)]


def test_search_c2_whole_space_instance():
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [])
    res = search_C2_witness(act, a, [whole(alg)] * 3, F(1, 4))
    assert res.found
    assert res.distance == 0
    assert [e.members for e in res.c.events] == [(0, 1)]


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
    assert res.distance == F(1, 4)
    assert res.refinement_depth == 1
    assert [e.members for e in res.c.events] == [(1,)]


def test_search_c2_witness_distance_is_recomputable():
    rng = random.Random(83)
    alg4 = uniform_algebra(4)
    act = validate_action(alg4, [(1, 0, 3, 2), (1, 2, 3, 0)])
    for _ in range(10):
        a = random_tuple(rng, alg4, arity=1)
        bs = [random_tuple(rng, alg4, arity=1) for _ in range(3)]
        res = search_C2_witness(act, a, bs, F(1, 9), max_refine=2)
        refined, projection = product_action(act, uniform_algebra(res.refinement_depth))
        a_lift = lift_tuple(a, refined.algebra, projection)
        c = EventTuple.of_members(refined.algebra, [e.members for e in res.c.events])
        bcat = bs[0]
        for b in bs[1:]:
            bcat = bcat.concat(b)
        ccat = c
        for i in range(1, act.k + 1):
            ccat = ccat.concat(apply_gen_tuple(refined, i, c))
        recomputed = joint_tv_distance(
            joint_distribution(a, bcat), joint_distribution(a_lift, ccat)
        )
        assert recomputed == res.distance
        assert res.found == (res.distance < 2 * F(1, 9) or res.distance == 0)


def test_search_c2_greedy_descent_holds_no_quadratic_table():
    """A greedy depth on Z/4096 holds one int of n + 1 fields per target
    key and no n x n table: a quadratic set-up would peak above 50 MB."""
    n = 4096
    alg = uniform_algebra(n)
    act = validate_action(alg, [tuple((x + 1) % n for x in range(n))])
    a = EventTuple.of_members(alg, [range(n // 2)])
    bs = [
        EventTuple.of_members(alg, [range(0, n, 2)]),
        EventTuple.of_members(alg, [range(n // 4, 3 * n // 4)]),
    ]
    tracemalloc.start()
    try:
        res = search_C2_witness(act, a, bs, F(1, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert res.refinement_depth == 1
    target = joint_distribution(a, bs[0].concat(bs[1]))
    assert res.distance == c2_distance(act, a, target, res.c) == F(15, 32)


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
    words = [(), (1,)]
    res = ec_in_extension_check(act, act, embed, anchors, bs, words, F(1, 5))
    assert res.found
    assert res.discrepancy == 0
    overlapping = EventTuple.of_members(alg, [[0, 1]])
    res2 = ec_in_extension_check(act, act, embed, anchors, overlapping, words, F(1, 5))
    assert res2.found
    assert res2.discrepancy == 0


def test_ec_tensor_extension_regression():
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3])]
    )
    anchors = EventTuple.of_members(small.algebra, [[0]])
    bs = EventTuple.of_members(big.algebra, [[0, 2]])
    words = [(), (1,)]
    shallow = ec_in_extension_check(
        small, big, embed, anchors, bs, words, F(1, 4), max_refine=1
    )
    assert not shallow.found
    assert shallow.discrepancy == F(1, 4)
    deep = ec_in_extension_check(
        small, big, embed, anchors, bs, words, F(1, 4), max_refine=2
    )
    assert deep.found
    assert deep.discrepancy == 0
    assert deep.refinement_depth == 2
    assert [e.members for e in deep.cs.events] == [(0, 2)]


def test_tuple_candidates_lexicographic_in_bitmasks():
    assert list(_tuple_candidates(2, 1)) == [((),), ((0,),), ((1,),), ((0, 1),)]
    pairs = list(_tuple_candidates(2, 2))
    assert len(pairs) == 16
    assert pairs[:5] == [((), ()), ((), (0,)), ((), (1,)), ((), (0, 1)), ((0,), ())]
    # arity 0 has the one empty tuple and never lists the 2**size events
    assert list(_tuple_candidates(200, 0)) == [()]


def record_depths(monkeypatch) -> list[int]:
    """Make the audits record every depth they take from extensions, which
    still refuses before it yields anything; depth m splits each atom into
    m parts."""
    visited: list[int] = []

    def taken(act, depths):
        for depth, (refined, projection) in enumerate(depths, 1):
            assert refined.algebra.size == depth * act.algebra.size
            visited.append(depth)
            yield refined, projection

    monkeypatch.setattr(
        audit, "extensions", lambda act, max_refine: taken(act, extensions(act, max_refine))
    )
    return visited


def test_searches_visit_expected_depths(monkeypatch):
    """Each audit stops at the first depth whose best value passes its own
    test: strictly below 2*eps or at most the floor over every extension
    (C2), below eps (EC), at most 2*worst (residual)."""
    visited = record_depths(monkeypatch)
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
    assert (res.distance, res.refinement_depth) == (F(1, 4), 2)

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
        [(), (1,)],
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


def test_audits_that_stop_at_depth_1_build_no_product(monkeypatch):
    """Depth 1 searches the action itself: an audit that stops there never
    calls product_action, and one that goes on builds one product per
    further depth."""
    products = []

    def counting(act, fiber):
        products.append(fiber.size)
        return product_action(act, fiber)

    monkeypatch.setattr(action, "product_action", counting)
    act = z2_two_gens()
    alg = act.algebra
    a = EventTuple.of_members(alg, [[0]])
    b1 = EventTuple.of_members(alg, [[1]])
    found = search_C2_witness(act, a, [EventTuple.of_members(alg, [[0]]), b1, b1], F(1, 10), 4)
    assert found.found and found.refinement_depth == 1
    assert found.c.algebra is alg
    assert axiom_residual(act, a, [EventTuple.of_members(alg, [[0]]), b1, b1], 4) == 0
    assert products == []
    # c and g(c) always weigh the same, b0 and b1 do not: every depth runs
    swap = quotient_action(cyclic_group(2, [1]))
    bs = [EventTuple.of_members(swap.algebra, [[0]]), whole(swap.algebra)]
    search_C2_witness(swap, EventTuple.of_members(swap.algebra, [[0]]), bs, F(1, 10**6), 3)
    assert products == [2, 3]


def test_audit_depths_are_capped_by_their_summed_atoms(monkeypatch):
    """Depths 1..M of a 2-atom action refine to 2*M*(M+1)/2 atoms in all:
    65280 for M = 255, inside MAX_REFINED_ATOMS, and 65792 for M = 256,
    which every audit refuses before refining anything."""
    assert 255 * 256 <= MAX_REFINED_ATOMS < 256 * 257
    visited = record_depths(monkeypatch)
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
            [()], F(1, 4), max_refine=256,
        ),
    ]
    for audit_call in past:
        with pytest.raises(InstanceTooLarge):
            audit_call()
    assert visited == []


def test_ec_reads_are_capped_by_their_entries(monkeypatch):
    """One read at a depth rescores |a| * arity * |words| * arity pattern
    entries per candidate: every candidate of a scan, or the n + 1 of one
    descent read.  Z/3 inside Z/6 with one anchor, two words and a target of
    arity 4 scans 2**12 candidates of 32 entries at depth 1, 131,072 in
    all: under a cap of that many it is answered, under one fewer refused."""
    _check_ec_read_entries(MAX_EC_READ_ENTRIES, 1)
    with pytest.raises(InstanceTooLarge):
        _check_ec_read_entries(MAX_EC_READ_ENTRIES + 1, 1)
    small = validate_action(uniform_algebra(3), [(1, 2, 0)])
    big = validate_action(uniform_algebra(6), [(2, 3, 4, 5, 0, 1)])
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3]), ([2], [4, 5])]
    )
    anchors = EventTuple.of_members(small.algebra, [[2]])
    bs = EventTuple.of_members(big.algebra, [[1, 2, 5]] * 4)

    def search():
        return ec_in_extension_check(small, big, embed, anchors, bs, [(), (1,)], F(1, 100), 2)

    monkeypatch.setattr(limits, "MAX_EC_READ_ENTRIES", 4096 * 32)
    assert search().discrepancy == F(1, 6)
    monkeypatch.setattr(limits, "MAX_EC_READ_ENTRIES", 4096 * 32 - 1)
    with pytest.raises(InstanceTooLarge, match="of 4096 candidates x 32 pattern entries "
                       "exceeds the cap 131071 entries"):
        search()


def test_ec_rejects_bad_embeddings_and_eps():
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    anchors = EventTuple.of_members(small.algebra, [[0]])
    bs = EventTuple.of_members(big.algebra, [[0]])
    words = [()]
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


def test_audits_refuse_tuples_and_embeddings_on_another_algebra():
    """Each audit names the input that does not live where it must."""
    small = quotient_action(cyclic_group(2, [1]))
    big = product_action(small, validate_algebra([F(1, 2), F(1, 2)]))[0]
    stranger = uniform_algebra(2)
    a = EventTuple.of_members(small.algebra, [[0]])
    b = EventTuple.of_members(small.algebra, [[1]])
    elsewhere = EventTuple.of_members(stranger, [[0]])
    bs = EventTuple.of_members(big.algebra, [[0, 2]])
    words = [(), (1,)]
    embed = PartialIsomorphism.of(small.algebra, big.algebra, [([0], [0, 1]), ([1], [2, 3])])
    foreign = PartialIsomorphism.of(stranger, big.algebra, [([0], [0, 1]), ([1], [2, 3])])
    cases = [
        (lambda: check_C1(small, elsewhere, [b, b], F(1, 4)),
         "anchor tuple does not live on the action's algebra"),
        (lambda: check_C1(small, a, [b, elsewhere], F(1, 4)),
         "parameter tuple does not live on the action's algebra"),
        (lambda: ec_in_extension_check(small, big, foreign, a, bs, words, F(1, 4)),
         "embedding endpoints do not match the two actions"),
        (lambda: ec_in_extension_check(small, big, embed, elsewhere, bs, words, F(1, 4)),
         "anchor tuple must live in the small system"),
        (lambda: ec_in_extension_check(small, big, embed, a, elsewhere, words, F(1, 4)),
         "target tuple must live in the big system"),
    ]
    for call, message in cases:
        assert outcome(call) == (AlgebraMismatch, message)


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
        [oracle_apply_word(act, w, e) for e in fibers.events] for w in words
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


def _pullback_seed(bs, blocks, projection):
    """Approximate preimage of the target tuple under the embedding: keep the
    refined atoms whose parent's image block lies inside the target event.
    The oracle of the extension search's seed at every depth."""
    out = []
    for e in bs.events:
        members = set(e.members)
        inside = {x for x, block in blocks.items() if block <= members}
        out.append(
            tuple(
                u for u, parent in enumerate(projection) if parent in inside
            )
        )
    return tuple(out)


def pushed_forward(embed, t):
    """Tuple t of the small algebra sent through the embedding: each event
    to the union of the target blocks whose source block it holds."""
    return EventTuple.of_members(embed.target, [
        set().union(*[tgt for src, tgt in embed.pairs if src <= set(e.members)])
        for e in t.events
    ])


def pulled_back(small, bs, blocks):
    """The target tuple pulled back to the small algebra, as _ec_prepare
    takes it: the oracle seed at the identity projection."""
    return EventTuple.of_members(small, _pullback_seed(bs, blocks, range(small.size)))


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
    return audit._extension_floor(_mass_spans(bs), bs[0].algebra.den)


def unpacked(packed, count, scale):
    """The count scores of a packed C2 scan, field 0 first, each field of
    _field_bytes(scale) bytes."""
    fb = audit._field_bytes(scale)
    assert 0 <= packed < 1 << 8 * fb * count
    raw = packed.to_bytes(fb * count, "little")
    return [int.from_bytes(raw[i : i + fb], "little") for i in range(0, len(raw), fb)]


def oracle_c2_law(a, tuples):
    """The second-condition set-up's law before it was built from packed
    keys: the Fraction joint law of the anchor and the concatenated
    parameters, each (base sign, fiber sign) cell packed through pack(r) |
    pack(s) << base_arity and its mass taken back to units of 1/D, and the
    anchor keys packed from oracle_sign_map."""

    def pack(signs):
        return sum(bit << i for i, bit in enumerate(signs))

    den = a.algebra.den
    law = joint_distribution(a, tuples[0].concat(*tuples[1:]))
    cells = {
        pack(r) | pack(s) << a.arity: m.numerator * (den // m.denominator)
        for (r, s), m in law.mass.items()
    }
    return [pack(signs) for signs in oracle_sign_map(a)], cells


def oracle_mass_spans(tuples):
    """The Fraction spans (min_i mu(b_ij), max_i mu(b_ij)) per coordinate j
    that _mass_spans gave before it counted units."""
    return [
        (min(column), max(column))
        for column in zip(*([e.mass for e in b.events] for b in tuples))
    ]


def assert_law_and_spans_match_oracles(a, bs):
    """The second-condition set-up's anchor keys, _keys(a), and target law,
    _unit_law(a, *bs), are the oracle's, in the same key order; the unit
    spans are the Fraction spans times D, and the extension floor half their
    widest spread."""
    anchor_keys, law = _keys(a), _unit_law(a, *bs)
    oracle_keys, oracle_law = oracle_c2_law(a, bs)
    assert anchor_keys == oracle_keys
    assert list(law.items()) == list(oracle_law.items())
    den = a.algebra.den
    spans = oracle_mass_spans(bs)
    assert _mass_spans(bs) == [(lo * den, hi * den) for lo, hi in spans]
    assert extension_floor(bs) == max((hi - lo for lo, hi in spans), default=F(0)) / 2


def run_search(act, arity, max_refine, stop_below, prepare, stop_at):
    """_refine_search over extensions(act, max_refine), as (value, members,
    depth)."""
    value, c, depth = _refine_search(
        extensions(act, max_refine), arity, stop_below, prepare, stop_at
    )
    assert type(value) is Fraction
    return value, tuple(e.members for e in c.events), depth


def stopped(sequence, stop_below, stop_at):
    """The best of an oracle_refine_search sequence at the first depth whose
    best is below stop_below or at most stop_at, else at its last depth."""
    for best in sequence:
        if best[0] < stop_below or best[0] <= stop_at:
            break
    return best


def assert_search_matches_oracle(act, arity, max_refine, stop_below, stop_at, fast, oracle):
    """Every depth limit 1..max_refine gives what the oracle sequence,
    cut at that depth, gives: fast and oracle are the two prepare
    functions."""
    sequence = list(oracle_refine_search(act, arity, max_refine, stop_below, oracle))
    for limit in range(1, max_refine + 1):
        expected = stopped(sequence[:limit], stop_below, stop_at)
        assert run_search(act, arity, limit, stop_below, fast, stop_at) == expected


def toggles_of(members, size):
    """The flat toggle indices coord * size + atom of a member tuple."""
    return [coord * size + x for coord, event in enumerate(members) for x in event]


def index_of(members, size, arity):
    """The candidate index of a member tuple: coordinate 0 most significant,
    atom x at bit x of its coordinate."""
    return sum(
        1 << ((arity - 1 - coord) * size + x)
        for coord, event in enumerate(members)
        for x in event
    )


def toggled(members, b, size):
    """members with toggle b = coord * size + atom applied."""
    coord, atom = divmod(b, size)
    out = [set(e) for e in members]
    out[coord] ^= {atom}
    return tuple(tuple(sorted(e)) for e in out)


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
    """The packed neighbours of the seed and of each drawn candidate, reached
    by moves, and the packed scan where the depth is small enough to scan,
    give what c2_distance gives.  The last field of a read is the current
    tuple's own score: the seed's at the first read, and after every move
    the tuple it moved to."""
    act, a, bs, depth, candidates = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    size, arity = refined.algebra.size, bs[0].arity
    scan, descend, scale, seed, _floor = c2_prepare(a, bs)(refined, projection)
    oracle, oracle_seed = oracle_c2_prepare(a, bs)(refined, projection)
    assert seed == oracle_seed
    neighbours, move = descend()
    value = neighbours()[-1]
    assert F(value, scale) == oracle(seed)
    current = seed
    wanted = [tuple(tuple(sorted(e)) for e in c) for c in candidates]
    for members in wanted:
        for b in toggles_of(members, size) + toggles_of(current, size):
            move(b)
            current = toggled(current, b, size)
            assert F(neighbours()[-1], scale) == oracle(current)
        assert current == members
        assert [F(v, scale) for v in neighbours()] == [
            oracle(toggled(current, b, size)) for b in range(size * arity)
        ] + [oracle(current)]
    if 1 << size * arity <= EXHAUSTIVE_TUPLE_CAP:
        scores = unpacked(scan(0), 1 << size * arity, scale)
        for members in [seed] + wanted:
            assert F(scores[index_of(members, size, arity)], scale) == oracle(members)


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

    for stop_at in (F(-1), extension_floor(bs)):
        assert_search_matches_oracle(
            act, arity, max_refine, F(0), stop_at, c2_prepare(a, bs), oracle_c2_prepare(a, bs)
        )


@st.composite
def _search_instances(draw, greedy):
    """An action on classes of equal-mass atoms, a search arity, a depth, a
    stop threshold and a stop level (-1 never stops).  With greedy, at least one depth has more candidates
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
    stop_at = draw(st.sampled_from([F(-1), F(0)]) | st.fractions(0, F(1, 4), max_denominator=30))
    return act, arity, max_refine, stop, stop_at


def _class_action(draw, n, max_gens=2, weights=st.integers(1, 9)):
    """An action on n atoms in classes of equal mass, each drawn from
    weights, that 1..max_gens generators shuffle."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    weights = [draw(weights) for _ in sizes]
    total = sum(size * weight for size, weight in zip(sizes, weights))
    alg = validate_algebra(
        [F(w, total) for size, w in zip(sizes, weights) for _ in range(size)]
    )
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
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
    act, arity, max_refine, stop, stop_at = data.draw(_search_instances(greedy))
    alg = act.algebra
    a = _draw_tuple(data, alg, data.draw(st.integers(0, 2)))
    b0 = _draw_tuple(data, alg, arity)
    if data.draw(st.booleans()):
        # realizable: the lifted b0 scores zero
        bs = [b0] + [apply_gen_tuple(act, i, b0) for i in range(1, act.k + 1)]
    else:
        bs = [b0] + [_draw_tuple(data, alg, arity) for _ in range(act.k)]
    assert_search_matches_oracle(
        act, arity, max_refine, stop, stop_at, c2_prepare(a, bs), oracle_c2_prepare(a, bs)
    )


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
        bs = pushed_forward(embed, _draw_tuple(data, small.algebra, arity))
    else:
        bs = _draw_tuple(data, big.algebra, arity)
    letters = st.integers(1, small.k).flatmap(lambda g: st.sampled_from([g, -g]))
    words = [
        tuple(w)
        for w in data.draw(st.lists(st.lists(letters, max_size=2), min_size=1, max_size=2))
    ]
    return big, embed, blocks, anchors, bs, words


@pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_refine_search_matches_oracle_ec(greedy, data):
    small, arity, max_refine, stop, stop_at = data.draw(_search_instances(greedy))
    big, embed, blocks, anchors, bs, words = _draw_ec_instance(data, small, arity)
    target = _triple_pattern(big.algebra, big, pushed_forward(embed, anchors), bs, words)
    pulled = pulled_back(small.algebra, bs, blocks)
    assert_search_matches_oracle(
        small, arity, max_refine, stop, stop_at,
        _ec_prepare(anchors, pulled, words, *ec_target(big, target)),
        oracle_ec_prepare(anchors, bs, words, target, blocks),
    )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ec_check_matches_the_fraction_oracle(data):
    """The whole check, its integer target included, against the search
    over the Fraction pattern of _triple_pattern, stopped at the first depth
    whose best is below eps."""
    small, arity, max_refine, _stop, _stop_at = data.draw(_search_instances(False))
    big, embed, blocks, anchors, bs, words = _draw_ec_instance(data, small, arity)
    eps = data.draw(st.fractions(F(1, 60), F(1, 4), max_denominator=60))
    target = _triple_pattern(big.algebra, big, pushed_forward(embed, anchors), bs, words)
    for value, members, depth in oracle_refine_search(
        small, arity, max_refine, eps, oracle_ec_prepare(anchors, bs, words, target, blocks)
    ):
        if value < eps:
            break
    res = ec_in_extension_check(small, big, embed, anchors, bs, words, eps, max_refine)
    assert (res.found, res.discrepancy, res.refinement_depth) == (value < eps, value, depth)
    assert tuple(e.members for e in res.cs.events) == members


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ec_seed_is_the_pullback_oracle_at_every_depth(data):
    """ec_in_extension_check pulls its target back to the small system once,
    and each depth lifts that tuple: the seed _pullback_seed recomputed at
    every depth is the oracle."""
    small, arity, _max_refine, _stop, _stop_at = data.draw(_search_instances(False))
    big, embed, blocks, anchors, bs, words = _draw_ec_instance(data, small, arity)
    given_pulled = []
    real = audit._ec_prepare

    def spy(anchors, pulled, *rest):
        given_pulled.append(pulled)
        return real(anchors, pulled, *rest)

    with mock.patch.object(audit, "_ec_prepare", spy):
        ec_in_extension_check(small, big, embed, anchors, bs, words, F(1, 2))
    [pulled] = given_pulled
    assert pulled == pulled_back(small.algebra, bs, blocks)
    target = _triple_pattern(big.algebra, big, pushed_forward(embed, anchors), bs, words)
    prepare = real(anchors, pulled, words, *ec_target(big, target))
    for depth in (1, 2, 3):
        refined, projection = product_action(small, uniform_algebra(depth))
        assert prepare(refined, projection)[3] == _pullback_seed(bs, blocks, projection)


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
    words = [(1, 2), (-2, 1)]
    target = _triple_pattern(big.algebra, big, pushed_forward(embed, anchors), bs, words)
    pulled = pulled_back(small.algebra, bs, blocks)
    for depth in (1, 2):
        refined, projection = product_action(small, uniform_algebra(depth))
        scorer = _ec_prepare(anchors, pulled, words, *ec_target(big, target))(
            refined, projection
        )
        oracle, seed = oracle_ec_prepare(anchors, bs, words, target, blocks)(
            refined, projection
        )
        scan, _descend, scale, scorer_seed, _floor = scorer
        assert scorer_seed == seed
        # no score is below 0, so the scan scores every candidate
        scores = [F(s, scale) for s in scan(0)]
        assert scores == [oracle(m) for m in _tuple_candidates(refined.algebra.size, 1)]


def test_counter_walk_visits_candidates_in_lexicographic_order():
    """A score that falls along the lexicographic order makes the scan
    return candidate m exactly when the stop is just above its score, and a
    zero at candidate m is returned whatever the stop: candidate index
    order is the lexicographic order of the member tuples."""
    for size, arity in [(2, 1), (2, 2), (3, 2), (1, 3), (4, 0)]:
        order = list(_tuple_candidates(size, arity))
        rank = {members: i for i, members in enumerate(order)}
        ranks = [rank[members_of(i, size, arity)] for i in range(len(order))]
        for m, members in enumerate(order):
            # scores run down to -len(order), which is their floor
            table = [-1 - r for r in ranks]
            scorer = TableScorer(size, arity, table, floor=-len(order)).scorer
            assert _search_best(size, arity, scorer, F(-m)) == (-1 - m, members)

            # a zero at candidate m ends the scan there, whatever the stop
            table = [0 if r == m else 1 for r in ranks]
            scorer = TableScorer(size, arity, table).scorer
            assert _search_best(size, arity, scorer, F(0)) == (0, members)


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
    value, _c, depth = _refine_search(extensions(act, 1), 1, F(0), c2_prepare(a, bs), F(0))
    assert value > 0 and depth == 1
    assert len(built) <= 1


def test_ec_check_builds_one_fraction_per_depth(monkeypatch):
    """The extension check computes its target, builds its depths and scores
    every candidate in integer units; only each depth's result becomes a
    Fraction."""
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    # the EC instance of test_ec_scan_scores_each_candidate_once_up_to_its_first_hit:
    # every discrepancy is at least 1/18, so no depth stops the search
    small = quotient_action(cyclic_group(6, [1]))
    big = product_action(small, validate_algebra([F(1, 3), F(2, 3)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([x], [2 * x, 2 * x + 1]) for x in range(6)]
    )
    anchors = EventTuple.of_members(small.algebra, [[0, 1, 2]])
    target_tuple = EventTuple.of_members(big.algebra, [[0], [2, 5, 6]])
    words = [(), (1,)]
    depths = record_depths(monkeypatch)
    monkeypatch.setattr(audit, "Fraction", CountingFraction)
    monkeypatch.setattr(algebra, "Fraction", CountingFraction)
    res = ec_in_extension_check(
        small, big, embed, anchors, target_tuple, words, F(1, 18), max_refine=2
    )
    assert not res.found and depths == [1, 2]
    assert len(built) == len(depths)


# ---------------------------------------------------------------------------
# the scan rule of _search_best against the binary-counter scan


def members_of(index, size, arity):
    """The member tuple of candidate `index`: coordinate 0 most significant,
    atom x at bit x of its coordinate."""
    return tuple(
        tuple(x for x in range(size) if (index >> ((arity - 1 - coord) * size + x)) & 1)
        for coord in range(arity)
    )


def oracle_counter_scan(size, arity, walk, start, scale, stop_below):
    """The exhaustive scan in lexicographic order over a scorer that holds
    the all-empty tuple, scoring start, and toggles it in place, stepped as
    a binary counter: candidate i follows i - 1 by flipping the bits of
    (i - 1) ^ i, and the scan stops at the first strict new best that is
    below stop_below or zero."""
    p, q = stop_below.numerator, stop_below.denominator
    limit = p * scale
    assert 1 << size * arity <= EXHAUSTIVE_TUPLE_CAP
    value = best = start
    best_i = 0
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


def counter_scores(size, arity, walk, start):
    """The score of every candidate in index order, from a scorer that holds
    the all-empty tuple, scoring start, stepped by walk as a binary
    counter."""
    places = [(arity - 1 - b // size) * size + b % size for b in range(size * arity)]
    scores = [start]
    for i in range(1, 1 << size * arity):
        for b in range((i & -i).bit_length()):
            [value] = walk([places[b]])
        scores.append(value)
    return scores


def search_cut(stop_below, scale, floor):
    """The integer cut of _search_best: a score v is a hit when v < cut."""
    p, q = stop_below.numerator, stop_below.denominator
    return max(-(-p * scale // q), floor + 1)


def oracle_list_selection(scores, cut):
    """The exhaustive selection over a list of every score in index order,
    as _search_best made it before packed scans: the first score below cut,
    or with none the first least score.  Returns its index."""
    least = min(scores)
    if least < cut:
        return next(i for i, v in enumerate(scores) if v < cut)
    return scores.index(least)


def packed_table(table, scale):
    """The table packed as the C2 scan packs its scores: score i in field i
    of _field_bytes(scale) bytes, field 0 least significant."""
    fb = audit._field_bytes(scale)
    return int.from_bytes(b"".join(v.to_bytes(fb, "little") for v in table), "little")


class TableScorer:
    """A scorer over a table of scores indexed by candidate.  scorer is its
    _search_best form, whose scan(cut) returns the table through its first
    score below cut, as the extension scan does, with whole the whole table
    as a list, or with packed the whole table packed into one int, as the
    C2 scan does.  walk toggles a held candidate index for
    oracle_counter_scan, starting at candidate 0."""

    def __init__(self, size, arity, table, scale=1, floor=0, whole=False, packed=False):
        self.size, self.arity, self.table, self.whole = size, arity, table, whole
        self.packed = packed_table(table, scale) if packed else None
        self.index = 0
        self.scorer = (self.scan, None, scale, ((),) * arity, floor)

    def scan(self, cut):
        if self.packed is not None:
            return self.packed
        hits = [i for i, s in enumerate(self.table) if s < cut]
        return self.table if self.whole or not hits else self.table[: hits[0] + 1]

    def walk(self, indices):
        scores = []
        for b in indices:
            coord, atom = divmod(b, self.size)
            self.index ^= 1 << ((self.arity - 1 - coord) * self.size + atom)
            scores.append(self.table[self.index])
        return scores


def compare_scans(size, arity, table, stop, scale=1, floor=0):
    """The scan rule on one table gives the counter scan's (value, members)
    and the list selection's, the scan told the table's floor and the
    counter scan not, whether the scan stops at its first hit, returns
    every score or, when every score is at most scale, packs them.  Returns
    the result and whether it is a hit."""
    result = _search_best(size, arity, TableScorer(size, arity, table, scale, floor).scorer, stop)
    whole = TableScorer(size, arity, table, scale, floor, whole=True).scorer
    assert _search_best(size, arity, whole, stop) == result
    if max(table) <= scale:
        packed = TableScorer(size, arity, table, scale, floor, packed=True).scorer
        assert _search_best(size, arity, packed, stop) == result
    walk = TableScorer(size, arity, table).walk
    assert result == oracle_counter_scan(size, arity, walk, table[0], scale, stop)
    best_i = oracle_list_selection(table, search_cut(stop, scale, floor))
    assert result == (F(table[best_i], scale), members_of(best_i, size, arity))
    value, _members = result
    return result, value < stop or value == 0


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
def test_scan_matches_counter_scan_on_score_tables(instance):
    compare_scans(*instance)


def test_scan_edge_cases():
    """The rule of _search_best on a 256-candidate table."""
    size, arity = 4, 2
    count = 1 << size * arity

    # no hit: the least score, its first candidate among ties
    table = [5] * count
    table[70] = table[40] = table[200] = 2
    (value, members), hit = compare_scans(size, arity, table, F(1))
    assert (value, members, hit) == (2, members_of(40, size, arity), False)

    # a hit at candidate 0, by a zero and by the threshold
    for first, stop in [(0, F(0)), (1, F(2))]:
        table = [7] * count
        table[0] = first
        (value, members), hit = compare_scans(size, arity, table, stop)
        assert (value, members, hit) == (first, ((), ()), True)

    # zeros: the first zero wins over an earlier score below the stop
    table = [9] * count
    table[150], table[130] = 0, 1
    assert compare_scans(size, arity, table, F(2))[0] == (1, members_of(130, size, arity))
    assert compare_scans(size, arity, table, F(0))[0] == (0, members_of(150, size, arity))

    # ties among hits: the first one, whatever its score
    table = [9] * count
    table[100], table[90] = 3, 4
    assert compare_scans(size, arity, table, F(5))[0] == (4, members_of(90, size, arity))

    # two hits, the lower index winning with the higher score
    for early, late in [(3, 2), (64 + 32, 64)]:
        table = [9] * count
        table[early], table[late] = 1, 4
        (value, members), _hit = compare_scans(size, arity, table, F(5))
        assert (value, members) == (4, members_of(late, size, arity))


@st.composite
def _packed_tables(draw):
    """A candidate count up to EXHAUSTIVE_TUPLE_CAP, a scale whose fields
    take fb = 1, 2, 4, 8 or 16 bytes, a table of scores in [0, scale] over a
    few levels (0 and scale often among them), a stop (0 stops only at a
    zero, 2 puts the cut above scale, a level's own value cuts just below
    it) and a floor of 0 or the least score."""
    arity = draw(st.integers(0, 3))
    size = draw(st.integers(1, 12 // arity if arity else 3))
    count = 1 << size * arity
    fb = draw(st.sampled_from([1, 2, 4, 8, 16]))
    scale = draw(st.integers(1 if fb == 1 else 1 << 4 * fb - 1, (1 << 8 * fb - 1) - 1))
    assert audit._field_bytes(scale) == fb
    levels = draw(
        st.lists(st.sampled_from([0, scale]) | st.integers(0, scale), min_size=1, max_size=4)
    )
    if count <= 128:
        table = draw(st.lists(st.sampled_from(levels), min_size=count, max_size=count))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        table = [rng.choice(levels) for _ in range(count)]
    stop = draw(
        st.sampled_from([F(0), F(2)])
        | st.sampled_from(levels).map(lambda v: F(v, scale))
        | st.fractions(0, F(3, 2), max_denominator=8)
    )
    floor = draw(st.sampled_from([0, min(table)]))
    return size, arity, table, stop, scale, floor


@given(_packed_tables())
@settings(max_examples=200, deadline=None)
def test_packed_first_hit_matches_the_list_scan(instance):
    """The first hit read from a packed scan with whole-int operations is
    the list selection's, for fields of 1 to 16 bytes."""
    compare_scans(*instance)


@pytest.mark.parametrize("fb", [1, 2, 4, 8, 16])
def test_packed_first_hit_edge_cases(fb):
    """On 256 candidates at the largest scale of each field width: a hit at
    candidate 0, a cut above the scale, a hit at the floor, and no hit."""
    size, arity = 4, 2
    count = 1 << size * arity
    scale = (1 << 8 * fb - 1) - 1
    assert audit._field_bytes(scale) == fb

    def best(table, stop, floor=0):
        scorer = TableScorer(size, arity, table, scale, floor, packed=True).scorer
        result = _search_best(size, arity, scorer, stop)
        assert result == compare_scans(size, arity, table, stop, scale, floor)[0]
        return result

    # a zero at candidate 0
    table = [scale] * count
    table[0] = 0
    assert best(table, F(0)) == (0, ((), ()))
    # a stop of 2 puts the cut above the scale: every score is a hit, even
    # the scale itself at candidate 0
    table = [scale] * count
    assert best(table, F(2)) == (1, ((), ()))
    table[9] = 0
    assert best(table, F(2)) == (1, ((), ()))
    # a hit at the floor: the first candidate at it
    table = [scale] * count
    table[200] = table[77] = 5
    assert best(table, F(0), floor=5) == (F(5, scale), members_of(77, size, arity))
    # no hit: the least score, its first candidate among ties
    table[40] = table[70] = 3
    assert best(table, F(1, scale)) == (F(3, scale), members_of(40, size, arity))
    # a score one below the cut is a hit, one at the cut is not
    assert best(table, F(4, scale)) == (F(3, scale), members_of(40, size, arity))
    assert best(table, F(3, scale)) == (F(3, scale), members_of(40, size, arity))
    table[41] = 2
    assert best(table, F(3, scale)) == (F(2, scale), members_of(41, size, arity))


@given(_mixed_c2_instances())
@settings(max_examples=150, deadline=None)
def test_c2_law_matches_the_joint_distribution_oracle(instance):
    _act, a, bs, _depth, _candidates = instance
    assert_law_and_spans_match_oracles(a, bs)


def test_c2_law_with_an_empty_anchor_and_empty_events():
    """An anchor of arity 0, parameters of arity 0, and empty and whole
    events over unequal masses."""
    alg = validate_algebra([F(1, 6), F(1, 3), F(1, 6), F(1, 3)])
    act = validate_action(alg, [(2, 3, 0, 1)])
    empty = EventTuple.of_members(alg, [])
    for a in (empty, EventTuple.of_members(alg, [[], [0, 1, 2, 3]])):
        assert_law_and_spans_match_oracles(a, [empty, empty])
        bs = [
            EventTuple.of_members(alg, [[], [1, 3]]),
            EventTuple.of_members(alg, [[0, 1, 2, 3], []]),
        ]
        assert_law_and_spans_match_oracles(a, bs)
        assert_search_matches_oracle(
            act, 2, 1, F(0), F(-1), c2_prepare(a, bs), oracle_c2_prepare(a, bs)
        )
    assert (_keys(empty), _unit_law(empty, empty, empty)) == ([0] * 4, {0: 6})


def test_ec_scan_scores_each_candidate_once_up_to_its_first_hit():
    """The extension scan computes one pattern per candidate: N at a depth
    with no hit, and h + 1 when candidate h is the first hit, returning the
    full scan's first h + 1 scores.  The packed C2 scan of the same size
    gives what the counter scan over the walk/peek scorer gives."""
    count = EXHAUSTIVE_TUPLE_CAP

    # the C2 instance of test_exhaustive_scan_builds_one_fraction_per_depth
    act = quotient_action(cyclic_group(12, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [range(6)])
    bs = full_scan_parameters(alg)
    refined, projection = product_action(act, uniform_algebra(1))
    fast = _search_best(12, 1, c2_prepare(a, bs)(refined, projection), F(0))
    walk, _peek, start, scale = oracle_walk_peek_c2_prepare(a, bs)(refined, projection)
    assert fast == oracle_counter_scan(12, 1, walk, start, scale, F(0))
    assert fast[0] > 0

    # pairs of events on Z/6 against a target whose first event is a third
    # of an anchor atom: every discrepancy is at least 1/18, so no candidate
    # is a hit at the stop 0
    small = quotient_action(cyclic_group(6, [1]))
    big = product_action(small, validate_algebra([F(1, 3), F(2, 3)]))[0]
    embed = PartialIsomorphism.of(
        small.algebra, big.algebra, [([x], [2 * x, 2 * x + 1]) for x in range(6)]
    )
    blocks = _check_embedding(small, big, embed)
    anchors = EventTuple.of_members(small.algebra, [[0, 1, 2]])
    target_tuple = EventTuple.of_members(big.algebra, [[0], [2, 5, 6]])
    words = [(), (1,)]
    target = _triple_pattern(big.algebra, big, pushed_forward(embed, anchors), target_tuple, words)
    prepare = _ec_prepare(
        anchors, pulled_back(small.algebra, target_tuple, blocks), words, *ec_target(big, target)
    )
    refined, projection = product_action(small, uniform_algebra(1))
    patterns = []
    real = audit._triple_units

    def counting(*args):
        patterns.append(args)
        return real(*args)

    with mock.patch.object(audit, "_triple_units", counting):
        fast = _search_best(6, 2, prepare(refined, projection), F(0))
        assert fast[0] > 0 and len(patterns) == count
        scores = prepare(refined, projection)[0](0)
        assert len(scores) == count
        # cuts just above the first score, the least score, and two between
        levels = sorted(set(scores))
        for cut in {scores[0] + 1, levels[0] + 1, levels[1] + 1, levels[len(levels) // 2] + 1}:
            h = next(i for i, v in enumerate(scores) if v < cut)
            patterns.clear()
            assert prepare(refined, projection)[0](cut) == scores[: h + 1]
            assert len(patterns) == h + 1


# ---------------------------------------------------------------------------
# the packed C2 scorer against the toggling scorers it replaced
#
# Two oracles, each the second-condition scorer as it once was, in units of
# 1/(2D).  The first, flip(coord, atom), changes the tuple in place, keeps
# the residuals in a dict and updates the total with abs.  The second, the
# walk/peek scorer, is checked against it: walk applies toggles in order and
# returns each new score, peek scores one toggle and changes nothing, and a
# toggle updates only the k + 1 atoms it moves.


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
        keys = [pack(signs) for signs in oracle_sign_map(lift_tuple(a, alg, projection))]
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


def oracle_walk_peek_c2_prepare(a, tuples):
    """prepare(refined, projection) -> (walk, peek, start, scale): the
    walk/peek scorer, holding the all-empty tuple at first.  Residuals
    target - count are kept per packed key; toggling atom x of c_j moves
    each of the k + 1 atoms g_i(x), all of weight w, from its key to the key
    with one bit flipped: the key it leaves gains w, which changes the total
    by w, -w or 2d + w as its residual d is >= 0, <= -w or in between, and
    the key it enters loses w, the mirror image.  Two generators may send x
    to the same y; the second move then starts from the key the first one
    left.  peek undoes the moves in reverse order.  scale is 2D."""
    base_arity = a.arity
    arity = tuples[0].arity

    def pack(signs):
        return sum(bit << i for i, bit in enumerate(signs))

    law = joint_distribution(a, tuples[0].concat(*tuples[1:]))
    bits = [
        [1 << (base_arity + i * arity + j) for i in range(len(tuples))]
        for j in range(arity)
    ]

    def prepare(refined, projection):
        alg = refined.algebra
        denom, weights, size = alg.den, alg.units, alg.size
        keys = [pack(signs) for signs in oracle_sign_map(lift_tuple(a, alg, projection))]
        diff = defaultdict(int)
        for (r, s), m in law.mass.items():
            diff[pack(r) | pack(s) << base_arity] = m.numerator * (denom // m.denominator)
        for key, w in zip(keys, weights):
            diff[key] -= w
        total = sum(map(abs, diff.values()))
        images = [range(size)] + list(refined.gens)
        moves = [
            (weights[x], [(g[x], bit) for g, bit in zip(images, bits[j])])
            for j in range(arity)
            for x in range(size)
        ]

        def apply(b, t):
            w, flips = moves[b]
            for y, bit in flips:
                old = keys[y]
                new = keys[y] = old ^ bit
                d = diff[old]
                diff[old] = d + w
                e = diff[new]
                diff[new] = e - w
                t += (w if d >= 0 else -w if d <= -w else 2 * d + w) + (
                    w if e <= 0 else -w if e >= w else w - 2 * e
                )
            return t

        def walk(indices):
            nonlocal total
            scores = []
            for b in indices:
                total = apply(b, total)
                scores.append(total)
            return scores

        def peek(b):
            t = apply(b, total)
            w, flips = moves[b]
            for y, bit in reversed(flips):
                new = keys[y]
                old = keys[y] = new ^ bit
                diff[old] -= w
                diff[new] += w
            return t

        return walk, peek, total, 2 * denom

    return prepare


def oracle_flip_descent(size, arity, flip, value, scale, seed, floor):
    """The greedy descent as it was, from the flip scorer at the all-empty
    tuple, scoring value, in units of 1/scale: each toggle is scored by
    flipping it and flipping it back, and the first strict best is flipped
    in."""
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
    """The walk/peek oracle of the packed scorer: walk returns the flip
    oracle's scores one by one, peek returns what a flip would, at every
    step and for every toggle, and the walks after a peek score as if it
    never happened."""
    act, a, bs, depth, script = instance
    refined, projection = product_action(act, uniform_algebra(depth))
    size = refined.algebra.size
    walk, peek, start, _scale = oracle_walk_peek_c2_prepare(a, bs)(refined, projection)
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
    _scan, _descend, scale, seed, floor = scorer
    flip, start = oracle_flip_c2_prepare(a, bs)(refined, projection)
    expected = oracle_flip_descent(size, arity, flip, start, 2 * scale, seed, 2 * floor)
    assert _search_best(size, arity, scorer, F(0)) == expected


class StubDescent:
    """A greedy scorer on one coordinate of size atoms: a tuple scores base
    plus the number of toggles that separate it from goal.  Each round's
    first toggle of least score adds or drops the least atom of the
    difference.  log records each read and each move."""

    def __init__(self, size, goal, base, floor, seed=()):
        self.size, self.goal, self.base = size, set(goal), base
        self.current = set(seed)
        self.log = []
        self.scorer = (None, self.descend, 1, (tuple(seed),), floor)

    def score(self, members):
        return self.base + len(members ^ self.goal)

    def descend(self):
        return self.neighbours, self.move

    def neighbours(self):
        self.log.append("read")
        toggles = [self.score(self.current ^ {b}) for b in range(self.size)]
        return toggles + [self.score(self.current)]

    def move(self, b):
        self.log.append(b)
        self.current ^= {b}


def test_descent_reads_once_per_round_it_starts():
    """The first read scores the seed; a round that finds no better toggle
    ends the descent after its read, and no read follows a move to the
    floor or the last of GREEDY_ROUNDS moves."""
    size = 20
    assert 1 << size > EXHAUSTIVE_TUPLE_CAP

    # no move reaches the floor: the last read finds no better toggle
    stub = StubDescent(size, goal={3, 5, 8}, base=2, floor=0)
    assert _search_best(size, 1, stub.scorer, F(0)) == (2, ((3, 5, 8),))
    assert stub.log == ["read", 3, "read", 5, "read", 8, "read"]

    # the move that reaches the floor is the last event
    stub = StubDescent(size, goal={3, 5, 8}, base=2, floor=2, seed=(5, 9))
    assert _search_best(size, 1, stub.scorer, F(0)) == (2, ((3, 5, 8),))
    assert stub.log == ["read", 3, "read", 8, "read", 9]

    # a seed at the floor, and one above it that no toggle improves: one
    # read each, and no move
    for base, floor in [(1, 1), (3, 0)]:
        stub = StubDescent(size, goal={4}, base=base, floor=floor, seed=(4,))
        assert _search_best(size, 1, stub.scorer, F(0)) == (base, ((4,),))
        assert stub.log == ["read"]

    # a seed whose first toggle scores below it
    stub = StubDescent(size, goal={0}, base=1, floor=0)
    assert _search_best(size, 1, stub.scorer, F(0)) == (1, ((0,),))
    assert stub.log == ["read", 0, "read"]

    # GREEDY_ROUNDS moves, each after one read, and none after the last
    size = GREEDY_ROUNDS + 6
    stub = StubDescent(size, goal=range(size), base=0, floor=0)
    assert _search_best(size, 1, stub.scorer, F(0)) == (6, (tuple(range(GREEDY_ROUNDS)),))
    assert stub.log == [event for b in range(GREEDY_ROUNDS) for event in ("read", b)]


def logged_reads(scorer):
    """scorer with a log of its descent's reads and moves."""
    scan, descend, scale, seed, floor = scorer
    log = []

    def logged():
        neighbours, move = descend()

        def read():
            log.append("read")
            return neighbours()

        def logged_move(b):
            log.append(b)
            move(b)

        return read, logged_move

    return (scan, logged, scale, seed, floor), log


def test_c2_seed_at_its_floor_is_read_once():
    """On Z/13, b1 = {0, 1} weighs twice b0 = {0}: the floor is 1 unit of
    1/13, and the seed b0 is at it, so the descent reads once and stops."""
    act = quotient_action(cyclic_group(13, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [])
    bs = [EventTuple.of_members(alg, [[0]]), EventTuple.of_members(alg, [[0, 1]])]
    refined, projection = product_action(act, uniform_algebra(1))
    scorer, log = logged_reads(c2_prepare(a, bs)(refined, projection))
    assert 1 << 13 > EXHAUSTIVE_TUPLE_CAP
    assert (scorer[2], scorer[3], scorer[4]) == (13, ((0,),), 1)
    assert _search_best(13, 1, scorer, F(0)) == (F(1, 13), ((0,),))
    assert log == ["read"]


def test_ec_seed_at_its_floor_is_read_once():
    """Under the identity embedding the target pulls back to itself, whose
    discrepancy is 0, the extension floor: the descent reads once and
    stops."""
    small = quotient_action(cyclic_group(7, [1]))
    alg = small.algebra
    embed = PartialIsomorphism.of(alg, alg, [([x], [x]) for x in range(7)])
    blocks = _check_embedding(small, small, embed)
    anchors = EventTuple.of_members(alg, [[0, 1, 2]])
    bs = EventTuple.of_members(alg, [[0, 3], [1, 2, 5]])
    words = [(), (1,)]
    target = _triple_pattern(alg, small, pushed_forward(embed, anchors), bs, words)
    pulled = pulled_back(alg, bs, blocks)
    assert pulled == bs
    refined, projection = product_action(small, uniform_algebra(1))
    prepare = _ec_prepare(anchors, pulled, words, *ec_target(small, target))
    scorer, log = logged_reads(prepare(refined, projection))
    assert 1 << 14 > EXHAUSTIVE_TUPLE_CAP
    assert _search_best(7, 2, scorer, F(0)) == (0, ((0, 3), (1, 2, 5)))
    assert log == ["read"]


def assert_packed_matches_oracle(act, a, bs, depth, moves, scan_whole=True):
    """At one depth, the packed scan gives twice the scores of a counter
    walk of the walk/peek oracle (scan_whole), and each read of the packed
    descent gives twice its scores, by peek, at every toggle, and in its
    last field twice the walk's score of the current tuple, at the seed and
    after each of the moves; c2_distance gives the seed's value and the
    last field after every move."""
    refined, projection = product_action(act, uniform_algebra(depth))
    size, arity = refined.algebra.size, bs[0].arity
    n = size * arity
    scan, descend, scale, seed, _floor = c2_prepare(a, bs)(refined, projection)
    oracle = oracle_walk_peek_c2_prepare(a, bs)
    if scan_whole:
        walk, _peek, start, oracle_scale = oracle(refined, projection)
        assert oracle_scale == 2 * scale
        scores = unpacked(scan(0), 1 << n, scale)
        assert [2 * s for s in scores] == counter_scores(size, arity, walk, start)
        # the first hit read from the packed scan, against the list scan
        scorer = c2_prepare(a, bs)(refined, projection)
        for stop in {F(0), F(2), F(sorted(scores)[len(scores) // 2], scale)}:
            best_i = oracle_list_selection(scores, search_cut(stop, scale, scorer[4]))
            assert _search_best(size, arity, scorer, stop) == (
                F(scores[best_i], scale), members_of(best_i, size, arity)
            )
    walk, peek, start, _oracle_scale = oracle(refined, projection)
    evaluate, _seed = oracle_c2_prepare(a, bs)(refined, projection)
    toggles = toggles_of(seed, size)
    neighbours, move = descend()
    scores = neighbours()
    value = scores[-1]
    own = walk(toggles)[-1] if toggles else start
    current = seed
    for b in list(moves) + [None]:
        assert [2 * v for v in scores[:-1]] == list(map(peek, range(n)))
        assert 2 * scores[-1] == own
        assert F(scores[-1], scale) == evaluate(current)
        if b is not None:
            move(b)
            [own] = walk([b])
            current = toggled(current, b, size)
            scores = neighbours()
    assert F(value, scale) == evaluate(seed)


# classes of equal-mass atoms weigh 1-9 units, or past 2**13, 2**30 or 2**62
# units, so that fields of 1, 2, 4, 8 and 16 bytes are all drawn
_WEIGHTS = (
    st.integers(1, 9)
    | st.integers(2**13, 2**14)
    | st.integers(2**30, 2**31)
    | st.integers(2**62, 2**64)
)


@st.composite
def _packed_instances(draw):
    """Atoms of unequal masses that k = 1..3 generators shuffle (see
    _class_action), an anchor of arity 0-2, parameters of arity 0-3 pushed
    from b0 or drawn freely, a depth with at most 2**10 candidates, and a
    few moves."""
    arity = draw(st.integers(0, 3))
    n = draw(st.integers(1, 10 // arity if arity else 4))
    act = _class_action(draw, n, max_gens=3, weights=_WEIGHTS)
    a, bs = _toggle_parameters(draw, act, arity)
    depth = draw(st.integers(1, max(1, 10 // (n * arity)) if arity else 3))
    size = n * depth * arity
    moves = draw(st.lists(st.integers(0, size - 1), max_size=4)) if size else []
    return act, a, bs, depth, moves


@given(_packed_instances())
@settings(max_examples=60, deadline=None)
def test_packed_c2_scan_and_neighbours_match_the_walk_peek_oracle(instance):
    assert_packed_matches_oracle(*instance)


def test_packed_c2_where_two_generators_agree_at_an_atom():
    """Z/4 with shifts {1, 5}: both generators send every atom to the same
    one, so each toggle's two flips on that atom merge into one XOR."""
    act = quotient_action(cyclic_group(4, [1, 5]))
    assert act.gens[0] == act.gens[1]
    rng = random.Random(31)
    a = random_tuple(rng, act.algebra, 1)
    bs = [random_tuple(rng, act.algebra, 2) for _ in range(3)]
    for depth in (1, 2):
        moves = [rng.randrange(8 * depth) for _ in range(6)]
        assert_packed_matches_oracle(act, a, bs, depth, moves, scan_whole=depth == 1)


def test_packed_c2_past_a_denominator_of_2_63():
    """Masses with a denominator past 2**64: fields of 16 bytes, read by
    int.from_bytes, over a whole 4096-candidate scan at depth 2."""
    den = 2**64 + 1
    x = 2**62 + 3
    alg = validate_algebra([F(x, den), F(x, den), F(den - 2 * x, den)])
    act = validate_action(alg, [(1, 0, 2), (0, 1, 2)])
    assert alg.den == den and audit._field_bytes(den) == 16
    rng = random.Random(63)
    a = random_tuple(rng, alg, 1)
    bs = [random_tuple(rng, alg, 2) for _ in range(3)]
    assert_packed_matches_oracle(act, a, bs, 2, [rng.randrange(12) for _ in range(6)])


@pytest.mark.parametrize("base_arity", [0, 1], ids=["16-key-bits", "17-key-bits"])
def test_c2_packed_scorer_on_wide_keys(base_arity):
    """Z/4 with shifts {1, 5, 3} (two generators agree) and parameters of
    arity 4 pack 16 key bits, plus one per anchor event, and 16 candidate
    bits, past the exhaustive cap: the descent's neighbours and moves give
    the oracle's scores along 64 random moves."""
    act = quotient_action(cyclic_group(4, [1, 5, 3]))
    rng = random.Random(18)
    a = random_tuple(rng, act.algebra, base_arity)
    bs = [random_tuple(rng, act.algebra, 4) for _ in range(4)]
    moves = [rng.randrange(16) for _ in range(64)]
    assert_packed_matches_oracle(act, a, bs, 1, moves, scan_whole=False)


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
    _scan, _descend, scale, _seed, floor = prepare(refined, projection)
    least = brute_force_minimum(act, a, bs, depth)
    assert 0 <= extension_floor(bs) <= F(floor, scale) <= least
    size, arity = refined.algebra.size, bs[0].arity
    fast = _search_best(size, arity, prepare(refined, projection), stop)
    walk, _peek, start, oracle_scale = oracle_walk_peek_c2_prepare(a, bs)(refined, projection)
    assert fast == oracle_counter_scan(size, arity, walk, start, oracle_scale, stop)


def test_scan_stops_at_the_first_candidate_at_the_floor():
    """On Z/12, b1 weighs twice b0, so no candidate c and its push g(c)
    match them: the floor is 1 unit of 1/12, candidate {0} is the first to
    reach it, and the scan returns it, as the counter scan that stops there
    does."""
    act = quotient_action(cyclic_group(12, [1]))
    alg = act.algebra
    a = EventTuple.of_members(alg, [range(6)])
    bs = [EventTuple.of_members(alg, [[0]]), EventTuple.of_members(alg, [[5, 6]])]
    refined, projection = product_action(act, uniform_algebra(1))
    scorer = c2_prepare(a, bs)(refined, projection)
    assert (scorer[2], scorer[4]) == (12, 1)
    fast = _search_best(12, 1, scorer, F(0))
    assert fast == (F(1, 12), ((0,),))
    walk, _peek, start, scale = oracle_walk_peek_c2_prepare(a, bs)(refined, projection)
    assert fast == oracle_counter_scan(12, 1, walk, start, scale, F(0))


@given(_floor_instances())
@settings(max_examples=40, deadline=None)
def test_residual_stop_is_above_every_floor(instance):
    """The residual stops at 2 * worst, and each depth's floor is at most
    worst: the floors could never end its search sooner."""
    act, a, bs, depth = instance
    report = check_C1(act, a, bs, F(1))
    worst = max(report.xi + report.psi)
    refined, projection = product_action(act, uniform_algebra(depth))
    _scan, _descend, scale, _seed, floor = c2_prepare(a, bs)(refined, projection)
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
    assert res.lower_bound == lower <= res.distance
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
