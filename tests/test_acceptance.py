"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at full
stated scale, with its own wall-clock budget, against independent
recomputation (brute force oracles where they exist)."""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import pmplab
from pmplab.algebra import (
    AtomPartition,
    EventTuple,
    dist_max,
    dist_partition,
    joint_distribution,
    lift_tuple,
    validate_algebra,
)
from pmplab.action import (
    apply_gen_tuple,
    invariant_components,
    product_action,
    uniform_distance,
    validate_action,
)
from pmplab.audit import C2SearchResult, axiom_residual, check_C1, search_C2_witness
from pmplab.constructions import (
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
from pmplab.errors import InstanceTooLarge, PreconditionInvariantElement
from pmplab.modeltheory import (
    independence_deficiency,
    joint_tv_distance,
    relatively_independent_joining,
    triple_law,
    type_distance_tv,
)

from conftest import (
    cycle_mismatch_pair,
    marked_group_isomorphism,
    oracle_type_distance,
    random_algebra,
    random_event,
    random_mass_preserving_perm,
    random_partial_automorphism,
    random_permutation,
    random_small_order_action,
    random_transitive_small_action,
    random_tuple,
    uniform_algebra,
)
from test_action import brute_force_uniform_distance

F = Fraction


class Budget:
    """Wall-clock guard: elapsed() asserts against the stated bound."""

    def __init__(self, seconds: float):
        self.bound = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.bound, f"took {elapsed:.1f}s, budget {self.bound}s"


def test_criterion_01_metric_sandwich():
    budget = Budget(5)
    rng = random.Random(1001)
    for _ in range(1000):
        alg = random_algebra(rng, max_atoms=8, max_den=60)
        n = rng.randint(1, 4)
        a = random_tuple(rng, alg, arity=n)
        b = random_tuple(rng, alg, arity=n)
        d = dist_max(a, b)
        dp = dist_partition(a, b)
        assert d <= dp <= n * 2 ** (n - 1) * d
    budget.check()


def test_criterion_02_single_event_equality():
    budget = Budget(1)
    rng = random.Random(1002)
    for _ in range(1000):
        alg = random_algebra(rng, max_atoms=8, max_den=60)
        a = EventTuple(alg, (random_event(rng, alg),))
        b = EventTuple(alg, (random_event(rng, alg),))
        assert dist_partition(a, b) == dist_max(a, b)
    budget.check()


def test_criterion_03_matching_preserves_partition_distance():
    budget = Budget(30)
    rng = random.Random(1003)
    for _ in range(200):
        alg = random_algebra(rng, max_atoms=6, max_den=24)
        arity = rng.randint(1, 3)
        a = random_tuple(rng, alg, arity=arity)
        perm = random_mass_preserving_perm(rng, alg)
        b = EventTuple.of_members(
            alg, [sorted(perm[x] for x in e.members) for e in a.events]
        )
        m = match_partitions(a, b)
        mapped = EventTuple.of_members(
            m.refined,
            [sorted(m.perm[x] for x in e.members) for e in m.a_lifted.events],
        )
        assert mapped == m.b_lifted
        identity = tuple(range(len(m.refined.atoms)))
        assert uniform_distance(m.refined, m.perm, identity) <= m.dp
        assert m.dp == dist_partition(a, b)
        for _ in range(100):
            c = random_tuple(rng, m.refined, arity=1)
            gc = EventTuple.of_members(
                m.refined, [sorted(m.perm[x] for x in e.members) for e in c.events]
            )
            left = EventTuple(m.refined, m.a_lifted.events + c.events)
            right = EventTuple(m.refined, m.b_lifted.events + gc.events)
            assert dist_partition(left, right) == m.dp
    budget.check()


def test_criterion_04_uniform_distance_closed_form_vs_brute_force():
    budget = Budget(30)
    rng = random.Random(1004)
    for _ in range(200):
        alg = random_algebra(rng, max_atoms=12, max_den=48)
        g = random_mass_preserving_perm(rng, alg)
        h = random_mass_preserving_perm(rng, alg)
        assert uniform_distance(alg, g, h) == brute_force_uniform_distance(alg, g, h)
    budget.check()


def test_criterion_05_type_distance_tv_vs_oracle():
    budget = Budget(60)
    rng = random.Random(1005)
    checked = 0
    skipped = 0

    def check(base, b, c, grid):
        nonlocal checked, skipped
        try:
            got = oracle_type_distance(base, b, c, grid=grid)
        except InstanceTooLarge:
            skipped += 1
            return
        assert got == type_distance_tv(base, b, c)
        checked += 1

    small_algebras = [
        validate_algebra([F(1)]),
        validate_algebra([F(1, 2), F(1, 2)]),
        validate_algebra([F(1, 3), F(2, 3)]),
        validate_algebra([F(1, 12), F(5, 12), F(1, 2)]),
    ]
    for alg in small_algebras:
        grid = alg.den
        n = alg.size
        events = [tuple(m) for r in range(n + 1)
                  for m in _subsets(range(n), r)]
        bases = [EventTuple.of_members(alg, [])] + [
            EventTuple.of_members(alg, [list(e)]) for e in events
        ]
        for base in bases:
            for eb in events:
                for ec in events:
                    check(
                        base,
                        EventTuple.of_members(alg, [list(eb)]),
                        EventTuple.of_members(alg, [list(ec)]),
                        grid,
                    )
    for _ in range(120):
        alg = random_algebra(rng, max_atoms=4, max_den=12)
        base = random_tuple(rng, alg, arity=rng.choice([0, 1]))
        arity = rng.randint(1, 2)
        b = random_tuple(rng, alg, arity=arity)
        c = random_tuple(rng, alg, arity=arity)
        check(base, b, c, alg.den)
    assert checked >= 500
    assert skipped <= checked // 10
    budget.check()


def _subsets(pool, size):
    from itertools import combinations

    return combinations(pool, size)


def test_criterion_06_independence_identities():
    budget = Budget(10)
    rng = random.Random(1006)
    zeros = 0
    for _ in range(500):
        alg = random_algebra(rng, max_atoms=6, max_den=18)
        base = random_tuple(rng, alg, arity=rng.choice([0, 1]))
        b = random_tuple(rng, alg, arity=1)
        c = random_tuple(rng, alg, arity=1)
        dp = independence_deficiency(base, b, c)
        law = triple_law(base, c, b)
        join = relatively_independent_joining(base, b, c)
        jb = joint_distribution(base, b)
        jc = joint_distribution(base, c)
        marg = jb.base_marginal()
        identity = all(
            law.mass.get((r, t, s), F(0)) * marg[r]
            == jb.mass.get((r, s), F(0)) * jc.mass.get((r, t), F(0))
            for r in marg
            for t in {t2 for (r2, t2) in jc.mass if r2 == r}
            for s in {s2 for (r2, s2) in jb.mass if r2 == r}
        )
        joint_equal = law.mass == join.mass
        assert (dp == 0) == identity == joint_equal
        assert (dp == 0) == (independence_deficiency(base, c, b) == 0)
        zeros += dp == 0
    assert 0 < zeros < 500
    budget.check()


def test_criterion_07_equal_atom_extension_of_partials():
    budget = Budget(10)
    rng = random.Random(1007)
    for _ in range(200):
        alg = random_algebra(rng, max_atoms=6, max_den=24)
        partials = [
            random_partial_automorphism(rng, alg)
            for _ in range(rng.randint(1, 3))
        ]
        ext = eppa_extend(alg, partials)
        assert len(set(ext.algebra.atoms)) == 1
        blocks = ext.embedding.atom_blocks()
        for p, gen in zip(partials, ext.action.gens):
            for src, tgt in p.pairs:
                src_units = {u for x in src for u in blocks[x]}
                tgt_units = {u for x in tgt for u in blocks[x]}
                assert {gen[u] for u in src_units} == tgt_units
    budget.check()


def _blockwise_action(rng, blocks, per, force_cycle):
    n = blocks * per
    alg = uniform_algebra(n)
    fixed = AtomPartition.of(
        alg, [list(range(b * per, (b + 1) * per)) for b in range(blocks)]
    )
    gens = []
    for gi in range(rng.randint(1, 2)):
        if gi == 0 and force_cycle:
            block_perm = [(b + 1) % blocks for b in range(blocks)]
        else:
            block_perm = list(range(blocks))
            rng.shuffle(block_perm)
        perm = [0] * n
        for b in range(blocks):
            slots = list(range(block_perm[b] * per, (block_perm[b] + 1) * per))
            rng.shuffle(slots)
            for off, x in enumerate(range(b * per, (b + 1) * per)):
                perm[x] = slots[off]
        gens.append(tuple(perm))
    return validate_action(alg, gens), fixed


def _induced_block_map(act, fixed, gi):
    index = fixed.block_index()
    return [index[act.gens[gi][min(b)]] for b in fixed.blocks]


def test_criterion_08_ergodization():
    budget = Budget(10)
    rng = random.Random(1008)
    done = 0
    while done < 200:
        blocks = rng.randint(2, 5)
        per = rng.randint(1, 3)
        if blocks * per > 16:
            continue
        act, fixed = _blockwise_action(rng, blocks, per, force_cycle=True)
        comps = len(invariant_components(act).blocks)
        erg = ergodize(act, fixed)
        assert len(invariant_components(erg.action).blocks) == 1
        assert erg.modifications <= comps - 1
        for gi in range(act.k):
            assert _induced_block_map(act, fixed, gi) == _induced_block_map(
                erg.action, fixed, gi
            )
        done += 1
    violations = 0
    while violations < 30:
        blocks = rng.randint(2, 4)
        act, fixed = _blockwise_action(rng, blocks, rng.randint(1, 3), force_cycle=False)
        try:
            ergodize(act, fixed)
        except PreconditionInvariantElement as exc:
            union = set(exc.element)
            assert union and union != set(range(act.algebra.size))
            for g in act.gens:
                assert {g[x] for x in union} == union
            violations += 1
    budget.check()


def test_criterion_09_quotient_actions_of_marked_groups():
    budget = Budget(5)
    groups = [
        cyclic_group(2, [1]),
        cyclic_group(3, [1]),
        cyclic_group(6, [1]),
        permutation_marked_group([(1, 0, 2), (0, 2, 1)])[0],
    ]
    for group in groups:
        act = quotient_action(group)
        assert act.algebra.atoms == (F(1, group.order),) * group.order
        assert len(invariant_components(act).blocks) == 1
    jq = joint_quotient(cyclic_group(2, [1]), cyclic_group(3, [1]))
    assert jq.group.order == 6
    assert marked_group_isomorphism(jq.group, cyclic_group(6, [1])) is not None
    budget.check()


def test_criterion_10_sigma_embeddings():
    budget = Budget(30)
    rng = random.Random(1010)

    def check(emb, act):
        blocks = emb.sigma.atom_blocks()
        for c in range(act.algebra.size):
            assert act.algebra.atoms[c] == emb.target.algebra.mass_of(blocks[c])
            for i in range(act.k):
                pushed = {emb.target.gens[i][x] for x in blocks[c]}
                assert pushed == set(blocks[act.gens[i][c]])

    for _ in range(100):
        act = random_transitive_small_action(
            rng, rng.randint(2, 12), rng.randint(1, 2)
        )
        check(embed_transitive_into_quotient(act), act)
    for _ in range(100):
        act = random_small_order_action(rng, rng.randint(2, 12), rng.randint(1, 2))
        check(embed_into_profinite_tensor(act), act)
    budget.check()


def test_criterion_10_sigma_embedding_of_an_s6_action():
    budget = Budget(10)
    act = validate_action(
        uniform_algebra(6), [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
    )
    emb = embed_transitive_into_quotient(act)
    assert emb.group.order == 720
    blocks = emb.sigma.atom_blocks()
    for c in range(6):
        assert emb.target.algebra.mass_of(blocks[c]) == F(1, 6)
        for i in range(act.k):
            pushed = {emb.target.gens[i][x] for x in blocks[c]}
            assert pushed == set(blocks[act.gens[i][c]])
    budget.check()


def _single_atom_instances(group):
    act = quotient_action(group)
    alg = act.algebra
    for a_atom in range(alg.size):
        for b_atom in range(alg.size):
            a = EventTuple.of_members(alg, [[a_atom]])
            b0 = EventTuple.of_members(alg, [[b_atom]])
            bs = [b0] + [
                apply_gen_tuple(act, i, b0) for i in range(1, act.k + 1)
            ]
            yield act, a, bs


def _recompute_witness_distance(act, a, bs, res: C2SearchResult) -> Fraction:
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
    return joint_tv_distance(
        joint_distribution(a, bcat), joint_distribution(a_lift, ccat)
    )


def test_criterion_11_audit_soundness_on_cyclic_quotients():
    budget = Budget(10)
    for group in [cyclic_group(2, [1]), cyclic_group(3, [1]),
                  cyclic_group(2, [1, 1]), cyclic_group(3, [1, 2])]:
        for act, a, bs in _single_atom_instances(group):
            report = check_C1(act, a, bs, F(1, 1))
            assert report.xi == (F(0),) * act.k
            assert axiom_residual(act, a, bs, max_refine=1) == 0
            res = search_C2_witness(act, a, bs, F(1, 100), max_refine=1)
            assert _recompute_witness_distance(act, a, bs, res) == res.witness.distance
            assert res.witness.distance == 0
    budget.check()


@pytest.mark.xfail(
    strict=True,
    reason="a three-atom rotation with a parameter off the anchor's orbit "
    "closure has nonzero dependence defects even when every parameter is an "
    "exact generator push of the first one",
)
def test_criterion_11_dependence_defects_all_vanish():
    for group in [cyclic_group(2, [1]), cyclic_group(3, [1])]:
        for act, a, bs in _single_atom_instances(group):
            report = check_C1(act, a, bs, F(1, 1))
            assert report.psi == (F(0),) * (act.k + 1)


def test_criterion_12_conjugacy_certificates():
    budget = Budget(60)
    rng = random.Random(1012)
    for _ in range(20):
        n = rng.randint(2, 8)
        act = validate_action(
            uniform_algebra(n),
            [random_permutation(rng, n) for _ in range(rng.randint(1, 2))],
        )
        relabel = list(range(n))
        rng.shuffle(relabel)
        inv = [0] * n
        for i, r in enumerate(relabel):
            inv[r] = i
        gens2 = [
            tuple(relabel[g[inv[x]]] for x in range(n)) for g in act.gens
        ]
        act2 = validate_action(act.algebra, gens2)
        cert = approx_conjugacy_search(act, act2)
        assert cert.eps == 0
        assert verify_conjugacy(cert) == 0

    q = quotient_action(cyclic_group(2, [1]))
    t = product_action(q, validate_algebra([F(1, 2), F(1, 2)]))[0]
    cert = approx_conjugacy_search(q, t)
    assert verify_conjugacy(cert) == cert.eps
    assert cert.eps == 0
    budget.check()


def test_criterion_12_cycle_type_mismatch_is_settled_within_a_second():
    """An 8-cycle plus 4-cycles against 4-cycles only on 36 atoms: the exact
    phase refutes conjugacy and the beam's certificate re-verifies."""
    budget = Budget(1)
    a1, a2 = cycle_mismatch_pair(random.Random(36), 36)
    cert = approx_conjugacy_search(a1, a2)
    assert cert.eps == F(1, 18) and cert.exhausted
    assert verify_conjugacy(cert) == cert.eps
    budget.check()


def test_criterion_13_metatheorems_are_out_of_scope():
    """Large-scale existence and genericity results have no finite numeric
    content; the package must neither name them nor claim them.  Negative
    search outcomes are certified upper bounds; only the mass floor of the
    second condition refutes a witness."""
    public = [name.lower() for name in dir(pmplab)]
    for banned in ("companion", "generic", "comeager", "fraisse"):
        assert not any(banned in name for name in public)
    from pmplab.audit import C2SearchResult as R

    assert "upper bound" in (R.__doc__ or "")
    assert search_C2_witness.__doc__ and "best candidate" in search_C2_witness.__doc__
