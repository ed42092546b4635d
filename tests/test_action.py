"""Free-group actions on measured algebras: words, orbits, metrics,
refinements."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.algebra import (
    AtomPartition,
    Event,
    EventTuple,
    validate_algebra,
)
from pmplab import action as action_module
from pmplab.action import (
    FkAction,
    _cycle_distance,
    _cycles,
    _word_perm,
    extensions,
    generated_subalgebra,
    invariant_components,
    perm_compose,
    perm_inverse,
    product_action,
    uniform_distance,
    uniform_distance_tuples,
    validate_action,
)
from pmplab.errors import (
    AlgebraMismatch,
    ArityMismatch,
    InstanceTooLarge,
    LetterOutOfRange,
    NotBijective,
    NotMeasurePreserving,
    ValidationError,
)
from pmplab.limits import MAX_REFINED_ATOMS

from conftest import (
    event_image,
    letter_image,
    oracle_sign_map,
    random_algebra,
    random_event,
    random_mass_preserving_perm,
    random_permutation,
    random_tuple,
    uniform_algebra,
)

F = Fraction


def z2_action() -> FkAction:
    alg = validate_algebra([F(1, 2), F(1, 2)])
    return validate_action(alg, [(1, 0)])


def test_validate_action_rejects_bad_generators():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    with pytest.raises(NotBijective):
        validate_action(alg, [(0, 0)])
    alg2 = validate_algebra([F(1, 3), F(2, 3)])
    with pytest.raises(NotMeasurePreserving):
        validate_action(alg2, [(1, 0)])


def word_image(act, w, e):
    """The image of an event under a word's permutation, as audit-ec moves
    its fibers."""
    return event_image(_word_perm(act, w), e)


def test_apply_word_examples():
    act = z2_action()
    e = Event.of(act.algebra, [0])
    assert word_image(act, (), e).members == (0,)
    assert word_image(act, (1,), e).members == (1,)
    assert word_image(act, (1, -1), e).members == (0,)
    assert _word_perm(act, (1,)) is act.gens[0]
    assert _word_perm(act, ()) == (0, 1)
    # letters 0 and +-(k + 1) are refused; the first from the right is named
    for letter in (0, 2, -2):
        for w in [(letter,), (1, letter, -1), (letter, 1)]:
            with pytest.raises(LetterOutOfRange) as info:
                _word_perm(act, w)
            assert str(info.value) == f"letter {letter} is not in range for k = 1"
    with pytest.raises(LetterOutOfRange, match="letter 3 is"):
        _word_perm(act, (2, 3))


def test_apply_word_is_an_action():
    rng = random.Random(5)
    alg = uniform_algebra(6)
    act = validate_action(
        alg, [random_permutation(rng, 6), random_permutation(rng, 6)]
    )
    for _ in range(40):
        w1 = tuple([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))])
        w2 = tuple([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))])
        e = Event.of(alg, [i for i in range(6) if rng.random() < 0.5])
        combined = w1 + w2
        assert word_image(act, combined, e) == word_image(
            act, w1, word_image(act, w2, e)
        )
        assert word_image(act, w1, e).mass == e.mass


def oracle_apply_word(act, w, e):
    """A word's image of an event, letter by letter, rightmost letter first."""
    out = e
    for letter in reversed(w):
        out = event_image(letter_image(act, letter), out)
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except LetterOutOfRange as err:
        return ("LetterOutOfRange", str(err))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(-3, 3), max_size=5))
def test_apply_word_matches_the_letter_by_letter_oracle(seed, letters):
    """One permutation per word moves every event as its letters do, and an
    out-of-range letter raises the same error; letters 0 and +-3 are out of
    range for k = 2."""
    rng = random.Random(seed)
    alg = random_algebra(rng, max_atoms=8)
    act = validate_action(alg, [random_mass_preserving_perm(rng, alg) for _ in range(2)])
    e = random_event(rng, alg)
    w = tuple(letters)
    assert _outcome(word_image, act, w, e) == _outcome(oracle_apply_word, act, w, e)


def test_word_perm_inverts_each_generator_once(monkeypatch):
    """A word inverts each generator at most once, however often its
    inverse letter repeats."""
    rng = random.Random(47)
    act = validate_action(uniform_algebra(5), [random_permutation(rng, 5) for _ in range(2)])
    calls = []

    def counted(p):
        calls.append(p)
        return perm_inverse(p)

    monkeypatch.setattr(action_module, "perm_inverse", counted)
    got = _word_perm(act, (-1, -2, -1, -1))
    assert len(calls) == 2 and set(calls) == set(act.gens)
    inv1, inv2 = (perm_inverse(g) for g in act.gens)
    assert got == perm_compose(inv1, perm_compose(inv2, perm_compose(inv1, inv1)))


def test_invariant_components_examples():
    act = z2_action()
    assert invariant_components(act).blocks == (frozenset({0, 1}),)
    assert len(invariant_components(act).blocks) == 1

    triv = validate_action(validate_algebra([F(1, 2), F(1, 2)]), [(0, 1)])
    assert len(invariant_components(triv).blocks) == 2

    alg4 = uniform_algebra(4)
    act4 = validate_action(alg4, [(1, 0, 3, 2), (0, 1, 2, 3)])
    assert invariant_components(act4).blocks == (
        frozenset({0, 1}),
        frozenset({2, 3}),
    )


def test_generated_subalgebra_examples():
    act = z2_action()
    part = generated_subalgebra(act, EventTuple.of_members(act.algebra, [[0]]))
    assert part.blocks == (frozenset({0}), frozenset({1}))

    triv = validate_action(
        validate_algebra([F(1, 2), F(1, 4), F(1, 4)]), [(0, 1, 2)]
    )
    part2 = generated_subalgebra(triv, EventTuple.of_members(triv.algebra, [[0]]))
    assert part2.blocks == (frozenset({0}), frozenset({1, 2}))

    # with no seed events the coarsest invariant refinement of {whole} is
    # {whole} itself, whatever the orbit structure
    part3 = generated_subalgebra(triv, EventTuple.of_members(triv.algebra, []))
    assert part3.blocks == (frozenset({0, 1, 2}),)


def _closure_blocks(act: FkAction, seeds: list[frozenset[int]]) -> set[frozenset[int]]:
    """Oracle: boolean/equivariant closure of the seed events, then minimal
    nonempty elements."""
    universe = frozenset(range(act.algebra.size))
    sets: set[frozenset[int]] = {universe}
    for s in seeds:
        sets.add(frozenset(s))
    perms = act.gens + tuple(map(perm_inverse, act.gens))
    changed = True
    while changed:
        changed = False
        snapshot = list(sets)
        for s in snapshot:
            for new in [universe - s]:
                if new not in sets:
                    sets.add(new)
                    changed = True
        snapshot = list(sets)
        for s, t in combinations(snapshot, 2):
            new = s & t
            if new not in sets:
                sets.add(new)
                changed = True
        snapshot = list(sets)
        for p in perms:
            for s in snapshot:
                new = frozenset(p[x] for x in s)
                if new not in sets:
                    sets.add(new)
                    changed = True
    blocks = set()
    for x in range(act.algebra.size):
        block = universe
        for s in sets:
            if x in s:
                block &= s
        blocks.add(block)
    return blocks


def test_generated_subalgebra_refuses_events_on_another_algebra():
    act = z2_action()
    seed = EventTuple.of_members(uniform_algebra(2), [[0]])
    with pytest.raises(AlgebraMismatch) as raised:
        generated_subalgebra(act, seed)
    assert str(raised.value) == "seed events do not live on the action's algebra"


def test_generated_subalgebra_matches_boolean_closure_oracle():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 7)
        alg = uniform_algebra(n)
        act = validate_action(
            alg, [random_permutation(rng, n) for _ in range(rng.randint(1, 2))]
        )
        seeds = [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(0, 2))
        ]
        t = EventTuple.of_members(alg, [sorted(s) for s in seeds])
        got = set(generated_subalgebra(act, t).blocks)
        assert got == _closure_blocks(act, seeds)


def oracle_generated_subalgebra(act: FkAction, events: EventTuple) -> AtomPartition:
    """generated_subalgebra as frozenset blocks, rebuilt and re-sorted by
    least member in every round until their number stops growing."""
    signs = oracle_sign_map(events)
    groups: dict[tuple, set[int]] = {}
    for atom in range(act.algebra.size):
        groups.setdefault(signs[atom], set()).add(atom)
    blocks = sorted((frozenset(g) for g in groups.values()), key=min)
    while True:
        index: dict[int, int] = {}
        for i, b in enumerate(blocks):
            for atom in b:
                index[atom] = i
        split: dict[tuple[int, ...], set[int]] = {}
        for atom in range(act.algebra.size):
            key = (index[atom],) + tuple(index[p[atom]] for p in act.gens)
            split.setdefault(key, set()).add(atom)
        new_blocks = sorted((frozenset(g) for g in split.values()), key=min)
        if len(new_blocks) == len(blocks):
            return AtomPartition(act.algebra, tuple(blocks))
        blocks = new_blocks


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(0, 3))
def test_generated_subalgebra_matches_the_block_oracle(seed, k, arity):
    rng = random.Random(seed)
    alg = random_algebra(rng, max_atoms=12)
    act = validate_action(alg, [random_mass_preserving_perm(rng, alg) for _ in range(k)])
    t = random_tuple(rng, alg, arity)
    assert generated_subalgebra(act, t) == oracle_generated_subalgebra(act, t)


def test_equal_refine_and_tensor_examples():
    act = z2_action()
    refined, projection = product_action(act, uniform_algebra(2))
    assert refined.algebra.atoms == (F(1, 4),) * 4
    assert refined.gens == ((2, 3, 0, 1),)
    assert projection == (0, 0, 1, 1)

    tens, projection = product_action(act, validate_algebra([F(1, 2), F(1, 2)]))
    assert tens.algebra.atoms == (F(1, 4),) * 4
    assert tens.gens == ((2, 3, 0, 1),)
    assert projection == (0, 0, 1, 1)

    copy, projection = product_action(act, validate_algebra([F(1)]))
    assert copy.gens == act.gens
    assert copy.algebra.atoms == act.algebra.atoms
    assert projection == (0, 1)


def brute_force_uniform_distance(alg, g, h) -> Fraction:
    """Oracle: sup of mu(g e triangle h e) over all events, by integer-mass
    dynamic programming over bitmasks."""
    den = alg.den
    units = [int(m * den) for m in alg.atoms]
    n = alg.size
    size = 1 << n
    gmask = [0] * size
    hmask = [0] * size
    weight = [0] * size
    for m in range(1, size):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        gmask[m] = gmask[rest] | (1 << g[low])
        hmask[m] = hmask[rest] | (1 << h[low])
        weight[m] = weight[rest] + units[low]
    best = 0
    for m in range(size):
        d = weight[gmask[m] ^ hmask[m]]
        if d > best:
            best = d
    return Fraction(best, den)


def test_uniform_distance_examples():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    assert uniform_distance(alg, (1, 0), (1, 0)) == 0
    assert uniform_distance(alg, (1, 0), (0, 1)) == 1
    alg3 = uniform_algebra(3)
    assert uniform_distance(alg3, (1, 2, 0), (0, 1, 2)) == F(2, 3)
    assert brute_force_uniform_distance(alg, (1, 0), (0, 1)) == 1
    assert brute_force_uniform_distance(alg3, (1, 2, 0), (0, 1, 2)) == F(2, 3)


def test_cycle_distance_raises_on_a_table_that_is_not_a_permutation():
    """A walk that reaches an atom a second time names it instead of looping:
    from atom 0 the table (1, 1, 0) reaches atom 1, then atom 1 again."""
    with pytest.raises(NotBijective, match="atom 1"):
        _cycle_distance(uniform_algebra(3), (1, 1, 0))


def test_cycles_start_at_their_least_atoms_in_increasing_order():
    """(least atom, length) pairs, the fixed points included, for the one
    cycle walk that the distance and the cycle-type conjugacy both read."""
    assert _cycles(()) == []
    assert _cycles((0,)) == [(0, 1)]
    assert _cycles((3, 2, 1, 4, 0, 5)) == [(0, 3), (1, 2), (5, 1)]
    rng = random.Random(53)
    for n in range(1, 30):
        p = random_permutation(rng, n)
        cycles = _cycles(p)
        assert [x for x, _ in cycles] == sorted(x for x, _ in cycles)
        orbits = []
        for x, length in cycles:
            orbit = [x]
            while p[orbit[-1]] != x:
                orbit.append(p[orbit[-1]])
            assert len(orbit) == length and min(orbit) == x
            orbits += orbit
        assert sorted(orbits) == list(range(n))


@pytest.mark.parametrize("table, atom", [((1, 1), 1), ((0, 0, 1), 0)])
def test_cycles_raise_on_a_table_that_is_not_a_permutation(table, atom):
    """(1, 1) walks from atom 0 into the loop at atom 1, and (0, 0, 1)
    walks from atom 1 into the closed cycle of atom 0: each names the atom
    reached twice instead of looping."""
    with pytest.raises(NotBijective, match=f"atom {atom} is reached twice"):
        _cycles(table)


def test_uniform_distance_matches_brute_force_on_mixed_masses():
    rng = random.Random(31)
    for _ in range(40):
        alg = random_algebra(rng, max_atoms=7, max_den=24)
        g = random_mass_preserving_perm(rng, alg)
        h = random_mass_preserving_perm(rng, alg)
        assert uniform_distance(alg, g, h) == brute_force_uniform_distance(alg, g, h)


def test_uniform_distance_invariance_under_composition():
    rng = random.Random(47)
    for _ in range(25):
        alg = random_algebra(rng, max_atoms=6, max_den=12)
        g = random_mass_preserving_perm(rng, alg)
        h = random_mass_preserving_perm(rng, alg)
        u = random_mass_preserving_perm(rng, alg)
        d = uniform_distance(alg, g, h)
        assert uniform_distance(alg, perm_compose(g, u), perm_compose(h, u)) == d
        assert uniform_distance(alg, perm_compose(u, g), perm_compose(u, h)) == d


def test_uniform_distance_tuples_takes_the_worst_coordinate():
    alg = uniform_algebra(3)
    gs = [(1, 2, 0), (0, 1, 2)]
    hs = [(0, 1, 2), (0, 1, 2)]
    assert uniform_distance_tuples(alg, gs, hs) == F(2, 3)


def test_uniform_distance_tuples_of_different_lengths_is_an_arity_mismatch():
    alg = uniform_algebra(3)
    with pytest.raises(ArityMismatch, match="automorphism tuples have different lengths"):
        uniform_distance_tuples(alg, [(1, 2, 0), (0, 1, 2)], [(0, 1, 2)])


def test_extensions_start_at_the_action_itself_and_refuse_before_building():
    """Depth 1 is the action with the identity projection, depth m its
    product with the m-atom uniform fiber; the depth and the summed atoms
    are checked when extensions is called, before any depth is taken."""
    alg = validate_algebra([F(1, 6), F(1, 6), F(2, 3)])
    act = validate_action(alg, [(1, 0, 2)])
    depths = list(extensions(act, 3))
    assert depths[0] == (act, (0, 1, 2))
    for m, (refined, projection) in enumerate(depths[1:], 2):
        expected, expected_projection = product_action(act, uniform_algebra(m))
        assert projection == expected_projection
        assert (refined.algebra.den, refined.algebra.units, refined.gens) == (
            expected.algebra.den, expected.algebra.units, expected.gens
        )
    for max_refine in (0, -1):
        with pytest.raises(ValidationError, match=f"max_refine must be >= 1, got {max_refine}"):
            extensions(act, max_refine)
    # 3 atoms at depths 1..208 sum to 65208 atoms, at depths 1..209 to 65835
    assert 3 * 208 * 209 // 2 <= MAX_REFINED_ATOMS < 3 * 209 * 210 // 2
    extensions(act, 208)
    with pytest.raises(InstanceTooLarge, match="depths 1..209 sum to 65835 atoms"):
        extensions(act, 209)


@st.composite
def _algebra_and_perms(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    alg = uniform_algebra(n)
    perms = [
        tuple(draw(st.permutations(list(range(n))))) for _ in range(3)
    ]
    return alg, perms


@given(_algebra_and_perms())
@settings(max_examples=60, deadline=None)
def test_uniform_distance_is_a_bi_invariant_metric(data):
    alg, (g, h, u) = data
    d = uniform_distance(alg, g, h)
    assert 0 <= d <= 1
    assert (d == 0) == (g == h)
    assert d == uniform_distance(alg, h, g)
    assert uniform_distance(alg, g, u) <= d + uniform_distance(alg, h, u)
    assert uniform_distance(alg, perm_compose(g, u), perm_compose(h, u)) == d
    assert uniform_distance(alg, perm_compose(u, g), perm_compose(u, h)) == d


# ---------------------------------------------------------------- orbit walks


def oracle_components(act: FkAction) -> tuple[frozenset[int], ...]:
    """Depth-first components over generators and inverses, sorted by least atom."""
    n = act.algebra.size
    perms = act.gens + tuple(map(perm_inverse, act.gens))
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = {start}
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    comp.add(y)
                    stack.append(y)
        components.append(frozenset(comp))
    return tuple(sorted(components, key=min))


@st.composite
def _small_actions(draw):
    n = draw(st.integers(1, 14))
    k = draw(st.integers(0, 3))
    # Permutations with many short cycles as well as random ones, so that
    # actions with several orbits are common.
    gens = []
    for _ in range(k):
        if draw(st.booleans()):
            gens.append(tuple(draw(st.permutations(range(n)))))
        else:
            cut = draw(st.integers(1, n))
            low = tuple(draw(st.permutations(range(cut))))
            gens.append(low + tuple(range(cut, n)))
    return validate_action(uniform_algebra(n), gens)


@given(_small_actions())
@settings(max_examples=200, deadline=None)
def test_invariant_components_match_the_stack_oracle(act):
    assert invariant_components(act) == AtomPartition.of(act.algebra, oracle_components(act))
