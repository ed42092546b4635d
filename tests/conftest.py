"""Shared deterministic generators for randomized tests.

Everything takes an explicit random.Random so each test controls its seed;
algebras are built over one common denominator, which keeps refinement
lcms small and exact arithmetic fast."""
from __future__ import annotations

import random
from fractions import Fraction

from pmplab.algebra import Event, EventTuple, MeasuredAlgebra, validate_algebra
from pmplab.action import FkAction, validate_action
from pmplab.constructions import PartialIsomorphism


def random_algebra(
    rng: random.Random,
    max_atoms: int = 8,
    max_den: int = 60,
    min_atoms: int = 1,
) -> MeasuredAlgebra:
    """An algebra whose masses share one denominator at most max_den."""
    n = rng.randint(min_atoms, max_atoms)
    den = rng.randint(max(n, 2), max(max_den, n, 2))
    cuts = sorted(rng.sample(range(1, den), n - 1)) if n > 1 else []
    bounds = [0] + cuts + [den]
    masses = [Fraction(bounds[i + 1] - bounds[i], den) for i in range(n)]
    return validate_algebra(masses)


def uniform_algebra(n: int) -> MeasuredAlgebra:
    return validate_algebra([Fraction(1, n)] * n)


def random_event(rng: random.Random, alg: MeasuredAlgebra) -> Event:
    members = [i for i in range(alg.size) if rng.random() < 0.5]
    return Event.of(alg, members)


def random_tuple(
    rng: random.Random, alg: MeasuredAlgebra, arity: int
) -> EventTuple:
    return EventTuple.of(alg, [random_event(rng, alg) for _ in range(arity)])


def random_mass_preserving_perm(
    rng: random.Random, alg: MeasuredAlgebra
) -> tuple[int, ...]:
    """A permutation shuffling atoms only within equal-mass classes."""
    by_mass: dict[Fraction, list[int]] = {}
    for i, m in enumerate(alg.atoms):
        by_mass.setdefault(m, []).append(i)
    perm = [0] * alg.size
    for group in by_mass.values():
        shuffled = group[:]
        rng.shuffle(shuffled)
        for src, tgt in zip(group, shuffled):
            perm[src] = tgt
    return tuple(perm)


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def random_equal_atom_action(
    rng: random.Random, n: int, k: int
) -> FkAction:
    alg = uniform_algebra(n)
    gens = [random_permutation(rng, n) for _ in range(k)]
    return validate_action(alg, gens)


def random_small_order_action(
    rng: random.Random, n: int, k: int
) -> FkAction:
    """An equal-atom action whose generators lie in a small permutation group.

    Generators are random powers of one rotation composed with a random
    relabeling, so the generated group is cyclic of order dividing n; group
    enumeration in embedding tests stays tiny."""
    alg = uniform_algebra(n)
    relabel = random_permutation(rng, n)
    inv = [0] * n
    for i, v in enumerate(relabel):
        inv[v] = i
    gens = []
    for _ in range(k):
        shift = rng.randint(0, n - 1)
        rotation = [(i + shift) % n for i in range(n)]
        gens.append(tuple(relabel[rotation[inv[i]]] for i in range(n)))
    return validate_action(alg, gens)


def random_transitive_small_action(
    rng: random.Random, n: int, k: int
) -> FkAction:
    """As random_small_order_action but guaranteed transitive: one generator
    is a full relabeled n-cycle."""
    alg = uniform_algebra(n)
    relabel = random_permutation(rng, n)
    inv = [0] * n
    for i, v in enumerate(relabel):
        inv[v] = i

    def shifted(shift: int) -> tuple[int, ...]:
        return tuple(relabel[(inv[i] + shift) % n] for i in range(n))

    gens = [shifted(1)]
    for _ in range(k - 1):
        gens.append(shifted(rng.randint(0, n - 1)))
    rng.shuffle(gens)
    return validate_action(alg, gens)


def random_partial_automorphism(
    rng: random.Random, alg: MeasuredAlgebra
) -> PartialIsomorphism:
    """A partial block correspondence of the algebra with itself.

    Pairs up a few disjoint single atoms of equal mass; may be empty."""
    by_mass: dict[Fraction, list[int]] = {}
    for i, m in enumerate(alg.atoms):
        by_mass.setdefault(m, []).append(i)
    pairs = []
    used_src: set[int] = set()
    used_tgt: set[int] = set()
    for group in by_mass.values():
        candidates = group[:]
        rng.shuffle(candidates)
        for atom in candidates:
            if atom in used_src:
                continue
            targets = [t for t in group if t not in used_tgt]
            if not targets or rng.random() < 0.4:
                continue
            tgt = rng.choice(targets)
            pairs.append(((atom,), (tgt,)))
            used_src.add(atom)
            used_tgt.add(tgt)
    return PartialIsomorphism.of(alg, alg, pairs)


def relabeled_action(act: FkAction, relabel: tuple[int, ...]) -> FkAction:
    """The action carried along the atom permutation relabel."""
    inv = [0] * len(relabel)
    for i, r in enumerate(relabel):
        inv[r] = i
    return validate_action(
        act.algebra,
        [tuple(relabel[g[y]] for y in inv) for g in act.gens],
    )


def cycle_mismatch_pair(rng: random.Random, n: int) -> tuple[FkAction, FkAction]:
    """One 8-cycle on the last eight atoms plus 4-cycles, against 4-cycles
    only, relabeled at random: equal atom counts, never conjugate."""
    p = [(x // 4) * 4 + (x + 1) % 4 for x in range(n - 8)]
    p += [n - 8 + (j + 1) % 8 for j in range(8)]
    q = [(x // 4) * 4 + (x + 1) % 4 for x in range(n)]
    alg = uniform_algebra(n)
    return (
        validate_action(alg, [tuple(p)]),
        relabeled_action(validate_action(alg, [tuple(q)]), random_permutation(rng, n)),
    )
