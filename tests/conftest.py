"""Shared deterministic generators for randomized tests, and the slow
reference oracles that more than one test module checks the library against.

Every generator takes an explicit random.Random so each test controls its
seed; algebras are built over one common denominator, which keeps refinement
lcms small and exact arithmetic fast.  The oracles (oracle_type_distance,
marked_group_isomorphism) are slow, obviously correct reference code that
the library never calls; an oracle that only one test module uses lives in
that module instead.  outcome turns a call into its value or its exception
type and message, for comparing a kernel with its oracle."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from pmplab.algebra import (
    ZERO,
    Event,
    EventTuple,
    JointDistribution,
    MeasuredAlgebra,
    Sign,
    _sign_map,
    joint_distribution,
    uniform_algebra,
    validate_algebra,
)
from pmplab.action import FkAction, _breadth_first, validate_action
from pmplab.constructions import MarkedGroup, PartialIsomorphism
from pmplab.errors import InstanceTooLarge, LPInternal
from pmplab.modeltheory import _check_triple


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


# ---------------------------------------------------------------------------
# oracles


def oracle_type_distance(
    base: EventTuple,
    b: EventTuple,
    c: EventTuple,
    grid: int,
    metric: str = "tv",
) -> Fraction:
    """Brute-force upper bound on a type distance by coupling enumeration.

    Enumerates, per base cell, every coupling of the two conditional laws
    whose entries are multiples of 1 / (grid * lcm of mass denominators),
    and minimizes the chosen metric over all combinations.  Margins are
    always on the grid, so the bound is valid for every grid and converges
    to the true distance as the grid is refined; for the tv metric it is
    exact once the grid resolves the optimal overlap coupling.

    Only small instances are accepted: at most 3 nonempty base cells, fiber
    arity at most 2, grid at most 64.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if grid > 64:
        raise InstanceTooLarge(f"grid {grid} exceeds the oracle bound 64")
    if metric not in ("tv", "max"):
        raise ValueError(f"unknown metric {metric!r}")
    _check_triple(base, b, c)
    n = b.arity
    if n > 2:
        raise InstanceTooLarge(f"fiber arity {n} exceeds the oracle bound 2")
    cells = sorted(set(_sign_map(base)))
    if len(cells) > 3:
        raise InstanceTooLarge(f"{len(cells)} base cells exceed the oracle bound 3")
    if n == 0:
        return ZERO

    jb = joint_distribution(base, b)
    jc = joint_distribution(base, c)
    denominators = [m.denominator for m in itertools.chain(jb.mass.values(), jc.mass.values())]
    step = Fraction(1, grid * lcm(*denominators))

    per_cell: list[list[tuple[Sign, Sign, tuple[int, ...]]]] = []
    for r in cells:
        ss = fiber_support(jb, r)
        ts = fiber_support(jc, r)
        row_units = [int(jb.mass_of(r, s) / step) for s in ss]
        col_units = [int(jc.mass_of(r, t) / step) for t in ts]
        tables = list(_tables(row_units, col_units))
        per_cell.append([(ss, ts, table) for table in tables])

    if metric == "tv":
        total = ZERO
        for options in per_cell:
            best = None
            for ss, ts, table in options:
                mism = 0
                for i, s in enumerate(ss):
                    for j, t in enumerate(ts):
                        if s != t:
                            mism += table[i * len(ts) + j]
                if best is None or mism < best:
                    best = mism
            total += best * step
        return total

    combos = 1
    for options in per_cell:
        combos *= len(options)
        if combos > 2_000_000:
            raise InstanceTooLarge("too many couplings to enumerate")
    best_value = None
    for choice in itertools.product(*per_cell):
        coord = [0] * n
        for ss, ts, table in choice:
            for i, s in enumerate(ss):
                for j, t in enumerate(ts):
                    units = table[i * len(ts) + j]
                    if units == 0:
                        continue
                    for x in range(n):
                        if s[x] != t[x]:
                            coord[x] += units
        value = max(coord)
        if best_value is None or value < best_value:
            best_value = value
    return best_value * step


def fiber_support(joint: JointDistribution, r: Sign) -> list[Sign]:
    """The fiber signs of positive mass in base cell r, sorted."""
    return sorted(s for (rr, s) in joint.mass if rr == r)


def _tables(rows: Sequence[int], cols: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer matrices with the given row and column sums,
    flattened row-major.  Row and column totals must agree."""
    if sum(rows) != sum(cols):
        raise LPInternal("margins disagree")
    ncols = len(cols)

    def rec(row_idx: int, remaining_cols: tuple[int, ...], acc: list[int]):
        if row_idx == len(rows):
            yield tuple(acc)
            return
        target = rows[row_idx]
        for combo in _compositions(target, remaining_cols):
            new_cols = tuple(rc - v for rc, v in zip(remaining_cols, combo))
            acc.extend(combo)
            yield from rec(row_idx + 1, new_cols, acc)
            del acc[len(acc) - ncols :]

    yield from rec(0, tuple(cols), [])


def _compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum bounded by caps."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    head_cap = min(caps[0], total)
    rest = caps[1:]
    rest_cap = sum(rest)
    lo = max(0, total - rest_cap)
    for v in range(lo, head_cap + 1):
        for tail in _compositions(total - v, rest):
            yield (v,) + tail


def marked_group_isomorphism(g: MarkedGroup, h: MarkedGroup) -> Optional[tuple[int, ...]]:
    """A generator-respecting isomorphism g -> h as an index map, or None.

    Since the marked generators generate, the map is forced: the image of a
    product of generators is the corresponding product of images.  The forced
    map is built breadth-first and checked for bijectivity and for preserving
    the whole multiplication table."""
    if g.k != h.k:
        return None
    if g.order != h.order:
        return None
    # Walk pairs (x, phi(x)): the pairs reached form the graph of a map
    # exactly when no more than order of them are found.
    pairs, _ = _breadth_first(
        (g.identity, h.identity),
        tuple(zip(g.gen_images, h.gen_images)),
        lambda p, a: (g.mul[p[0]][a[0]], h.mul[p[1]][a[1]]),
        g.order,
    )
    phi = dict(pairs)
    if len(pairs) != g.order or len(set(phi.values())) != g.order:
        return None
    for x in range(g.order):
        for y in range(g.order):
            if phi[g.mul[x][y]] != h.mul[phi[x]][phi[y]]:
                return None
    return tuple(phi[x] for x in range(g.order))


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison is the point: any exception
        return type(exc), str(exc)
