"""Shared deterministic generators for randomized tests, and the slow
reference oracles that more than one test module checks the library against.

Every generator takes an explicit random.Random so each test controls its
seed; algebras are built over one common denominator, which keeps refinement
lcms small and exact arithmetic fast.  The oracles (oracle_type_distance,
marked_group_isomorphism, oracle_validate_marked_group) are slow, obviously
correct reference code that the library never calls; an oracle that only one
test module uses lives in that module instead.  oracle_sign_map and the
tuple-keyed laws oracle_unit_law and oracle_cell_law are the oracle for the
library's packed keys and laws (algebra._keys, algebra._unit_law), read
through oracle_pack.  The tests' walks, breadth_first and
oracle_visit_order, live here together, so that no oracle borrows a walk
from the library.  outcome turns a call into its value or its
exception type and message, for comparing a kernel with its oracle, and
group_from_table reads a table document as the library reads one."""
from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Optional, Sequence

from pmplab import limits
from pmplab.algebra import (
    ZERO,
    Event,
    EventTuple,
    JointDistribution,
    MeasuredAlgebra,
    Sign,
    joint_distribution,
    uniform_algebra,
    validate_algebra,
)
from pmplab.action import FkAction, validate_action
from pmplab.constructions import MarkedGroup, PartialIsomorphism
from pmplab.errors import (
    InstanceTooLarge,
    InvalidGroupTable,
    LetterOutOfRange,
    LPInternal,
    NotGenerating,
)
from pmplab.jsonio import group_from_json
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


def oracle_sign_map(t: EventTuple) -> list[Sign]:
    """The sign vector of every atom under t, indexed by atom: entry i is 1
    when the atom lies in event i."""
    sets = [set(e.members) for e in t.events]
    return [tuple(1 if a in s else 0 for s in sets) for a in range(t.algebra.size)]


def _oracle_law(tuples: Sequence[EventTuple], weights: Sequence) -> dict:
    law: dict = {}
    keys = zip(*(oracle_sign_map(t) for t in tuples))
    for key, weight in zip(keys, weights):
        law[key] = law.get(key, 0) + weight
    return law


def oracle_unit_law(*tuples: EventTuple) -> dict[tuple[Sign, ...], int]:
    """The weight in units of 1/D of every cell the tuples generate
    together, keyed by the tuple of its sign vectors, one per tuple, in
    order of each cell's first atom."""
    return _oracle_law(tuples, tuples[0].algebra.units)


def oracle_cell_law(*tuples: EventTuple) -> dict[tuple[Sign, ...], Fraction]:
    """oracle_unit_law with each cell's mass summed Fraction by Fraction."""
    return _oracle_law(tuples, tuples[0].algebra.atoms)


def oracle_pack(signs: Sequence[Sign]) -> int:
    """The packed key of a cell spelt out as one sign vector per tuple: bit
    j set when entry j of the concatenated vectors is 1."""
    return sum(bit << j for j, bit in enumerate(itertools.chain(*signs)))


def breadth_first(start, gens, step, limit: Optional[int] = None):
    """The closure of start under x -> step(x, g) for every g in gens, as a
    list in the order a queue first meets its elements, scanning gens in
    order from each, and a dict from each element to its place in the list.
    With a limit the walk stops as soon as more than limit are found."""
    found = [start]
    index = {start: 0}
    queue = deque(found)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = step(x, g)
            if y not in index:
                index[y] = len(found)
                found.append(y)
                queue.append(y)
                if limit is not None and len(found) > limit:
                    return found, index
    return found, index


def event_image(p: Sequence[int], e: Event) -> Event:
    """The image of an event under an atom permutation p."""
    return Event.of(e.algebra, [p[x] for x in e.members])


def letter_image(act: FkAction, letter: int) -> tuple[int, ...]:
    """The atom permutation of one letter: generator i for letter i, and for
    letter -i the atom that generator i sends to each atom, found by search."""
    if 1 <= letter <= act.k:
        return act.gens[letter - 1]
    if -act.k <= letter <= -1:
        p = act.gens[-letter - 1]
        return tuple(p.index(y) for y in range(len(p)))
    raise LetterOutOfRange(f"letter {letter} is not in range for k = {act.k}")


def oracle_visit_order(act: FkAction) -> list[int]:
    """The exact conjugacy search's atom order: a queue from each unseen
    root in increasing order, along the generators alone."""
    n = act.algebra.size
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            x = queue.pop(0)
            order.append(x)
            for p in act.gens:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return order


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
# the census of transitive F_k-sets


Table = tuple[tuple[int, ...], ...]


def transitive_tables(k: int, n: int) -> list[Table]:
    """Every standard coset table of a subgroup of index n in F_k, listed by
    low-index backtracking (C. C. Sims, Computation with finitely presented
    groups, 1994): table[i][x] is the image of point x under generator i.

    A table is standard when the walk from point 0 along the generators
    alone, scanning each point's generators in order, meets the points in
    the order 0, 1, ..., n - 1.  Each transitive F_k-set with a marked point
    has exactly one standard labelling, and the marked point's stabilizer is
    a subgroup of index n, so there are as many tables as such subgroups.
    The entries are filled in that scan order: entry (x, i) is an unused
    image of generator i among the points met so far, or the next new
    point, and a scan that reaches a point not yet met has lost
    transitivity."""
    tables: list[Table] = []
    gens = [[-1] * n for _ in range(k)]
    used = [[False] * n for _ in range(k)]

    def fill(entry: int, met: int) -> None:
        if entry == n * k:
            if met == n:
                tables.append(tuple(map(tuple, gens)))
            return
        x, i = divmod(entry, k)
        if x >= met:
            return
        for y in range(min(met + 1, n)):
            if not used[i][y]:
                gens[i][x], used[i][y] = y, True
                fill(entry + 1, max(met, y + 1))
                used[i][y] = False

    fill(0, 1)
    return tables


def standard_table(table: Table, root: int) -> Table:
    """table relabelled so that it is standard from root."""
    walk, label = breadth_first(root, table, lambda x, g: g[x])
    return tuple(tuple(label[g[x]] for x in walk) for g in table)


class CensusClass(NamedTuple):
    """One isomorphism class of transitive F_k-sets: its least standard
    table over all roots, its standard tables (one per subgroup, so
    n / |Aut| of them) and the order of its automorphism group."""

    code: Table
    tables: tuple[Table, ...]
    automorphisms: int


@functools.cache
def transitive_census(k: int, n: int) -> tuple[CensusClass, ...]:
    """The transitive F_k-sets of degree n up to isomorphism, by code.

    A transitive set's automorphism is fixed by the image r of point 0, and
    one exists exactly when the table standard from r is the table standard
    from 0; so the roots of one table give its class's code (their least
    table), its other standard tables and |Aut|."""
    classes: dict[Table, list[Table]] = {}
    automorphisms: dict[Table, int] = {}
    for table in transitive_tables(k, n):
        relabelled = [standard_table(table, root) for root in range(n)]
        code = min(relabelled)
        classes.setdefault(code, []).append(table)
        automorphisms[code] = relabelled.count(table)
    return tuple(
        CensusClass(code, tuple(tables), automorphisms[code])
        for code, tables in sorted(classes.items())
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
    cells = sorted(set(oracle_sign_map(base)))
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
        row_units = [int(jb.mass.get((r, s), ZERO) / step) for s in ss]
        col_units = [int(jc.mass.get((r, t), ZERO) / step) for t in ts]
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
    map is built breadth-first along both right Cayley graphs and checked for
    bijectivity and for preserving the whole multiplication table."""
    if g.k != h.k:
        return None
    if g.order != h.order:
        return None
    # Walk pairs (x, phi(x)): the pairs reached form the graph of a map
    # exactly when no more than order of them are found.
    pairs, _ = breadth_first(
        (g.identity, h.identity),
        tuple(zip(g.right, h.right)),
        lambda p, c: (c[0][p[0]], c[1][p[1]]),
        g.order,
    )
    phi = dict(pairs)
    if len(pairs) != g.order or len(set(phi.values())) != g.order:
        return None
    g_table, h_table = g.rows(range(g.order)), h.rows(range(h.order))
    for x in range(g.order):
        for y in range(g.order):
            if phi[g_table[x][y]] != h_table[phi[x]][phi[y]]:
                return None
    return tuple(phi[x] for x in range(g.order))


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the comparison is the point: any exception
        return type(exc), str(exc)


def group_from_table(mul, gen_images):
    """The group a table document reads to: a table from outside is
    checked where it comes in, by jsonio."""
    return group_from_json({"mul": mul, "gens": gen_images})


def oracle_validate_marked_group(mul, gen_images):
    """The obviously correct check of a table document, in the reader's
    order: the order^2 entries, the shape, the row that is the elements in
    order as the identity, the marked elements in range, the 2 k^2 order
    entries of their check, their columns permutations, generation, then
    associativity on all triples, O(order^3).  A two-sided
    identity and inverses follow from these, so they are asserted, not
    raised.  Returns the checked table, the identity and the marked
    elements."""
    order = len(mul)
    if order == 0:
        raise InvalidGroupTable("empty multiplication table")
    too_large = f"group enumeration builds more than {limits.MAX_GROUP_ENTRIES} entries"
    if order * order > limits.MAX_GROUP_ENTRIES:
        raise InstanceTooLarge(too_large)
    table = tuple(tuple(row) for row in mul)
    for row in table:
        if len(row) != order or any(not 0 <= v < order for v in row):
            raise InvalidGroupTable("multiplication table is not square over the elements")
    identity = None
    for e in range(order):
        if all(table[e][x] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    gens = tuple(gen_images)
    for g in gens:
        if not 0 <= g < order:
            raise InvalidGroupTable(f"generator image {g} out of range")
    if 2 * len(gens) ** 2 * order > limits.MAX_GROUP_ENTRIES:
        raise InstanceTooLarge(too_large)
    for g in gens:
        if sorted(table[x][g] for x in range(order)) != list(range(order)):
            raise InvalidGroupTable(f"a column is not a permutation of the {order} elements")
    reached = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    if len(reached) != order:
        raise NotGenerating(
            f"marked generators reach only {len(reached)} of {order} elements"
        )
    for x in range(order):
        for y in range(order):
            for z in range(order):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise InvalidGroupTable("multiplication is not associative")
    for x in range(order):
        assert table[x][identity] == x, "a left identity of a group table is two-sided"
        assert any(
            table[x][y] == identity and table[y][x] == identity for y in range(order)
        ), "every element of a group table has an inverse"
    return table, identity, gens
