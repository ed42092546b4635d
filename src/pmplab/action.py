"""Measure-preserving actions of a free group on a finite algebra.

An action is a list of k generator permutations of the atoms, each preserving
atom masses.  Words in the generators and their inverses act on events; the
uniform metric between two automorphisms is the largest mass by which they
disagree on any event, computed exactly from the cycle structure of their
quotient permutation.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import (
    ZERO,
    AtomPartition,
    Event,
    EventTuple,
    MeasuredAlgebra,
    _runs,
    _sign_map,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    LetterOutOfRange,
    NonpositiveDelta,
    NotBijective,
    NotMeasurePreserving,
    ValidationError,
)
from .limits import _check_summed_refinement
from .record import Record

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(f: Perm, g: Perm) -> Perm:
    """The permutation x -> f(g(x))."""
    return tuple([f[y] for y in g])


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def check_permutation(alg: MeasuredAlgebra, p: Sequence[int]) -> Perm:
    """Validate p as a mass-preserving permutation of the atoms of alg."""
    n = alg.size
    if len(p) != n:
        raise NotBijective(f"permutation length {len(p)} != atom count {n}")
    seen = [False] * n
    for y in p:
        if not 0 <= y < n or seen[y]:
            raise NotBijective("generator table is not a permutation")
        seen[y] = True
    units = alg.units
    if tuple([units[y] for y in p]) != units:
        x, y = next((x, y) for x, y in enumerate(p) if units[x] != units[y])
        raise NotMeasurePreserving(
            f"atom {x} (mass {alg.atoms[x]}) maps to atom {y} (mass {alg.atoms[y]})"
        )
    return tuple(p)


class FkAction(Record):
    """An action of the free group on k generators: an algebra and k
    mass-preserving permutations of its atoms, whose inverses are not stored.

    Construct through validate_action.  The library's builders
    (_lift_action, quotient_action, eppa_extend, ergodize) build instances
    directly, from generators that are checked permutations by construction.
    """

    algebra: MeasuredAlgebra
    gens: tuple[Perm, ...]

    @property
    def k(self) -> int:
        return len(self.gens)


def validate_action(alg: MeasuredAlgebra, gens: Sequence[Sequence[int]]) -> FkAction:
    """Check every generator of an action given from outside and return it."""
    return FkAction(alg, tuple([check_permutation(alg, g) for g in gens]))


class Word(Record):
    """A word in generators (positive letters) and inverses (negative letters).

    Letter i in 1..k names generator i; letter -i names its inverse.  The
    empty word is the identity.
    """

    letters: tuple[int, ...]

    @staticmethod
    def of(letters: Iterable[int]) -> Word:
        return Word(tuple(letters))


def letter_perm(act: FkAction, letter: int) -> Perm:
    if 1 <= letter <= act.k:
        return act.gens[letter - 1]
    if -act.k <= letter <= -1:
        return perm_inverse(act.gens[-letter - 1])
    raise LetterOutOfRange(f"letter {letter} is not in range for k = {act.k}")


def apply_perm_event(p: Perm, e: Event) -> Event:
    return Event(e.algebra, tuple(sorted(p[x] for x in e.members)))


def _word_perm(act: FkAction, w: Word) -> Perm:
    """The atom permutation of a word: its letters composed, rightmost
    letter applied first."""
    perm = perm_identity(act.algebra.size)
    for letter in reversed(w.letters):
        perm = perm_compose(letter_perm(act, letter), perm)
    return perm


def apply_word(act: FkAction, w: Word, e: Event) -> Event:
    """Apply the word to an event, rightmost letter first."""
    if e.algebra.id != act.algebra.id:
        raise AlgebraMismatch("event does not live on the action's algebra")
    return apply_perm_event(_word_perm(act, w), e)


def apply_gen_tuple(act: FkAction, i: int, t: EventTuple) -> EventTuple:
    """Apply generator i (1-based) to every event of a tuple."""
    p = letter_perm(act, i)
    return EventTuple(t.algebra, tuple(apply_perm_event(p, e) for e in t.events))


def _breadth_first(start, gens, step, limit: Optional[int] = None):
    """Closure of start under x -> step(x, g) for every g in gens.

    Returns the elements in breadth-first discovery order, scanning gens in
    their given order from each element, and a dict from each element to its
    position in that list.  With a limit the walk stops as soon as more than
    limit elements are found, so a list longer than limit is cut short."""
    found = [start]
    index = {start: 0}
    for x in found:  # found grows while it is read: it is the queue
        for g in gens:
            y = step(x, g)
            if y not in index:
                index[y] = len(found)
                found.append(y)
                if limit is not None and len(found) > limit:
                    return found, index
    return found, index


def _orbit_walks(act: FkAction) -> list[list[int]]:
    """Every orbit of the atoms, by least atom, in breadth-first order from
    that atom along the generators alone: an inverse is a power of its generator."""
    walks: list[list[int]] = []
    covered: set[int] = set()
    for root in range(act.algebra.size):
        if root not in covered:
            walk, index = _breadth_first(root, act.gens, lambda x, p: p[x])
            walks.append(walk)
            covered.update(index)
    return walks


def invariant_components(act: FkAction) -> AtomPartition:
    """The orbits of the atoms under all generators, ordered by least atom;
    the action is transitive exactly when there is one block."""
    return AtomPartition(act.algebra, tuple(frozenset(walk) for walk in _orbit_walks(act)))


def generated_subalgebra(act: FkAction, events: EventTuple) -> AtomPartition:
    """Coarsest partition refining the seed partition of events and mapped
    onto itself by every generator.

    Computed as a partition-refinement fixpoint on integer labels: an atom's
    first label numbers its sign vector, and each round relabels it by its
    own label and the labels of its generator images, until the number of
    labels stops growing.  Labels are numbered in order of first atom, so
    label i is the block of the i-th least member.  Its blocks are the atoms
    of the smallest action-invariant algebra containing the events.
    """
    if events.algebra.id != act.algebra.id:
        raise AlgebraMismatch("seed events do not live on the action's algebra")
    ids: dict = {}
    labels = [ids.setdefault(s, len(ids)) for s in _sign_map(events)]
    count = 0
    while len(ids) > count:
        count, ids = len(ids), {}
        labels = [
            ids.setdefault((label, *[labels[p[x]] for p in act.gens]), len(ids))
            for x, label in enumerate(labels)
        ]
    blocks: list[list[int]] = [[] for _ in range(count)]
    for x, label in enumerate(labels):
        blocks[label].append(x)
    return AtomPartition(act.algebra, tuple(map(frozenset, blocks)))


def product_action(act: FkAction, fiber: MeasuredAlgebra) -> tuple[FkAction, tuple[int, ...]]:
    """The extension of act by a fiber on which every generator acts
    trivially: atom (x, h), at index x*fiber.size + h, goes to (g_i(x), h).
    Returns it with the projection (x, h) -> x.  With fiber
    uniform_algebra(m) it splits every atom into m equal parts.  Raises
    InstanceTooLarge beyond MAX_REFINED_ATOMS atoms."""
    prod = product_algebra(act.algebra, fiber)
    projection = tuple([u // fiber.size for u in range(prod.size)])
    return _lift_action(act, prod, projection), projection


def extensions(act: FkAction, max_refine: int) -> Iterator[tuple[FkAction, tuple[int, ...]]]:
    """What every search deepens through: at depth 1 act itself with the
    identity projection, at each depth m = 2..max_refine product_action(act,
    uniform_algebra(m)), built only when the search asks for it.  Raises
    ValidationError for max_refine < 1 and InstanceTooLarge when the atoms
    summed over every depth pass MAX_REFINED_ATOMS, before anything is built."""
    if max_refine < 1:
        raise ValidationError(f"max_refine must be >= 1, got {max_refine}")
    _check_summed_refinement(act.algebra.size, max_refine)
    deeper = (product_action(act, uniform_algebra(m)) for m in range(2, max_refine + 1))
    return chain([(act, perm_identity(act.algebra.size))], deeper)


def refine_action_to_unit(
    act: FkAction, unit: Fraction
) -> tuple[FkAction, tuple[int, ...]]:
    """Refine every atom into parts of the given unit mass; extend generators
    part-for-part.  The unit must divide every atom mass."""
    refined, projection = refine_to_unit(act.algebra, unit)
    return _lift_action(act, refined, projection), projection


def _lift_action(
    act: FkAction, refined: MeasuredAlgebra, projection: Sequence[int]
) -> FkAction:
    """Extend every generator part-for-part to a refinement laid out in runs
    (algebra._split or product_algebra): the run of atom x is sent onto the
    run of p[x], whose parts have the same masses, so the lift needs no check."""
    runs = _runs(projection)
    lift = [tuple(chain.from_iterable([runs[y] for y in p])) for p in act.gens]
    return FkAction(refined, tuple(lift))


def uniform_distance(alg: MeasuredAlgebra, g: Sequence[int], h: Sequence[int]) -> Fraction:
    """Largest mass by which g and h can disagree on an event.

    Equals the supremum over events e of the mass of g(e) triangle h(e),
    which reduces to the cycle structure of p = h^-1 g: every atom of a cycle
    has the same mass; an even cycle contributes its full mass, an odd cycle
    its mass minus one atom, and fixed points contribute nothing.
    """
    gp = check_permutation(alg, g)
    hp = check_permutation(alg, h)
    return _cycle_distance(alg, perm_compose(perm_inverse(hp), gp))


def _cycle_distance(alg: MeasuredAlgebra, p: Perm) -> Fraction:
    """The uniform distance between p and the identity, from p's cycles,
    for a p that is known to be a mass-preserving permutation: unchecked."""
    units = alg.units
    seen = [False] * alg.size
    total = 0
    for start in range(alg.size):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            length += 1
            x = p[x]
        total += units[start] * (length - length % 2)
    return Fraction(total, alg.den)


def uniform_distance_tuples(
    alg: MeasuredAlgebra, gs: Sequence[Sequence[int]], hs: Sequence[Sequence[int]]
) -> Fraction:
    """Uniform distance between automorphism tuples: the max over coordinates."""
    if len(gs) != len(hs):
        raise ArityMismatch("automorphism tuples have different lengths")
    best = ZERO
    for g, h in zip(gs, hs):
        d = uniform_distance(alg, g, h)
        if d > best:
            best = d
    return best


class Perturbation(Record):
    """A small automorphism of a refined algebra, fixing given blocks setwise.

    action is the input action extended to the refinement; s swaps, within
    every fixed block, two fresh sub-events of the recorded moved mass.
    """

    action: FkAction
    projection: tuple[int, ...]
    s: Perm
    moved: tuple[Fraction, ...]


def perturb_small(act: FkAction, fixed: AtomPartition, delta: Fraction) -> Perturbation:
    """Build a nontrivial automorphism moving less than delta in every block.

    For each block the moved mass is the largest blockmass / 2^j (j >= 1)
    strictly below delta.  The whole algebra is refined to a uniform unit so
    the generators extend part-for-part, and s swaps the first two runs of
    that mass inside each block; s is an involution, fixes every block
    setwise and is the identity nowhere on any block.
    """
    if fixed.algebra.id != act.algebra.id:
        raise AlgebraMismatch("fixed partition does not live on the action's algebra")
    if delta <= 0:
        raise NonpositiveDelta(f"delta must be positive, got {delta}")
    moved: list[Fraction] = []
    for i in range(len(fixed.blocks)):
        mass = fixed.block_mass(i)
        m = mass / 2
        while m >= delta:
            m = m / 2
        moved.append(m)
    unit_den = lcm(act.algebra.den, *(m.denominator for m in moved))
    unit = Fraction(1, unit_den)
    refined_act, projection = refine_action_to_unit(act, unit)
    runs = _runs(projection)
    s = list(range(refined_act.algebra.size))
    for i, block in enumerate(fixed.blocks):
        units = [j for atom in sorted(block) for j in runs[atom]]
        t = int(moved[i] / unit)
        for a, b in zip(units[:t], units[t : 2 * t]):
            s[a], s[b] = s[b], s[a]
    return Perturbation(refined_act, projection, tuple(s), tuple(moved))
