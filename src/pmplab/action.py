"""Measure-preserving actions of a free group on a finite algebra.

An action is a list of k generator permutations of the atoms, each preserving
atom masses.  Words in the generators and their inverses act on events; the
uniform metric between two automorphisms is the largest mass by which they
disagree on any event, computed exactly from the cycle structure of their
quotient permutation.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import reduce
from itertools import chain

from .algebra import (
    ZERO,
    AtomPartition,
    Event,
    EventTuple,
    MeasuredAlgebra,
    _keys,
    _runs,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    LetterOutOfRange,
    NotBijective,
    NotMeasurePreserving,
    ValidationError,
)
from .limits import _check_summed_refinement
from .record import Record

Perm = tuple[int, ...]
# A word in the generators and their inverses: letter i in 1..k names
# generator i and letter -i its inverse; the empty word is the identity.
Word = tuple[int, ...]


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
    if min(p) < 0 or max(p) >= n or len(set(p)) != n:
        raise NotBijective("generator table is not a permutation")
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


def _word_perm(act: FkAction, w: Word) -> Perm:
    """The atom permutation of a word: its letters composed, rightmost
    letter applied first, each generator inverted at most once.  A
    one-letter positive word is its generator itself."""
    bad = [letter for letter in w if not 0 < abs(letter) <= act.k]
    if bad:
        raise LetterOutOfRange(f"letter {bad[-1]} is not in range for k = {act.k}")
    inverses = {i: perm_inverse(act.gens[-i - 1]) for i in set(w) if i < 0}
    perms = [act.gens[i - 1] if i > 0 else inverses[i] for i in w]
    return reduce(perm_compose, perms) if perms else perm_identity(act.algebra.size)


def apply_gen_tuple(act: FkAction, i: int, t: EventTuple) -> EventTuple:
    """Apply generator i (1-based) to every event of a tuple."""
    p = _word_perm(act, (i,))
    return EventTuple(t.algebra, tuple(
        Event(e.algebra, tuple(sorted(p[x] for x in e.members))) for e in t.events
    ))


def invariant_components(act: FkAction) -> AtomPartition:
    """The orbits of the atoms under all generators, ordered by least atom;
    the action is transitive exactly when there is one block.  Each orbit is
    walked breadth-first from its least atom along the generators alone: an
    inverse is a power of its generator."""
    covered = [False] * act.algebra.size
    orbits = []
    for root in range(act.algebra.size):
        if not covered[root]:
            covered[root] = True
            orbit = [root]
            for x in orbit:  # orbit grows while it is read: it is the queue
                for p in act.gens:
                    y = p[x]
                    if not covered[y]:
                        covered[y] = True
                        orbit.append(y)
            orbits.append(frozenset(orbit))
    return AtomPartition(act.algebra, tuple(orbits))


def generated_subalgebra(act: FkAction, events: EventTuple) -> AtomPartition:
    """Coarsest partition refining the seed partition of events and mapped
    onto itself by every generator.

    Computed as a partition-refinement fixpoint on integer labels: an atom's
    first label numbers its packed key under events (see the algebra
    module), and each round relabels it by its own label and the labels of
    its generator images, until the number of labels stops growing.  Labels are numbered in order of first atom, so
    label i is the block of the i-th least member.  Its blocks are the atoms
    of the smallest action-invariant algebra containing the events.
    """
    if events.algebra.id != act.algebra.id:
        raise AlgebraMismatch("seed events do not live on the action's algebra")
    ids: dict = {}
    labels = [ids.setdefault(s, len(ids)) for s in _keys(events)]
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
    m = fiber.size
    projection = tuple([u // m for u in range(prod.size)])
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


def _cycles(p: Perm) -> list[tuple[int, int]]:
    """The cycles of p as (least atom, length) pairs, in increasing order
    of least atom: the library's one cycle walk.  A walk that reaches an
    atom twice raises NotBijective instead of looping, so p need not be
    known to be a permutation."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        x = p[start]
        while not seen[x]:
            seen[x] = True
            length += 1
            x = p[x]
        if x != start:
            raise NotBijective(f"table is not a permutation: atom {x} is reached twice")
        cycles.append((start, length))
    return cycles


def _cycle_distance(alg: MeasuredAlgebra, p: Perm) -> Fraction:
    """The uniform distance between p and the identity, from p's cycles
    (_cycles), for a p that is known to be mass-preserving: masses are
    unchecked, and a table that is not a permutation raises NotBijective."""
    units = alg.units
    total = sum([units[x] * (length - length % 2) for x, length in _cycles(p)])
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

