"""Finite probability measure algebras with exact rational masses.

An algebra is a finite list of atoms indexed 0..n-1, stored as integers: a
common denominator D and one positive unit count per atom, atom x weighing
units[x] / D.  The units sum to D and have gcd 1, so D is the least common
denominator of the masses.  Events are sets of atom indices; tuples of
events generate sign-vector partitions, and every distance in this package
is a sum of cell masses of such partitions.  The measure kernels (mass
sums, joint laws, the partition metric, mass-preservation checks) add and
compare units and build one Fraction per result, so every value they return
is still a Fraction.  All arithmetic is exact; nothing here touches floats.

Algebras have nominal identity: two algebras with identical atom lists are
still distinct objects, and events belonging to different algebras never
compare equal and may not be combined.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    MassNotOne,
    PartMassMismatch,
    ValidationError,
    ZeroAtom,
)
from .limits import _check_refined_size
from .record import Record

ZERO = Fraction(0)

Sign = tuple[int, ...]

_ids = itertools.count(1)


def _fresh_id() -> int:
    return next(_ids)


class MeasuredAlgebra(Record):
    """A finite measure algebra: atom x weighs units[x] / den.

    The units are positive with gcd 1 and sum to den.  Construct through
    validate_algebra.  Only this module builds instances directly: _split
    for refinements, product_algebra and uniform_algebra, whose units come
    from integers alone.  The id field gives each constructed algebra
    a distinct identity.
    """

    id: int
    den: int
    units: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.units)

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        """The atom masses, one Fraction built per distinct unit count."""
        den, units = self.den, self.units
        mass = {u: Fraction(u, den) for u in set(units)}
        return tuple([mass[u] for u in units])

    def mass_of(self, members: Iterable[int]) -> Fraction:
        units = self.units
        return Fraction(sum([units[i] for i in members]), self.den)

    def denominator_lcm(self) -> int:
        """den under its old name; the package reads .den.  Kept while
        perfbench/checks.py still calls it."""
        return self.den


def validate_algebra(masses: Sequence[Fraction]) -> MeasuredAlgebra:
    """Check atom masses and return a fresh algebra.

    Raises ZeroAtom for empty input or a nonpositive mass, MassNotOne when
    the total differs from one.
    """
    atoms = tuple([m if type(m) is Fraction else Fraction(m) for m in masses])
    if not atoms:
        raise ZeroAtom("an algebra needs at least one atom")
    numerators = [m.numerator for m in atoms]
    if min(numerators) <= 0:
        i = next(i for i, num in enumerate(numerators) if num <= 0)
        raise ZeroAtom(f"atom {i} has nonpositive mass {atoms[i]}")
    denominators = [m.denominator for m in atoms]
    den = lcm(*denominators)
    units = tuple([num * (den // d) for num, d in zip(numerators, denominators)])
    total = sum(units)
    if total != den:
        raise MassNotOne(f"atom masses sum to {Fraction(total, den)}, expected 1")
    return MeasuredAlgebra(_fresh_id(), den, units)


def _same_algebra(a: MeasuredAlgebra, b: MeasuredAlgebra, what: str) -> None:
    if a.id != b.id:
        raise AlgebraMismatch(f"{what} belong to different algebras")


class Event(Record):
    """A measurable set: a sorted duplicate-free tuple of atom indices."""

    algebra: MeasuredAlgebra
    members: tuple[int, ...]

    @staticmethod
    def of(algebra: MeasuredAlgebra, members: Iterable[int]) -> Event:
        ms = sorted(set(members))
        size = algebra.size
        if ms and (ms[0] < 0 or ms[-1] >= size):
            i = next(i for i in ms if not 0 <= i < size)
            raise ValidationError(f"atom index {i} out of range for algebra of size {size}")
        return Event(algebra, tuple(ms))

    @property
    def mass(self) -> Fraction:
        return self.algebra.mass_of(self.members)

    def complement(self) -> Event:
        inside = set(self.members)
        return Event(self.algebra, tuple(i for i in range(self.algebra.size) if i not in inside))

    def intersect(self, other: Event) -> Event:
        _same_algebra(self.algebra, other.algebra, "events")
        inside = set(other.members)
        return Event(self.algebra, tuple(i for i in self.members if i in inside))

    def union(self, other: Event) -> Event:
        _same_algebra(self.algebra, other.algebra, "events")
        return Event(self.algebra, tuple(sorted(set(self.members) | set(other.members))))

    def symmetric_difference(self, other: Event) -> Event:
        _same_algebra(self.algebra, other.algebra, "events")
        return Event(self.algebra, tuple(sorted(set(self.members) ^ set(other.members))))


class EventTuple(Record):
    """An ordered tuple of events over one algebra."""

    algebra: MeasuredAlgebra
    events: tuple[Event, ...]

    @staticmethod
    def of(algebra: MeasuredAlgebra, events: Iterable[Event]) -> EventTuple:
        evs = tuple(events)
        for e in evs:
            _same_algebra(algebra, e.algebra, "tuple events")
        return EventTuple(algebra, evs)

    @staticmethod
    def of_members(
        algebra: MeasuredAlgebra, memberses: Iterable[Iterable[int]]
    ) -> EventTuple:
        return EventTuple(
            algebra, tuple(Event.of(algebra, ms) for ms in memberses)
        )

    @property
    def arity(self) -> int:
        return len(self.events)

    def concat(self, *others: EventTuple) -> EventTuple:
        """The events of self, then those of each other tuple in turn."""
        for other in others:
            _same_algebra(self.algebra, other.algebra, "tuples")
        return EventTuple(
            self.algebra, self.events + tuple([e for o in others for e in o.events])
        )


def _sign_map(t: EventTuple) -> list[Sign]:
    """Sign vector of every atom of the algebra, indexed by atom."""
    n = t.algebra.size
    if not t.events:
        return [()] * n
    columns = []
    for e in t.events:
        column = [0] * n
        for a in e.members:
            column[a] = 1
        columns.append(column)
    return list(zip(*columns))


class JointDistribution(Record):
    """Joint cell-mass law of a base tuple and a fiber tuple.

    mass holds only the cells of positive mass; absent keys mean zero.  Keys
    are (base sign, fiber sign) pairs.
    """

    base_arity: int
    fiber_arity: int
    mass: Mapping[tuple[Sign, Sign], Fraction]

    def mass_of(self, base_sign: Sign, fiber_sign: Sign) -> Fraction:
        return self.mass.get((base_sign, fiber_sign), ZERO)

    def base_marginal(self) -> dict[Sign, Fraction]:
        out: dict[Sign, Fraction] = {}
        for (r, _s), m in self.mass.items():
            out[r] = out.get(r, ZERO) + m
        return out


def joint_distribution(base: EventTuple, fiber: EventTuple) -> JointDistribution:
    """Joint law of the two generated partitions, computed atom by atom."""
    _same_algebra(base.algebra, fiber.algebra, "base and fiber tuples")
    return JointDistribution(base.arity, fiber.arity, _cell_law(base, fiber))


def _unit_law(*tuples: EventTuple) -> dict[tuple[Sign, ...], int]:
    """Weight in units of 1/D of every cell the tuples generate together,
    keyed by the tuple of their sign vectors, in order of each cell's first
    atom.  Every atom has positive mass, so every key has a positive weight."""
    cells: dict[tuple[Sign, ...], int] = {}
    keys = zip(*[_sign_map(t) for t in tuples])
    for key, u in zip(keys, tuples[0].algebra.units):
        cells[key] = cells.get(key, 0) + u
    return cells


def _cell_law(*tuples: EventTuple) -> dict[tuple[Sign, ...], Fraction]:
    """_unit_law as masses: one Fraction per cell."""
    den = tuples[0].algebra.den
    return {key: Fraction(u, den) for key, u in _unit_law(*tuples).items()}


def dist_max(a: EventTuple, b: EventTuple) -> Fraction:
    """Max metric: the largest symmetric-difference mass over coordinates."""
    _same_algebra(a.algebra, b.algebra, "tuples")
    if a.arity != b.arity:
        raise ArityMismatch(f"tuples have arities {a.arity} and {b.arity}")
    best = ZERO
    for ea, eb in zip(a.events, b.events):
        d = ea.symmetric_difference(eb).mass
        if d > best:
            best = d
    return best


def dist_partition(a: EventTuple, b: EventTuple) -> Fraction:
    """Partition metric: half the summed symmetric-difference mass over cells.

    An atom whose sign vectors under a and b agree lies in matching cells and
    contributes nothing; a disagreeing atom contributes its mass at its a-sign
    and again at its b-sign.  The half-sum therefore equals the total mass of
    the atoms on which the two generated partitions disagree.
    """
    _same_algebra(a.algebra, b.algebra, "tuples")
    if a.arity != b.arity:
        raise ArityMismatch(f"tuples have arities {a.arity} and {b.arity}")
    units = a.algebra.units
    moved = [u for u, sa, sb in zip(units, _sign_map(a), _sign_map(b)) if sa != sb]
    return Fraction(sum(moved), a.algebra.den)


def uniform_algebra(m: int) -> MeasuredAlgebra:
    """m atoms of mass 1/m, built from integers: the fiber of an equal split
    by m.  Raises ZeroAtom for m < 1 and InstanceTooLarge beyond
    MAX_REFINED_ATOMS atoms, before any atom is built."""
    if m < 1:
        raise ZeroAtom(f"an algebra needs at least one atom, got {m}")
    _check_refined_size(m)
    return MeasuredAlgebra(_fresh_id(), m, (1,) * m)


def refine_to_unit(
    alg: MeasuredAlgebra, unit: Fraction
) -> tuple[MeasuredAlgebra, tuple[int, ...]]:
    """Split every atom into parts of the given unit mass.

    The unit must divide every atom mass exactly.  The masses sum to one, so
    the refinement has 1/unit atoms; raises InstanceTooLarge beyond
    MAX_REFINED_ATOMS atoms before any is built.
    """
    # atom x holds units[x] * unit.denominator / (D * unit.numerator) parts
    den = alg.den
    scale = den * unit.numerator
    counts = []
    for u in alg.units:
        count, rest = divmod(u * unit.denominator, scale)
        if rest or count < 1:
            raise PartMassMismatch(
                f"unit {unit} does not divide atom mass {Fraction(u, den)}"
            )
        counts.append(count)
    return _split(alg, counts)


def _split(
    alg: MeasuredAlgebra, counts: Sequence[int]
) -> tuple[MeasuredAlgebra, tuple[int, ...]]:
    """Split atom x into counts[x] >= 1 equal parts, for refine_to_unit and
    match_partitions.  The parts of each atom form one run,
    the runs come in atom order, and the projection maps each part to its
    parent.  Raises InstanceTooLarge, before any part is built, when
    sum(counts) passes MAX_REFINED_ATOMS.

    A part of atom x weighs u/(D*c), u = units[x] and c = counts[x], whose
    least denominator is D*c // gcd(u, D*c).  The child's den is the lcm of
    those over the distinct (u, c), and such a part holds u*den // (D*c) of
    its units."""
    _check_refined_size(sum(counts))
    parent_den = alg.den
    keys = list(zip(alg.units, counts))
    distinct = set(keys)
    den = lcm(*[parent_den * c // gcd(u, parent_den * c) for u, c in distinct])
    part = {(u, c): u * den // (parent_den * c) for u, c in distinct}
    units: list[int] = []
    projection: list[int] = []
    for x, (u, count) in enumerate(keys):
        units.extend([part[u, count]] * count)
        projection.extend([x] * count)
    return MeasuredAlgebra(_fresh_id(), den, tuple(units)), tuple(projection)


def _runs(projection: Sequence[int]) -> list[range]:
    """The run of refined atoms of each parent, indexed by parent, for a
    projection laid out by _split or product_algebra: it never decreases and
    reaches every parent, so parent p's run starts at the first index
    holding p."""
    parents = projection[-1] + 1 if projection else 0
    starts = [bisect_left(projection, p) for p in range(parents + 1)]
    return [range(start, stop) for start, stop in zip(starts, starts[1:])]


def lift_event(e: Event, refined: MeasuredAlgebra, projection: Sequence[int]) -> Event:
    """Pull an event back along a refinement projection."""
    inside = set(e.members)
    return Event(refined, tuple(j for j, parent in enumerate(projection) if parent in inside))


def lift_tuple(
    t: EventTuple, refined: MeasuredAlgebra, projection: Sequence[int]
) -> EventTuple:
    return EventTuple(refined, tuple(lift_event(e, refined, projection) for e in t.events))


def product_algebra(a: MeasuredAlgebra, b: MeasuredAlgebra) -> MeasuredAlgebra:
    """Product measure algebra, atom (i, j) at index i * b.size + j.

    Its units are the products of the factors' units over D_a * D_b: they
    have gcd 1 because the units of each factor do.  The parts (i, j) of
    atom i form one run, as in _split.  Raises InstanceTooLarge beyond
    MAX_REFINED_ATOMS atoms before any is built."""
    _check_refined_size(a.size * b.size)
    units = tuple([ua * ub for ua in a.units for ub in b.units])
    return MeasuredAlgebra(_fresh_id(), a.den * b.den, units)


class AtomPartition(Record):
    """A plain partition of the atoms into blocks.

    Blocks are canonically ordered by least member.  This is the currency of
    invariant decompositions, generated subalgebras and fixed subalgebras.
    """

    algebra: MeasuredAlgebra
    blocks: tuple[frozenset[int], ...]

    @staticmethod
    def of(algebra: MeasuredAlgebra, blocks: Iterable[Iterable[int]]) -> AtomPartition:
        bs = [frozenset(b) for b in blocks]
        seen: set[int] = set()
        for b in bs:
            if not b:
                raise PartMassMismatch("partition blocks must be nonempty")
            if b & seen:
                raise PartMassMismatch("partition blocks overlap")
            seen |= b
        if seen != set(range(algebra.size)):
            raise PartMassMismatch("partition blocks must cover all atoms")
        return AtomPartition(algebra, tuple(sorted(bs, key=min)))

    @staticmethod
    def trivial(algebra: MeasuredAlgebra) -> AtomPartition:
        return AtomPartition(algebra, (frozenset(range(algebra.size)),))

    def block_index(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for atom in b:
                out[atom] = i
        return out

    def block_mass(self, i: int) -> Fraction:
        return self.algebra.mass_of(self.blocks[i])
