"""Distances between types over a base and conditional independence.

The type of a fiber tuple over a base tuple is its joint cell-mass law with
the base partition.  Two types at distance zero are equidistributed over the
base; positive distances measure how far any realization of one must be from
the other.  Two metrics are provided: a total-variation form with a closed
formula, and a max-coordinate form computed by an exact rational linear
program over couplings.  Conditional independence is measured as the
total-variation gap to the relatively independent joining.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebra import (
    ZERO,
    EventTuple,
    JointDistribution,
    Sign,
    _cell_law,
    _same_algebra,
    joint_distribution,
)
from .errors import ArityMismatch, LPInternal, ValidationError
from .record import Record
from .simplex import solve_lp


def joint_tv_distance(j1: JointDistribution, j2: JointDistribution) -> Fraction:
    """Total-variation distance between two joint distributions.

    The distributions may come from different algebras; only the sign-keyed
    mass maps are compared, so base and fiber arities must agree."""
    if j1.base_arity != j2.base_arity or j1.fiber_arity != j2.fiber_arity:
        raise ArityMismatch("joint distributions have different shapes")
    return _tv(j1.mass, j2.mass)


def _tv(p: Mapping, q: Mapping) -> Fraction:
    """Half the summed absolute difference of two sign-keyed mass maps."""
    keys = set(p) | set(q)
    return sum((abs(p.get(k, ZERO) - q.get(k, ZERO)) for k in keys), ZERO) / 2


def type_distance_tv(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    """Total-variation distance between the types of b and c over base.

    Equals half the summed absolute difference of the two joint laws, i.e.
    the least partition-metric distance between c and any tuple realizing
    the type of b over the base.
    """
    _check_triple(base, b, c)
    return joint_tv_distance(joint_distribution(base, b), joint_distribution(base, c))


def type_distance_max(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    """Max-metric distance between the types of b and c over base.

    The least value of max_i mu(b'_i triangle c_i) over tuples b' with the
    joint law of b over the base, found by an exact simplex over per-cell
    couplings: one coupling per base cell with the two conditional laws as
    margins, minimizing the largest per-coordinate mismatch mass.
    """
    _check_triple(base, b, c)
    n = b.arity
    if n == 0:
        return ZERO
    jb = joint_distribution(base, b)
    jc = joint_distribution(base, c)
    cells = sorted(jb.base_marginal())

    var_index: dict[tuple[Sign, Sign, Sign], int] = {}
    for r in cells:
        for s in _fiber_support(jb, r):
            for t in _fiber_support(jc, r):
                var_index[(r, s, t)] = len(var_index)
    z_index = len(var_index)
    slack_base = z_index + 1
    width = slack_base + n

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for r in cells:
        for s in _fiber_support(jb, r):
            row = [ZERO] * width
            for t in _fiber_support(jc, r):
                row[var_index[(r, s, t)]] = Fraction(1)
            rows.append(row)
            rhs.append(jb.mass_of(r, s))
        for t in _fiber_support(jc, r):
            row = [ZERO] * width
            for s in _fiber_support(jb, r):
                row[var_index[(r, s, t)]] = Fraction(1)
            rows.append(row)
            rhs.append(jc.mass_of(r, t))
    for i in range(n):
        row = [ZERO] * width
        for (r, s, t), j in var_index.items():
            if s[i] != t[i]:
                row[j] = Fraction(1)
        row[z_index] = Fraction(-1)
        row[slack_base + i] = Fraction(1)
        rows.append(row)
        rhs.append(ZERO)

    objective = [ZERO] * width
    objective[z_index] = Fraction(1)
    solution = solve_lp(objective, rows, rhs)
    if solution.value < 0:
        raise LPInternal("coupling program returned a negative distance")
    return solution.value


TYPE_METRICS = ("tv", "max")


def type_distance(metric: str):
    """type_distance_tv (closed form) for "tv", type_distance_max (exact
    simplex) for "max".  Read from this module when called, so a wrapper
    set on the module attribute sees calls made by metric name."""
    if metric not in TYPE_METRICS:
        raise ValidationError(f'metric must be "tv" or "max", got {metric!r}')
    return type_distance_tv if metric == "tv" else type_distance_max


def _fiber_support(joint: JointDistribution, r: Sign) -> list[Sign]:
    return sorted(s for (rr, s) in joint.mass if rr == r)


def _check_triple(base: EventTuple, b: EventTuple, c: EventTuple) -> None:
    _same_algebra(base.algebra, b.algebra, "base and fiber tuples")
    _same_algebra(base.algebra, c.algebra, "base and fiber tuples")
    if b.arity != c.arity:
        raise ArityMismatch(f"fiber tuples have arities {b.arity} and {c.arity}")


class TripleDistribution(Record):
    """Joint cell-mass law over base x mid x fiber sign vectors.

    Keys are (base sign r, mid sign t, fiber sign s); absent keys mean zero.
    """

    base_arity: int
    mid_arity: int
    fiber_arity: int
    mass: Mapping[tuple[Sign, Sign, Sign], Fraction]

    def mass_of(self, r: Sign, t: Sign, s: Sign) -> Fraction:
        return self.mass.get((r, t, s), ZERO)


def triple_law(base: EventTuple, mid: EventTuple, fiber: EventTuple) -> TripleDistribution:
    """Actual joint law of three tuples, computed atom by atom."""
    _same_algebra(base.algebra, mid.algebra, "tuples")
    _same_algebra(base.algebra, fiber.algebra, "tuples")
    return TripleDistribution(
        base.arity, mid.arity, fiber.arity, _cell_law(base, mid, fiber)
    )


def relatively_independent_joining(
    base: EventTuple, b: EventTuple, c: EventTuple
) -> TripleDistribution:
    """The joining coupling b and c independently over each base cell:

        mass(r, t, s) = mass(r, t) * mass(r, s) / mass(r).

    Base cells of mass zero contribute nothing.
    """
    _same_algebra(base.algebra, b.algebra, "tuples")
    _same_algebra(base.algebra, c.algebra, "tuples")
    jb = joint_distribution(base, b)
    jc = joint_distribution(base, c)
    base_masses = jb.base_marginal()
    mass: dict[tuple[Sign, Sign, Sign], Fraction] = {}
    for (r, s), mb in jb.mass.items():
        for t in _fiber_support(jc, r):
            mass[(r, t, s)] = mb * jc.mass_of(r, t) / base_masses[r]
    return TripleDistribution(base.arity, c.arity, b.arity, mass)


def independence_deficiency(
    base: EventTuple, b: EventTuple, c: EventTuple
) -> Fraction:
    """Total-variation distance between the actual joint law of
    (base, c, b) and the relatively independent joining; zero exactly when
    b and c are conditionally independent over the base partition."""
    actual = triple_law(base, c, b).mass
    return _tv(actual, relatively_independent_joining(base, b, c).mass)
