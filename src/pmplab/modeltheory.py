"""Distances between types over a base and conditional independence.

The type of a fiber tuple over a base tuple is its joint cell-mass law with
the base partition.  Two types at distance zero are equidistributed over the
base; positive distances measure how far any realization of one must be from
the other.  Two metrics are provided: a total-variation form with a closed
formula, and a max-coordinate form computed by an exact rational linear
program over couplings.  Conditional independence is measured as the
total-variation gap to the relatively independent joining.

The kernels on tuples of one algebra read the joint law of their tuples in
integer units of 1/D, D its common denominator, keyed by packed keys (see
the algebra module), which they split into each tuple's cell with shifts
and masks, and build one Fraction per result; joint_tv_distance, whose two
laws may come from two algebras, adds over the lcm of their denominators.

Both type distances start from the residual laws: in each base cell, the
law p of b less min(p, q) and the law q of c less min(p, q), cell by cell.
Shared mass can stay on the diagonal of an optimal coupling.  If a coupling
sends d from s to t' and d from s' to s, sending d from s' to t' and d from
s to s keeps both margins, and by the triangle inequality for each
coordinate's mismatch [bit i of s ^ t] it raises no coordinate's mismatch mass.
So the max-metric program couples only the residual masses, whose supports
are disjoint: a cell where the two laws agree drops out, and at arity 1
every residual pair mismatches in its one coordinate, so the max distance
is the total-variation distance, the summed residual mass.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra import (
    ZERO,
    EventTuple,
    JointDistribution,
    Sign,
    _cell_law,
    _same_algebra,
    _sign_law,
    _unit_law,
)
from .errors import ArityMismatch, LPInternal, ValidationError
from .limits import _check_lp_entries
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
    """Half the summed absolute difference of two sign-keyed mass maps, added
    in integer units of the lcm of their denominators."""
    den = lcm(*[m.denominator for law in (p, q) for m in law.values()])
    gap = {k: m.numerator * (den // m.denominator) for k, m in p.items()}
    for k, m in q.items():
        gap[k] = gap.get(k, 0) - m.numerator * (den // m.denominator)
    return Fraction(sum(map(abs, gap.values())), 2 * den)


def _residual_laws(
    base: EventTuple, b: EventTuple, c: EventTuple
) -> list[tuple[dict[int, int], dict[int, int]]]:
    """The residual laws of b and c in each base cell where they differ, in
    units of 1/D: p - min(p, q) and q - min(p, q), positive entries only.

    A cell where b and c agree adds to p and q alike, so only the cells (r,
    s, t) of the joint law where they differ are read.  The two sides of a
    cell have disjoint supports and equal totals."""
    shift, n = base.arity, b.arity
    cells: dict[int, dict[int, int]] = {}
    for key, u in _unit_law(base, b, c).items():
        r, s, t = key & (1 << shift) - 1, key >> shift & (1 << n) - 1, key >> shift + n
        if s != t:
            gap = cells.setdefault(r, {})
            gap[s] = gap.get(s, 0) + u
            gap[t] = gap.get(t, 0) - u
    laws = []
    for gap in cells.values():
        p = {s: m for s, m in gap.items() if m > 0}
        if p:
            laws.append((p, {t: -m for t, m in gap.items() if m < 0}))
    return laws


def type_distance_tv(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    """Total-variation distance between the types of b and c over base.

    Equals half the summed absolute difference of the two joint laws, i.e.
    the least partition-metric distance between c and any tuple realizing
    the type of b over the base: the summed residual mass of b.
    """
    _check_triple(base, b, c)
    laws = _residual_laws(base, b, c)
    return Fraction(sum([sum(p.values()) for p, _q in laws]), base.algebra.den)


def type_distance_max(base: EventTuple, b: EventTuple, c: EventTuple) -> Fraction:
    """Max-metric distance between the types of b and c over base.

    The least value of max_i mu(b'_i triangle c_i) over tuples b' with the
    joint law of b over the base, found by an exact simplex over per-cell
    couplings: one coupling per base cell with the two conditional laws as
    margins, minimizing the largest per-coordinate mismatch mass.

    Some optimal coupling keeps min(p(s), q(s)) on the diagonal of every
    cell (see the module docstring), so the program couples only the
    residual laws, with integer rows in units of 1/D.  A cell whose residual
    has one cell on either side has one coupling: its mismatch mass in each
    coordinate is a constant, which moves to the right-hand side.  Every
    other cell gets one variable per residual pair and its margin rows less
    one, which its equal totals make redundant.  No program is solved when
    every cell is forced: the distance is then the largest forced mismatch,
    0 when the laws agree in every cell.  At arity 1 every cell is forced,
    since the two sides of a cell have disjoint supports among two cells,
    and the distance is the total-variation distance, the summed residual
    mass.
    """
    _check_triple(base, b, c)
    den = base.algebra.den
    n = b.arity
    forced = [0] * n
    free = []
    for p, q in _residual_laws(base, b, c):
        if len(p) == 1:
            [s] = p
            moves = [(s, t, mass) for t, mass in q.items()]
        elif len(q) == 1:
            [t] = q
            moves = [(s, t, mass) for s, mass in p.items()]
        else:
            free.append((p, q))
            continue
        for s, t, mass in moves:
            for i in range(n):
                if (s ^ t) >> i & 1:
                    forced[i] += mass
    if not free:
        return Fraction(max(forced, default=0), den)

    z = sum([len(p) * len(q) for p, q in free])
    width = z + 1 + n
    _check_lp_entries(sum([len(p) + len(q) - 1 for p, q in free]) + n, width)
    rows: list[list[int]] = []
    rhs: list[int] = []
    pairs: list[tuple[int, int]] = []
    for p, q in free:
        start, step = len(pairs), len(q)
        stop = start + len(p) * step
        for i, mass in enumerate(p.values()):
            row = [0] * width
            row[start + i * step : start + (i + 1) * step] = [1] * step
            rows.append(row)
            rhs.append(mass)
        for j, mass in enumerate(list(q.values())[:-1]):
            row = [0] * width
            row[start + j : stop : step] = [1] * len(p)
            rows.append(row)
            rhs.append(mass)
        pairs.extend(product(p, q))
    for i in range(n):
        row = [(s ^ t) >> i & 1 for s, t in pairs] + [0] * (1 + n)
        row[z] = -1
        row[z + 1 + i] = 1
        rows.append(row)
        rhs.append(-forced[i])

    objective = [0] * width
    objective[z] = 1
    solution = solve_lp(objective, rows, rhs)
    if solution.value < 0:
        raise LPInternal("coupling program returned a negative distance")
    return solution.value / den


TYPE_METRICS = ("tv", "max")


def type_distance(metric: str):
    """type_distance_tv (closed form) for "tv", type_distance_max (exact
    simplex) for "max".  Read from this module when called, so a wrapper
    set on the module attribute sees calls made by metric name."""
    if metric not in TYPE_METRICS:
        raise ValidationError(f'metric must be "tv" or "max", got {metric!r}')
    return type_distance_tv if metric == "tv" else type_distance_max


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

    Base cells of mass zero contribute nothing.  Keys come in the order of
    the first atom of each (r, s), then in sorted order of t; in units of
    1/D each mass is B(r, s) * C(r, t) / (D * U(r)).
    """
    _same_algebra(base.algebra, b.algebra, "tuples")
    _same_algebra(base.algebra, c.algebra, "tuples")
    law_b: dict[tuple[Sign, Sign], int] = {}
    cells: dict[Sign, dict[Sign, int]] = {}
    for (r, s, t), u in _sign_law(base, b, c).items():
        law_b[r, s] = law_b.get((r, s), 0) + u
        law_c = cells.setdefault(r, {})
        law_c[t] = law_c.get(t, 0) + u
    den = base.algebra.den
    scale = {r: den * sum(law_c.values()) for r, law_c in cells.items()}
    mass: dict[tuple[Sign, Sign, Sign], Fraction] = {}
    for (r, s), mb in law_b.items():
        law_c = cells[r]
        for t in sorted(law_c):
            mass[(r, t, s)] = Fraction(mb * law_c[t], scale[r])
    return TripleDistribution(base.arity, c.arity, b.arity, mass)


def independence_deficiency(
    base: EventTuple, b: EventTuple, c: EventTuple
) -> Fraction:
    """Total-variation distance between the actual joint law of
    (base, c, b) and the relatively independent joining; zero exactly when
    b and c are conditionally independent over the base partition.

    The joining's support holds the actual law's, so base cell r adds
    sum |A(r, t, s) * U(r) - B(r, s) * C(r, t)| / (2 * U(r) * D) over its
    pairs (t, s), all in units of 1/D; the inner sum is all integer."""
    _same_algebra(base.algebra, c.algebra, "tuples")
    _same_algebra(base.algebra, b.algebra, "tuples")
    shift, n = base.arity, c.arity
    cells: dict[int, dict[int, int]] = {}
    for key, u in _unit_law(base, c, b).items():
        cells.setdefault(key & (1 << shift) - 1, {})[key >> shift] = u
    total = ZERO
    for law in cells.values():
        law_c: dict[int, int] = {}
        law_b: dict[int, int] = {}
        for ts, a in law.items():
            t, s = ts & (1 << n) - 1, ts >> n
            law_c[t] = law_c.get(t, 0) + a
            law_b[s] = law_b.get(s, 0) + a
        mass = sum(law_c.values())
        gap = sum([
            abs(law.get(t | s << n, 0) * mass - mb * mc)
            for t, mc in law_c.items()
            for s, mb in law_b.items()
        ])
        if gap:
            total += Fraction(gap, mass)
    return total / (2 * base.algebra.den)
