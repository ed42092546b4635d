"""Exact rational simplex solver."""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab.errors import LPInternal
from pmplab.simplex import LPSolution, solve_lp

F = Fraction


def test_simple_bounded_minimum():
    # minimize x - y subject to x + y = 1
    sol = solve_lp([F(1), F(-1)], [[F(1), F(1)]], [F(1)])
    assert sol.value == -1
    assert sol.x == (F(0), F(1))


def test_transportation_instance():
    # optimal coupling of (1/2, 1/2) with (1/4, 3/4) charged off the diagonal
    objective = [F(0), F(1), F(1), F(0)]
    rows = [
        [F(1), F(1), F(0), F(0)],
        [F(0), F(0), F(1), F(1)],
        [F(1), F(0), F(1), F(0)],
        [F(0), F(1), F(0), F(1)],
    ]
    rhs = [F(1, 2), F(1, 2), F(1, 4), F(3, 4)]
    sol = solve_lp(objective, rows, rhs)
    assert sol.value == F(1, 4)


def test_degenerate_instance_terminates():
    # several redundant constraints force degenerate pivots; Bland's rule
    # must still reach the optimum
    objective = [F(1), F(1), F(1)]
    rows = [
        [F(1), F(1), F(0)],
        [F(1), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    rhs = [F(0), F(0), F(0)]
    sol = solve_lp(objective, rows, rhs)
    assert sol.value == 0


def test_infeasible_raises():
    with pytest.raises(LPInternal):
        solve_lp([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])


def test_unbounded_raises():
    # minimize -x with x free to grow: x - s = 0 keeps x unbounded above
    with pytest.raises(LPInternal):
        solve_lp([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])


def test_solution_satisfies_constraints():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, 3)
        rows = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        # build a right-hand side from a known feasible point so the program
        # is feasible by construction
        point = [F(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum(r[j] * point[j] for j in range(n)) for r in rows]
        objective = [F(rng.randint(1, 5)) for _ in range(n)]
        sol = solve_lp(objective, rows, rhs)
        assert all(v >= 0 for v in sol.x)
        for r, b in zip(rows, rhs):
            assert sum(rj * xj for rj, xj in zip(r, sol.x)) == b
        assert sol.value <= sum(
            objective[j] * point[j] for j in range(n)
        )


def test_empty_tableau_with_nonnegative_costs():
    # the only row is 0 = 0, dropped as redundant
    assert solve_lp([F(1)], [[F(0)]], [F(0)]) == LPSolution(F(0), (F(0),))
    assert solve_lp([F(1), F(2)], [], []) == LPSolution(F(0), (F(0), F(0)))


def test_empty_tableau_with_a_negative_cost_is_unbounded():
    with pytest.raises(LPInternal, match="unbounded"):
        solve_lp([F(1), F(-2)], [[F(0), F(0)]], [F(0)])
    with pytest.raises(LPInternal, match="unbounded"):
        solve_lp([F(-1)], [], [])


ZERO = Fraction(0)
ONE = Fraction(1)


def oracle_solve_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPSolution:
    """The dense Fraction two-phase simplex that `solve_lp` replaced, kept
    as its oracle: the same Bland pivots, recomputing every reduced cost."""
    n = len(objective)
    m = len(rows)
    tableau: list[list[Fraction]] = []
    for i in range(m):
        if len(rows[i]) != n:
            raise LPInternal("constraint row has wrong length")
        row = [Fraction(v) for v in rows[i]] + [Fraction(rhs[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        tableau.append(row)

    # Phase 1: artificial variable j + n in row j, minimize their sum.
    for i in range(m):
        body = tableau[i][:n]
        art = [ONE if j == i else ZERO for j in range(m)]
        tableau[i] = body + art + [tableau[i][-1]]
    basis = [n + i for i in range(m)]
    cost1 = [ZERO] * n + [ONE] * m
    _optimize(tableau, basis, cost1)
    if _objective_value(tableau, basis, cost1) != 0:
        raise LPInternal("phase 1 ended positive: infeasible program")

    # Drive leftover artificials out of the basis, dropping redundant rows.
    keep: list[int] = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if pivot_col is None:
            continue  # redundant constraint
        _pivot(tableau, basis, i, pivot_col)
        keep.append(i)
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    cost2 = [Fraction(v) for v in objective]
    _optimize(tableau, basis, cost2)
    x = [ZERO] * n
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return LPSolution(_objective_value(tableau, basis, cost2), tuple(x))


def _reduced_costs(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    width = len(tableau[0]) - 1 if tableau else len(cost)  # no rows left
    reduced = list(cost[:width])
    for i, var in enumerate(basis):
        cb = cost[var]
        if cb == 0:
            continue
        row = tableau[i]
        for j in range(width):
            if row[j] != 0:
                reduced[j] -= cb * row[j]
    return reduced


def _objective_value(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> Fraction:
    return sum((cost[var] * tableau[i][-1] for i, var in enumerate(basis)), ZERO)


def _optimize(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> None:
    while True:
        reduced = _reduced_costs(tableau, basis, cost)
        entering = next((j for j, r in enumerate(reduced) if r < 0), None)
        if entering is None:
            return
        leaving_row = None
        best_ratio = None
        for i, row in enumerate(tableau):
            if row[entering] <= 0:
                continue
            ratio = row[-1] / row[entering]
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[leaving_row])
            ):
                best_ratio = ratio
                leaving_row = i
        if leaving_row is None:
            raise LPInternal("unbounded program")
        _pivot(tableau, basis, leaving_row, entering)


def _pivot(
    tableau: list[list[Fraction]], basis: list[int], row: int, col: int
) -> None:
    pivot = tableau[row][col]
    if pivot == 0:
        raise LPInternal("zero pivot")
    tableau[row] = [v / pivot for v in tableau[row]]
    for i in range(len(tableau)):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor == 0:
            continue
        tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[row])]
    basis[row] = col


def _outcome(objective, rows, rhs):
    """The solution, or the LPInternal message."""
    try:
        return oracle_solve_lp(objective, rows, rhs)
    except LPInternal as exc:
        return str(exc)


def _same_as_oracle(objective, rows, rhs):
    want = _outcome(objective, rows, rhs)
    if isinstance(want, str):
        with pytest.raises(LPInternal) as info:
            solve_lp(objective, rows, rhs)
        assert str(info.value) == want
    else:
        assert solve_lp(objective, rows, rhs) == want


# mixed denominators, so the common scale of the rows is not 1
_rationals = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4, 6, 7])
)
_masses = st.builds(Fraction, st.integers(0, 5), st.sampled_from([1, 2, 3, 5, 12]))


@st.composite
def _coupling_programs(draw):
    """The shape `type_distance_max` builds: per cell, one coupling of two
    margins of equal total; per coordinate, a mismatch row x_mask - z + s = 0;
    minimize z."""
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.lists(_masses, min_size=1, max_size=3))
        q = draw(st.lists(_masses, min_size=1, max_size=3))
        gap = sum(p) - sum(q)
        if gap > 0:
            q.append(gap)
        elif gap < 0:
            p.append(-gap)
        cells.append((p, q))
    pairs = [(c, s, t) for c, (p, q) in enumerate(cells)
             for s in range(len(p)) for t in range(len(q))]
    k = draw(st.integers(1, 3))
    z = len(pairs)
    width = z + 1 + k
    rows, rhs = [], []
    for c, (p, q) in enumerate(cells):
        for s, mass in enumerate(p):
            rows.append([ONE if pr[0] == c and pr[1] == s else ZERO for pr in pairs])
            rhs.append(mass)
        for t, mass in enumerate(q):
            rows.append([ONE if pr[0] == c and pr[2] == t else ZERO for pr in pairs])
            rhs.append(mass)
    rows = [row + [ZERO] * (1 + k) for row in rows]
    for i in range(k):
        mask = draw(st.lists(st.booleans(), min_size=z, max_size=z))
        row = [ONE if bit else ZERO for bit in mask] + [ZERO] * (1 + k)
        row[z] = -ONE
        row[z + 1 + i] = ONE
        rows.append(row)
        rhs.append(ZERO)
    objective = [ZERO] * width
    objective[z] = ONE
    return objective, rows, rhs


@st.composite
def _general_programs(draw):
    """Random programs: feasible by construction from a sparse point (so
    many right-hand sides are 0) or with a free right-hand side (often
    infeasible), negative entries (so some right-hand sides are negative and
    some objectives unbounded), and scaled copies of rows (redundant)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        point = draw(st.lists(st.sampled_from([ZERO, ZERO, ONE, Fraction(3, 2)]),
                              min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
    else:
        rhs = draw(st.lists(_rationals, min_size=m, max_size=m))
    copies = draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else []
    for i in copies:
        factor = draw(_rationals.filter(bool))
        rows.append([factor * a for a in rows[i]])
        rhs.append(factor * rhs[i])
    objective = draw(st.lists(_rationals, min_size=n, max_size=n))
    return objective, rows, rhs


@given(_coupling_programs())
@settings(max_examples=200, deadline=None)
def test_coupling_programs_match_the_fraction_oracle(program):
    _same_as_oracle(*program)


@given(_general_programs())
@settings(max_examples=400, deadline=None)
def test_general_programs_match_the_fraction_oracle(program):
    _same_as_oracle(*program)


@given(_coupling_programs())
@settings(max_examples=200, deadline=None)
def test_integer_programs_match_their_fraction_copies(program):
    """The program `type_distance_max` builds is all integer: the same
    coupling program with its right-hand side in units of 1/scale gives the
    same LPSolution as its copy in Fractions, and scale times the value."""
    objective, rows, rhs = program
    scale = lcm(*(v.denominator for v in rhs))
    ints = (
        [int(v) for v in objective],
        [[int(v) for v in row] for row in rows],
        [int(v * scale) for v in rhs],
    )
    copy = [[Fraction(v) for v in part] for part in (ints[0], *ints[1], ints[2])]
    fractions = (copy[0], copy[1:-1], copy[-1])
    assert all(type(v) is int for v in ints[0] + ints[2])
    got = solve_lp(*ints)
    assert got == solve_lp(*fractions)
    assert type(got.value) is Fraction and all(type(v) is Fraction for v in got.x)
    assert got.value == solve_lp(*program).value * scale
