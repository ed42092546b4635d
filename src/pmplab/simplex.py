"""Exact rational linear programming by the two-phase simplex method.

Minimizes c.x subject to A x = b, x >= 0 on a dense fraction-free tableau
(Edmonds 1967; Bareiss 1968).  Every row and its right-hand side are scaled
by one common L, the lcm of all their denominators, and the objective by the
lcm of its own.  The tableau then holds integers over one common denominator
`det`: a pivot on p > 0 keeps the pivot row, maps every other row, the
reduced-cost row included, to (v*p - f*w) // det, and sets det = p.  Each
division is exact, since every entry is a minor of the scaled matrix, and
ratios are compared by cross-multiplication.  Bland's smallest-index rule
picks the entering and the leaving variable, which rules out cycling.  The
scale is common so that the phase-1 artificials keep equal weights: every
reduced cost and ratio then keeps its sign and order, and the pivots, the
basis and x are those of the same simplex over Fractions.  The caller's
cap MAX_LP_ENTRIES bounds an instance to 2^13 rows * columns (such as
29 x 160), so no effort is spent on sparsity.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import LPInternal
from .record import Record


class LPSolution(Record):
    value: Fraction
    x: tuple[Fraction, ...]


def solve_lp(
    objective: Sequence[int | Fraction],
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> LPSolution:
    """Minimize objective . x subject to rows . x = rhs, x >= 0.

    Coefficients may be ints or Fractions, mixed freely: only their
    numerators and denominators are read, and an int is its own numerator
    over 1.  The solution is the same either way, in Fractions.

    Raises LPInternal if the program is infeasible or unbounded; callers in
    this package only build feasible bounded programs, so either condition
    signals a bug.
    """
    n = len(objective)
    m = len(rows)
    if any(len(row) != n for row in rows):
        raise LPInternal("constraint row has wrong length")
    body = [[*rows[i], rhs[i]] for i in range(m)]
    scale = lcm(*(v.denominator for row in body for v in row))

    # Phase 1: artificial variable j + n in row j, minimize their sum.  The
    # last row of the tableau is its reduced-cost row: minus the sum of the
    # rows, zero under the artificials.
    tableau: list[list[int]] = []
    for i, row in enumerate(body):
        ints = [v.numerator * (scale // v.denominator) for v in row]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        tableau.append(ints[:n] + [int(j == i) for j in range(m)] + ints[n:])
    red = [-sum(row[j] for row in tableau) for j in range(n + m + 1)]
    red[n : n + m] = [0] * m
    tableau.append(red)
    basis = [n + i for i in range(m)]
    det = _optimize(tableau, basis, 1)
    if tableau[-1][-1] != 0:
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
        if tableau[i][pivot_col] < 0:
            tableau[i] = [-v for v in tableau[i]]  # its rhs is 0
        det = _pivot(tableau, basis, i, pivot_col, det)
        keep.append(i)
    tableau = [tableau[i][:n] + tableau[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: reduced costs c.det - sum_i c_B(i) row_i of the scaled objective.
    cscale = lcm(*(v.denominator for v in objective))
    cost = [v.numerator * (cscale // v.denominator) for v in objective]
    red = [c * det for c in cost] + [0]
    for row, var in zip(tableau, basis):
        if cost[var] != 0:
            red = [r - cost[var] * v for r, v in zip(red, row)]
    tableau.append(red)
    det = _optimize(tableau, basis, det)
    x = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        x[var] = Fraction(row[-1], det)
    return LPSolution(Fraction(-tableau[-1][-1], det * cscale), tuple(x))


def _optimize(tableau: list[list[int]], basis: list[int], det: int) -> int:
    """Pivot by Bland's rule until no reduced cost (the last row) is negative;
    return the final common denominator."""
    while True:
        red = tableau[-1]
        entering = next((j for j, r in enumerate(red[:-1]) if r < 0), None)
        if entering is None:
            return det
        leaving_row = None
        for i, var in enumerate(basis):
            a = tableau[i][entering]
            if a <= 0:
                continue
            b = tableau[i][-1]
            if leaving_row is not None:
                # b / a against best_b / best_a, both denominators positive
                here, best = b * best_a, best_b * a
                if here > best or (here == best and var > basis[leaving_row]):
                    continue
            leaving_row, best_a, best_b = i, a, b
        if leaving_row is None:
            raise LPInternal("unbounded program")
        det = _pivot(tableau, basis, leaving_row, entering, det)


def _pivot(
    tableau: list[list[int]], basis: list[int], row: int, col: int, det: int
) -> int:
    """Pivot on tableau[row][col] > 0 and return it, the new denominator."""
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    if pivot == 0:
        raise LPInternal("zero pivot")
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor == 0:
            tableau[i] = [v * pivot // det for v in other]
        else:
            tableau[i] = [
                (v * pivot - factor * w) // det for v, w in zip(other, pivot_row)
            ]
    basis[row] = col
    return pivot
