"""Desk-scale linear relaxations.

A primal simplex on a tableau of the nonbasic columns and the right-hand
side; each pivot is one rank-1 update of it, added as a single BLAS
product.  It leaves every entry as the outer product's update does, bit for
bit and zeros included, since the tableau holds no -0 after its first
pivot.  Every valid instance has a feasible relaxation, so each starts from
a basis that is feasible by construction, and there is no phase 1:

- A cover, min c.x s.t. A x >= b, x >= 0, is solved through its dual,
  max b.y s.t. A^T y <= c, y >= 0, from the slack basis: y = 0 is feasible
  because c >= 0.  At the optimum the reduced costs of the slack columns are
  the complementary primal basic solution, so the returned x is a vertex.
  It is priced by Dantzig's rule, with Bland's rule after 50 degenerate
  pivots in a row until the next nondegenerate one, so it cannot cycle.
- The minimax relaxation starts from a greedy crash basis: each group in
  order takes the slot that raises the current max load least, W is basic in
  the max-load row, and every other load row's slack is basic.  It is priced
  by Bland's rule throughout, whose vertices round to lower max loads.

Downstream rounding needs vertices; the test oracles re-derive the same
optima by brute-force vertex enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (POINT_TOL, CipInstance, FractionalSolution, InfeasibleError, MipInstance,
                    _check_cover, _csr, _group_totals)

__all__ = ["LpReport", "solve_cip_lp", "solve_mip_lp", "ingest_solution", "InfeasibleError"]

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LpReport:
    solution: FractionalSolution | None
    objective: float
    iterations: int
    status: str  # "optimal" | "iteration-limit"


def _pivot(tableau: np.ndarray, basis: list[int], nonbasic: np.ndarray, row: int, col: int) -> None:
    """Pivot column `col`'s variable into the basis at `row`: the leaving
    variable's unit column takes its place, then one rank-1 update, added as
    the BLAS product of the negated column and the pivot row.

    Each entry gets the value the pivot of the full tableau gives it, bit for
    bit: there every basic column is an exact unit vector whose zeros stay +0.
    The product's inner dimension is 1, so each term is one rounded
    multiplication (an FMA onto a zero also rounds once), and negation is
    exact: every nonzero term is that of `np.outer`.  A zero term may come
    back as +0 where `np.outer` gives -0, which changes only a -0 entry, and
    the tableau holds none from its first pivot on: a cover's pivots are
    positive, and the minimax W pivot clears the -0 of unloaded rows' -loads
    and of its own division by -1.
    """
    column = tableau[:, col].copy()
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    tableau[row] /= column[row]
    column[row] = 0.0
    tableau += np.dot(-column[:, None], tableau[row][None, :])
    basis[row], nonbasic[col] = int(nonbasic[col]), basis[row]


def _entering(costs: np.ndarray, nonbasic: np.ndarray, bland: bool) -> int:
    """Column of the most negative reduced cost (Dantzig) or of the first
    negative one (Bland), -1 if none; ties go to the smallest variable."""
    col = int(costs.argmin())
    if costs[col] >= -PIVOT_TOL:
        return -1
    candidates = (costs < -PIVOT_TOL if bland else costs == costs[col]).nonzero()[0]
    return col if candidates.size == 1 else int(candidates[nonbasic[candidates].argmin()])


def _leaving(column: np.ndarray, rhs: np.ndarray, basis: list[int]) -> tuple[int, float]:
    """Row of the smallest ratio (-1 if none) and the ratio, scanning rows in
    order: within PIVOT_TOL of the best, the smaller basic variable wins, and
    a row more than PIVOT_TOL above the best is skipped at once."""
    rows = (column > PIVOT_TOL).nonzero()[0]
    best_ratio, leaving = math.inf, -1
    for i, ratio in zip(rows.tolist(), (rhs[rows] / column[rows]).tolist()):
        if ratio - best_ratio > PIVOT_TOL:
            continue
        if ratio < best_ratio - PIVOT_TOL or (
            abs(ratio - best_ratio) <= PIVOT_TOL and (leaving < 0 or basis[i] < basis[leaving])
        ):
            best_ratio, leaving = ratio, i
    return leaving, best_ratio


def _run_simplex(tableau, basis, nonbasic, budget: int, stall_limit: int) -> tuple[int, str]:
    """Price a tableau whose last row holds reduced costs.

    Dantzig's rule enters the most negative reduced cost; after
    `stall_limit` degenerate pivots in a row (ratio at most PIVOT_TOL),
    Bland's rule enters the first negative one until the next nondegenerate
    pivot, so no basis repeats.  A stall limit of 0 is Bland's rule
    throughout.  Returns (iterations used, status); mutates its arguments.
    """
    iterations = stalled = 0
    costs, rhs = tableau[-1, :-1], tableau[:-1, -1]  # views: pivots update them in place
    while iterations < budget:
        col = _entering(costs, nonbasic, stalled >= stall_limit)
        if col < 0:
            return iterations, "optimal"
        row, ratio = _leaving(tableau[:-1, col], rhs, basis)
        if row < 0:
            raise RuntimeError("objective unbounded; not reachable on valid instances")
        _pivot(tableau, basis, nonbasic, row, col)
        iterations += 1
        stalled = stalled + 1 if ratio <= PIVOT_TOL else 0
    return iterations, "iteration-limit"


def _solve(instance, tableau, basis, nonbasic, limit: int, stall_limit: int, read_x) -> LpReport:
    """Run the simplex from a feasible, priced basis; `read_x` reads the
    instance's point from every variable's optimal value and reduced cost."""
    iterations, status = _run_simplex(tableau, basis, nonbasic, limit, stall_limit)
    if status != "optimal":
        return LpReport(None, math.nan, iterations, status)
    values, reduced = np.zeros((2, len(basis) + nonbasic.size))
    values[basis] = tableau[:-1, -1]
    reduced[nonbasic] = tableau[-1, :-1]
    solution = ingest_solution(instance, read_x(values, reduced))
    return LpReport(solution, solution.objective_values[0], iterations, status)


def solve_cip_lp(instance: CipInstance) -> LpReport:
    """Relaxation min c.x s.t. A x >= b, x >= 0 under the first cost vector,
    solved to a vertex through its dual."""
    m, n = instance.m, instance.n
    # A^T y + s = c from the slack basis, which costs 0, so the cost row -b
    # is priced; x is the slacks' reduced costs at the optimum
    tableau = np.zeros((n + 1, m + 1))
    tableau[:n, :m] = instance.a_matrix.T
    tableau[:n, -1] = instance.costs[0]
    tableau[-1, :m] = -instance.demands
    return _solve(instance, tableau, list(range(m, m + n)), np.arange(m), 50 * (m + n), 50,
                  lambda values, reduced: reduced[m:])


def _crash_slots(instance: MipInstance) -> tuple[list[int], np.ndarray]:
    """Each group in order takes the slot that raises the current max load
    least (the first on ties); returns the slots and the loads they make.

    As A >= 0, slot j's max load max(loads + A[:, j]) is the larger of
    max(loads) and loads[r] + a_rj over column j's nonzeros, so each slot
    costs only its own nonzeros; the sums are the dense form's, bit for bit.
    """
    col_ptr, order = _csr(instance.cols, np.arange(instance.cols.size), instance.n_cols)
    ptr, rows, vals = col_ptr.tolist(), instance.rows[order].tolist(), instance.vals[order].tolist()
    loads = [0.0] * instance.m
    top = 0.0  # max(loads)
    slots = []
    for start, size in zip(instance.offsets, instance.group_sizes):
        best, slot = math.inf, start
        for j in range(start, start + size):
            peak = top
            for k in range(ptr[j], ptr[j + 1]):
                value = loads[rows[k]] + vals[k]
                if value > peak:
                    peak = value
            if peak < best:
                best, slot = peak, j
        for k in range(ptr[slot], ptr[slot + 1]):
            row = rows[k]
            loads[row] += vals[k]
            if loads[row] > top:
                top = loads[row]
        slots.append(slot)
    return slots, np.array(loads)


def solve_mip_lp(instance: MipInstance) -> LpReport:
    """Relaxation: minimize the max row load W over the product of simplices.

    Variables are the fractional assignments, then W, then one slack per
    load row; the returned point is a vertex, so at most m assignment entries
    are strictly fractional.  The tableau is written with the crash slots
    already basic, then W is pivoted in; Bland's rule runs from there.
    """
    m, n, n_groups, a = instance.m, instance.n_cols, instance.n_groups, instance.a_matrix
    group_of = np.repeat(np.arange(n_groups), instance.group_sizes)
    slots, loads = _crash_slots(instance)
    columns = np.delete(np.arange(n), slots)
    # Rows: group sums = 1, then A x - W + slack = 0 with each group's crash
    # slot eliminated; the basic slots and slacks are not stored.
    tableau = np.zeros((n_groups + m + 1, columns.size + 2))
    tableau[group_of[columns], np.arange(columns.size)] = 1.0
    tableau[:n_groups, -1] = 1.0
    tableau[n_groups:-1, :-2] = a[:, columns] - a[:, np.array(slots)[group_of[columns]]]
    tableau[n_groups:-1, -2] = -1.0
    tableau[n_groups:-1, -1] = -loads
    tableau[-1, -2] = 1.0
    basis = slots + list(range(n + 1, n + 1 + m))
    nonbasic = np.append(columns, n)
    # W enters at the max-load row, which also prices the cost row; neither
    # this pivot nor the slot elimination is a simplex iteration.
    _pivot(tableau, basis, nonbasic, n_groups + int(np.argmax(loads)), columns.size)
    return _solve(instance, tableau, basis, nonbasic, 50 * (n_groups + m + n + 1), 0,
                  lambda values, reduced: values[:n])


def ingest_solution(instance, x) -> FractionalSolution:
    """Validate an externally produced fractional point and wrap it.

    Entries must be finite and at least -1e-6; the returned point clips them
    at 0 and must pass the feasibility rule that rounding applies too: a
    cover's demands, or a minimax program's group sums of 1, each met within
    1e-6.  Anything else raises InfeasibleError.  The objective values are
    those of the clipped point.
    """
    if not isinstance(instance, (CipInstance, MipInstance)):
        raise TypeError(f"unsupported instance type {type(instance)!r}")
    x = np.asarray(x, dtype=float)
    n = instance.shape[1]
    if x.shape != (n,):
        raise InfeasibleError(f"expected {n} values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InfeasibleError("solution has non-finite entries")
    if np.any(x < -POINT_TOL):
        raise InfeasibleError("solution has negative entries")
    x = np.maximum(x, 0.0)
    if isinstance(instance, CipInstance):
        _check_cover(instance, x)
        return FractionalSolution(x=x, objective_values=tuple(float(c @ x) for c in instance.costs))
    _group_totals(instance, x)
    return FractionalSolution(x=x, objective_values=(float(instance.loads(x).max()),))
