"""Desk-scale linear relaxations.

A dense primal simplex; each pivot is one rank-1 update of the whole
tableau.  Every valid instance has a feasible relaxation, so each relaxation
starts from a basis that is feasible by construction, and there is no
phase 1:

- A cover, min c.x s.t. A x >= b, x >= 0, is solved through its dual,
  max b.y s.t. A^T y <= c, y >= 0, from the slack basis: y = 0 is feasible
  because c >= 0.  At the optimum the reduced costs of the slack columns are
  the complementary primal basic solution, so the returned x is a vertex.
  It is priced by Dantzig's rule (the most negative reduced cost enters),
  with Bland's rule after 50 degenerate pivots in a row until the next
  nondegenerate one, so it cannot cycle.
- The minimax relaxation starts from a greedy crash basis: each group in
  order takes the slot that raises the current max load least, W is basic in
  the max-load row, and every other load row's slack is basic.  It is priced
  by Bland's rule throughout, whose vertices round to lower max loads.

Downstream rounding needs basic optimal solutions (vertices), and the test
oracles re-derive the same optima by brute-force vertex enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CipInstance, FractionalSolution, MipInstance

__all__ = ["LpReport", "solve_cip_lp", "solve_mip_lp", "ingest_solution", "InfeasibleError"]

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
INGEST_TOL = 1e-6


class InfeasibleError(ValueError):
    """A supplied solution violates the instance beyond tolerance."""


@dataclass(frozen=True)
class LpReport:
    solution: FractionalSolution | None
    objective: float
    iterations: int
    status: str  # "optimal" | "iteration-limit"


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Eliminate column `col` from every row but `row` with one rank-1 update.

    Each entry gets the value row-by-row elimination gives; only a zero may
    come out with the other sign, which no comparison and no output sees.
    """
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])


def _run_simplex(tableau, basis, budget: int, stall_limit: int) -> tuple[int, str]:
    """Price a tableau whose last row holds reduced costs.

    Dantzig's rule enters the most negative reduced cost; after
    `stall_limit` degenerate pivots in a row (ratio at most PIVOT_TOL),
    Bland's rule enters the first negative one until the next nondegenerate
    pivot, so no basis repeats.  A stall limit of 0 is Bland's rule
    throughout.  Returns (iterations used, status); mutates tableau and
    basis in place.
    """
    iterations = stalled = 0
    while iterations < budget:
        costs = tableau[-1, :-1]
        entering = int(np.argmin(costs) if stalled < stall_limit else np.argmax(costs < -PIVOT_TOL))
        if costs[entering] >= -PIVOT_TOL:
            return iterations, "optimal"
        column = tableau[:-1, entering]
        rows = np.flatnonzero(column > PIVOT_TOL)
        ratios = tableau[rows, -1] / column[rows]
        best_ratio = math.inf
        leaving = -1
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            raise RuntimeError("objective unbounded; not reachable on valid instances")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        stalled = stalled + 1 if best_ratio <= PIVOT_TOL else 0
    return iterations, "iteration-limit"


def _solve(instance, tableau, basis, limit: int, stall_limit: int, read_x) -> LpReport:
    """Run the simplex from a feasible basis whose cost row is priced, then
    read the instance's point from the optimal tableau with `read_x`."""
    iterations, status = _run_simplex(tableau, basis, limit, stall_limit)
    if status != "optimal":
        return LpReport(None, math.nan, iterations, status)
    solution = ingest_solution(instance, read_x(tableau, basis))
    return LpReport(solution, solution.objective_values[0], iterations, status)


def solve_cip_lp(instance: CipInstance) -> LpReport:
    """Relaxation min c.x s.t. A x >= b, x >= 0 under the first cost vector,
    solved to a vertex through its dual."""
    m, n = instance.m, instance.n
    # A^T y + s = c; the slack basis costs 0, so the cost row -b is priced
    tableau = np.zeros((n + 1, m + n + 1))
    tableau[:n, :m] = instance.a_matrix.T
    tableau[:n, m:-1] = np.eye(n)
    tableau[:n, -1] = instance.costs[0]
    tableau[-1, :m] = -instance.demands
    return _solve(instance, tableau, list(range(m, m + n)), 50 * (m + n), 50,
                  lambda t, _: t[-1, m:-1])


def _crash_slots(instance: MipInstance, a: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Each group in order takes the slot that raises the current max load
    least (the first on ties); returns the slots and the loads they make."""
    loads = np.zeros(instance.m)
    slots = []
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        slot = sl.start + int(np.argmin((loads[:, None] + a[:, sl]).max(axis=0)))
        loads += a[:, slot]
        slots.append(slot)
    return slots, loads


def solve_mip_lp(instance: MipInstance) -> LpReport:
    """Relaxation: minimize the max row load W over the product of simplices.

    Variables are the fractional assignments plus W; the returned point is a
    vertex, so at most m assignment entries are strictly fractional.  The
    tableau is written with the crash slots already basic, then W is pivoted
    in; Bland's rule runs from there.
    """
    m, n = instance.m, instance.n_cols
    n_groups = instance.n_groups
    a = instance.a_matrix
    group_of = np.repeat(np.arange(n_groups), instance.group_sizes)
    slots, loads = _crash_slots(instance, a)
    # Rows: group sums = 1, then A x - W + slack = 0 with each group's crash
    # slot eliminated (the slots are basic); the cost row holds W's 1.
    tableau = np.zeros((n_groups + m + 1, n + 1 + m + 1))
    tableau[group_of, np.arange(n)] = 1.0
    tableau[:n_groups, -1] = 1.0
    tableau[n_groups:-1, :n] = a - a[:, slots][:, group_of]
    tableau[n_groups:-1, n] = -1.0
    tableau[n_groups:-1, n + 1 : -1] = np.eye(m)
    tableau[n_groups:-1, -1] = -loads
    tableau[-1, n] = 1.0
    top = n_groups + int(np.argmax(loads))
    basis = slots + list(range(n + 1, n + 1 + m))
    basis[top] = n
    # W enters at the max-load row, which also prices the cost row; neither
    # this pivot nor the slot elimination is a simplex iteration.
    _pivot(tableau, top, n)

    def read_x(tableau, basis):
        x = np.zeros(n + 1 + m)
        x[basis] = tableau[:-1, -1]
        return x[:n]

    return _solve(instance, tableau, basis, 50 * (n_groups + m + n + 1), 0, read_x)


def ingest_solution(instance, x) -> FractionalSolution:
    """Validate an externally produced fractional point and wrap it.

    Entries must be finite and at least -1e-6; the returned point clips them
    at 0, and its objective values are those of the clipped point.
    Violations up to 1e-6 are tolerated (and recorded as slack); anything
    larger raises InfeasibleError naming the worst constraint.
    """
    if not isinstance(instance, (CipInstance, MipInstance)):
        raise TypeError(f"unsupported instance type {type(instance)!r}")
    x = np.asarray(x, dtype=float)
    n = instance.shape[1]
    if x.shape != (n,):
        raise InfeasibleError(f"expected {n} values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InfeasibleError("solution has non-finite entries")
    if np.any(x < -INGEST_TOL):
        raise InfeasibleError("solution has negative entries")
    x = np.maximum(x, 0.0)
    if isinstance(instance, CipInstance):
        shortfall = instance.demands - instance.loads(x)
        worst = int(np.argmax(shortfall))
        slack = max(0.0, float(shortfall[worst]))
        if slack > INGEST_TOL:
            raise InfeasibleError(
                f"row {worst} misses its demand by {slack:.3e} (beyond 1e-6)"
            )
        objectives = tuple(float(cost @ x) for cost in instance.costs)
        return FractionalSolution(x=x, objective_values=objectives, feasibility_slack=slack)
    sums = np.add.reduceat(x, instance.offsets)
    deviation = np.abs(sums - 1.0)
    worst = int(np.argmax(deviation))
    slack = float(deviation[worst])
    if slack > INGEST_TOL:
        raise InfeasibleError(
            f"group {worst} mass sums to {sums[worst]:.9f} (beyond 1e-6 from 1)"
        )
    value = float(instance.loads(x).max())
    return FractionalSolution(x=x, objective_values=(value,), feasibility_slack=slack)
