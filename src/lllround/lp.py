"""Desk-scale linear relaxations.

A dense two-phase primal simplex with Bland's rule, so it cannot cycle.  Each
pivot is one rank-1 update of the whole tableau, which produces the same pivot
sequence and the same values as eliminating row by row.  The artificial
columns are dropped when phase 1 ends; no pivot reads them after that, so the
pivots and values are the same as if they were kept.  Downstream rounding
needs basic optimal solutions (vertices), and the test oracles re-derive the
same optima by brute-force vertex enumeration.
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
    status: str  # "optimal" | "infeasible" | "iteration-limit"


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Eliminate column `col` from every row but `row` with one rank-1 update.

    Each entry gets the value row-by-row elimination gives; only a zero may
    come out with the other sign, which no comparison and no output sees.
    """
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])


def _run_simplex(tableau, basis, budget: int) -> tuple[int, str]:
    """Bland's rule on a tableau whose last row holds reduced costs.

    Returns (iterations used, status); mutates tableau and basis in place.
    """
    iterations = 0
    while iterations < budget:
        eligible = np.flatnonzero(tableau[-1, :-1] < -PIVOT_TOL)
        if eligible.size == 0:
            return iterations, "optimal"
        entering = int(eligible[0])
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
            raise RuntimeError("objective unbounded; not reachable for covering data")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
    return iterations, "iteration-limit"


def _two_phase(
    costs: np.ndarray,
    eq_lhs: np.ndarray,
    eq_rhs: np.ndarray,
    iteration_limit: int,
) -> tuple[np.ndarray | None, int, str]:
    """min costs.x over {eq_lhs x = eq_rhs, x >= 0}; returns (x, iters, status).

    Requires eq_rhs >= 0, so the artificial basis starts feasible; both
    builders give that.  The artificial columns are deleted once phase 1
    ends, so phase 2 prices the structural columns only; an artificial left
    basic on a redundant row keeps its label (n or more), which loses Bland's
    ties and gives no entry of x.
    """
    m, n = eq_lhs.shape
    tableau = np.zeros((m + 1, n + m + 1))  # structural columns, one artificial per row, rhs
    tableau[:m, :n] = eq_lhs
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = eq_rhs
    basis = list(range(n, n + m))
    tableau[-1, n : n + m] = 1.0
    for i in range(m):  # price out the artificial basis
        tableau[-1] -= tableau[i]
    used, status = _run_simplex(tableau, basis, iteration_limit)
    if status != "optimal":
        return None, used, status
    if -tableau[-1, -1] > 1e-7:
        return None, used, "infeasible"
    tableau = np.delete(tableau, np.s_[n : n + m], axis=1)
    # Drive surviving artificials out of the basis where a structural pivot exists.
    for i in range(m):
        if basis[i] >= n:
            structural = np.flatnonzero(np.abs(tableau[i, :n]) > PIVOT_TOL)
            if structural.size:
                basis[i] = int(structural[0])
                _pivot(tableau, i, basis[i])

    tableau[-1, :] = 0.0
    tableau[-1, :n] = costs
    for i in range(m):
        if basis[i] < n and tableau[-1, basis[i]] != 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    used2, status = _run_simplex(tableau, basis, iteration_limit - used)
    if status != "optimal":
        return None, used + used2, status
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    return x, used + used2, "optimal"


def _solve(instance, costs, eq_lhs, eq_rhs, limit: int) -> LpReport:
    """Solve the built relaxation; its leading columns are the instance's."""
    x_full, iterations, status = _two_phase(costs, eq_lhs, eq_rhs, limit)
    if status != "optimal":
        return LpReport(None, math.nan, iterations, status)
    solution = ingest_solution(instance, x_full[: instance.shape[1]])
    return LpReport(solution, solution.objective_values[0], iterations, status)


def solve_cip_lp(instance: CipInstance) -> LpReport:
    """Relaxation min c.x s.t. A x >= b, x >= 0 under the first cost vector,
    solved to a vertex."""
    m, n = instance.m, instance.n
    # A x - surplus = b
    eq_lhs = np.hstack([instance.a_matrix, -np.eye(m)])
    costs = np.concatenate([instance.costs[0], np.zeros(m)])
    return _solve(instance, costs, eq_lhs, instance.demands, 50 * (m + n))


def solve_mip_lp(instance: MipInstance) -> LpReport:
    """Relaxation: minimize the max row load W over the product of simplices.

    Variables are the fractional assignments plus W; the returned point is a
    vertex, so at most m assignment entries are strictly fractional.
    """
    m, n = instance.m, instance.n_cols
    n_groups = instance.n_groups
    # Rows: group sums = 1, then A x - W + slack = 0.
    eq_lhs = np.zeros((n_groups + m, n + 1 + m))
    eq_lhs[np.repeat(np.arange(n_groups), instance.group_sizes), np.arange(n)] = 1.0
    eq_lhs[n_groups:, :n] = instance.a_matrix
    eq_lhs[n_groups:, n] = -1.0
    eq_lhs[n_groups:, n + 1 :] = np.eye(m)
    eq_rhs = np.concatenate([np.ones(n_groups), np.zeros(m)])
    costs = np.zeros(n + 1 + m)
    costs[n] = 1.0
    return _solve(instance, costs, eq_lhs, eq_rhs, 50 * (n_groups + m + n + 1))


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
    sums = np.array([x[instance.group_slice(g)].sum() for g in range(instance.n_groups)])
    deviation = np.abs(sums - 1.0)
    worst = int(np.argmax(deviation))
    slack = float(deviation[worst])
    if slack > INGEST_TOL:
        raise InfeasibleError(
            f"group {worst} mass sums to {sums[worst]:.9f} (beyond 1e-6 from 1)"
        )
    value = float(instance.loads(x).max())
    return FractionalSolution(x=x, objective_values=(value,), feasibility_slack=slack)
