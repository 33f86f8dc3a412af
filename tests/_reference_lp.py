"""The simplex on the full tableau, kept as a test-only reference for
`lllround.lp`.

The full tableau holds a column for every variable, basic or not, and the
right-hand side; its basic columns are unit vectors.  Two forms of it are
kept: the dense one, whose pivot is one rank-1 update of the whole tableau
and whose pricing scans arrays, and the scalar one, whose pivot eliminates
row by row and whose pricing reads one entry at a time.  Both use the
program's pricing rules, the same starting bases and `ingest_solution`, so
`lllround.lp` must take the same pivots and return the same vertex bytes.
"""

import math

import numpy as np

from lllround import CipInstance
from lllround.lp import PIVOT_TOL, LpReport, _crash_slots, ingest_solution


def dense_pivot(tableau, row, col):
    """Eliminate column `col` from every row but `row` with one rank-1
    update of the whole tableau."""
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])


def scalar_pivot(tableau, row, col):
    """Row-by-row elimination: the pivot before it became one rank-1 update."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def dense_run_simplex(tableau, basis, budget, stall_limit):
    """Dantzig's rule, and Bland's after `stall_limit` degenerate pivots in a
    row until a nondegenerate one; ties go to the first column, which is the
    smallest variable."""
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
            raise RuntimeError("objective unbounded")
        dense_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        stalled = stalled + 1 if best_ratio <= PIVOT_TOL else 0
    return iterations, "iteration-limit"


def scalar_run_simplex(tableau, basis, budget, stall_limit):
    """The same rules, scanning every column and every row one scalar at a
    time."""
    iterations = stalled = 0
    n_cols = tableau.shape[1] - 1
    while iterations < budget:
        entering = -1
        for j in range(n_cols):
            if tableau[-1, j] < -PIVOT_TOL:
                if stalled >= stall_limit:  # Bland: the first one
                    entering = j
                    break
                if entering < 0 or tableau[-1, j] < tableau[-1, entering]:
                    entering = j
        if entering < 0:
            return iterations, "optimal"
        best_ratio = math.inf
        leaving = -1
        for i in range(tableau.shape[0] - 1):
            coeff = tableau[i, entering]
            if coeff > PIVOT_TOL:
                ratio = tableau[i, -1] / coeff
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("objective unbounded")
        scalar_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        stalled = stalled + 1 if best_ratio <= PIVOT_TOL else 0
    return iterations, "iteration-limit"


def cover_tableau(instance):
    """The dual of a cover from its slack basis: A^T y + s = c with the cost
    row -b, (n+1) x (m+n+1)."""
    m, n = instance.m, instance.n
    tableau = np.zeros((n + 1, m + n + 1))
    tableau[:n, :m] = instance.a_matrix.T
    tableau[:n, m:-1] = np.eye(n)
    tableau[:n, -1] = instance.costs[0]
    tableau[-1, :m] = -instance.demands
    return tableau, list(range(m, m + n))


def minimax_tableau(instance, pivot=dense_pivot):
    """The minimax tableau, (groups+m+1) x (n+m+2), written with the crash
    slots already basic, then W pivoted in at the max-load row."""
    m, n = instance.m, instance.n_cols
    n_groups = instance.n_groups
    a = instance.a_matrix
    group_of = np.repeat(np.arange(n_groups), instance.group_sizes)
    slots, loads = _crash_slots(instance)
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
    pivot(tableau, top, n)
    return tableau, basis


def reference_solve(instance, scalar=False):
    """`solve_cip_lp` or `solve_mip_lp` on the full tableau: the dense form,
    or the scalar one with `scalar`."""
    run = scalar_run_simplex if scalar else dense_run_simplex
    if isinstance(instance, CipInstance):
        tableau, basis = cover_tableau(instance)
        iterations, status = run(tableau, basis, 50 * (instance.m + instance.n), 50)
        x = tableau[-1, instance.m : -1]
    else:
        m, n = instance.m, instance.n_cols
        tableau, basis = minimax_tableau(instance, scalar_pivot if scalar else dense_pivot)
        iterations, status = run(tableau, basis, 50 * (instance.n_groups + m + n + 1), 0)
        x = np.zeros(n + 1 + m)
        x[basis] = tableau[:-1, -1]
        x = x[:n]
    if status != "optimal":
        return LpReport(None, math.nan, iterations, status)
    solution = ingest_solution(instance, x)
    return LpReport(solution, solution.objective_values[0], iterations, status)
