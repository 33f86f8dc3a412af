"""Shared randomized-instance builders for the test suite, and the
relaxation optima of scipy's HiGHS to check the simplex against.

Everything here is seeded and deterministic; tests freeze seeds so failures
replay exactly.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lllround import CipInstance, MipInstance, gen_set_cover, solve_cip_lp


def random_cip(seed, n_max=12, m_max=10, ell=1):
    """Random covering instance with real-valued entries.

    Entries are drawn from [0.2, 1] so the matrix is never 0/1-valued and
    demands are free to stay fractional.  Every row gets at least two
    nonzeros; columns may stay empty.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(max(3, ell + 1), n_max + 1))
    a = np.zeros((m, n))
    for i in range(m):
        width = int(rng.integers(2, n + 1))
        cols = rng.choice(n, size=width, replace=False)
        a[i, cols] = rng.uniform(0.2, 1.0, size=width)
    slack = np.clip(a.sum(axis=1) - 1.0, 0.0, None)
    demands = 1.0 + rng.uniform(0.0, 0.6, size=m) * slack
    costs = [rng.uniform(0.1, 1.0, n) for _ in range(ell)]
    return CipInstance.create(a, demands, costs)


def two_cost_cover():
    """The 8-element, 16-set unit cover of seed 0 with a second cost vector
    rising linearly from 0.5 to 1.5."""
    base = gen_set_cover(8, 16, 5, 2, 0)
    return CipInstance.create(base.a_matrix, base.demands, [base.costs[0], np.linspace(0.5, 1.5, 16)])


def four_cost_cover(n_sets, seed):
    """A 4-cost cover shaped like the benchmark's multi-cost ones: 12
    elements of demand 8, a first cost in [0.6, 1] and three more with
    exactly 10% zeros."""
    base = gen_set_cover(12, n_sets, 5, 8, seed)
    rng = np.random.default_rng(seed)
    costs = [rng.uniform(0.6, 1.0, n_sets)]
    for _ in range(3):
        cost = rng.uniform(0.6, 1.0, n_sets)
        cost[rng.choice(n_sets, size=round(0.1 * n_sets), replace=False)] = 0.0
        costs.append(cost)
    return CipInstance.create(base.a_matrix, base.demands, costs)


def two_cost_set_cover(n, seed):
    """A square unit set cover with a second cost vector in [0.5, 1)."""
    base = gen_set_cover(n, n, 5, 2, seed)
    second = np.random.default_rng(seed).uniform(0.5, 1.0, n)
    return CipInstance.create(base.a_matrix, base.demands, [base.costs[0], second])


def random_mip(seed, max_groups=4, max_slots=3, m_max=6):
    """Random minimax instance: a few groups, real-valued coefficients."""
    rng = np.random.default_rng(seed)
    groups = int(rng.integers(2, max_groups + 1))
    sizes = [int(s) for s in rng.integers(2, max_slots + 1, size=groups)]
    total = sum(sizes)
    m = int(rng.integers(2, m_max + 1))
    a = np.zeros((m, total))
    for i in range(m):
        width = int(rng.integers(1, total + 1))
        cols = rng.choice(total, size=width, replace=False)
        a[i, cols] = rng.uniform(0.2, 1.0, size=width)
    return MipInstance.create(a, sizes)


def row_cols(instance, i):
    """Row i's columns, ascending, read from the triplets."""
    return instance.cols[instance.row_ptr[i]:instance.row_ptr[i + 1]]


def col_rows(instance, j):
    """Column j's rows, ascending, read from the triplets."""
    return instance.rows[instance.cols == j]


def lp_point(instance):
    """Optimal fractional point of the covering relaxation, as a plain array."""
    report = solve_cip_lp(instance)
    assert report.status == "optimal" and report.solution is not None
    return report.solution.x


def uniform_group_weights(instance):
    """The balanced fractional point: 1/|group| on every slot."""
    x = np.zeros(instance.n_cols)
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        x[sl] = 1.0 / (sl.stop - sl.start)
    return x


# Nine weights of one group that sum to 1.000001 by `np.add.reduceat` but to
# 1.0000010000000001 as the group's own sum: one sum is within 1e-6 of 1,
# the other is not.
STRADDLING_GROUP = [
    0.08131836118834321, 0.03888178381893569, 0.07183649243757993,
    0.10611954074248094, 0.18505386414402636, 0.16104083161080368,
    0.06606108191917945, 0.19190765512858554, 0.09778138901006518,
]


def point_violation(instance, x) -> float:
    """A point's worst violation, recomputed densely: the largest shortfall
    of a cover's demand (0 when all are met), or the largest deviation of a
    minimax group's sum from 1."""
    x = np.asarray(x, dtype=float)
    if isinstance(instance, CipInstance):
        return max(0.0, float(np.max(instance.demands - instance.a_matrix @ x)))
    return max(abs(float(x[instance.group_slice(g)].sum()) - 1.0)
               for g in range(instance.n_groups))


def highs_optimum(instance) -> float:
    """The relaxation's optimum from scipy's HiGHS, a test-only dependency."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    if isinstance(instance, CipInstance):
        highs = linprog(instance.costs[0], A_ub=-instance.a_matrix, b_ub=-instance.demands,
                        bounds=(0, None), method="highs")
    else:
        # variables: the assignment x, then W; rows A x - W <= 0, group sums = 1
        m, n = instance.m, instance.n_cols
        a_ub = np.hstack([instance.a_matrix, -np.ones((m, 1))])
        a_eq = np.zeros((instance.n_groups, n + 1))
        for g in range(instance.n_groups):
            a_eq[g, instance.group_slice(g)] = 1.0
        highs = linprog(np.eye(n + 1)[n], A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                        b_eq=np.ones(instance.n_groups), bounds=(0, None), method="highs")
    assert highs.status == 0
    return highs.fun


def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py` module, imported from its
    directory without leaving that directory on `sys.path`."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads
