"""Shared randomized-instance builders for the test suite.

Everything here is seeded and deterministic; tests freeze seeds so failures
replay exactly.
"""

import numpy as np

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
