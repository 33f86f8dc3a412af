"""The minimax operation's scalar kernels in their first, one-value-at-a-time
form, kept as test-only references for `lllround.tailbounds`,
`lllround.mip` and `lllround.lp`.

`reference_slack_for_budget` tries k = 1, 2, ... in turn, where the
program doubles and bisects; `reference_group_round` draws one group at a
time, and `reference_crash_slots` forms a dense (rows x slots) max for
every group, where the program works on whole arrays.  The program must
give the same results bit for bit.  `reference_estimator` evaluates Raghavan's
pessimistic estimator densely, with every power of its base multiplied out,
where the program keeps per-row logarithms; it agrees to rounding only.
"""

import math

import numpy as np

GROUP_SUM_TOL = 1e-6


def reference_slack_for_budget(mu: float, budget: float) -> int:
    """Least integer k >= 1 whose bound at deviation k/mu, times k, meets
    the budget: the program's test, tried at k = 1, 2, ... in turn."""
    k = 1
    while math.log(k) + k - (mu + k) * math.log1p(k / mu) > math.log(budget):
        k += 1
    return k


def reference_group_round(instance, x_star, rng_seed) -> np.ndarray:
    """One categorical draw per group, one group at a time."""
    x = np.asarray(x_star, dtype=float)
    rng = np.random.default_rng(rng_seed)
    draws = rng.random(instance.n_groups)
    z = np.zeros(instance.n_cols)
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        weights = x[sl]
        total = weights.sum()
        if abs(total - 1.0) > GROUP_SUM_TOL:
            raise ValueError(f"group {g} weights sum to {total}, not 1")
        edges = np.cumsum(weights / total)
        slot = int(np.searchsorted(edges, draws[g], side="right"))
        slot = min(slot, sl.stop - sl.start - 1)  # a last edge may round below 1
        z[sl.start + slot] = 1.0
    return z


def reference_crash_slots(instance) -> tuple[list[int], np.ndarray]:
    """Each group in order takes the slot that raises the current max load
    least (the first on ties), over the dense matrix."""
    a = instance.a_matrix
    loads = np.zeros(instance.m)
    slots = []
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        slot = sl.start + int(np.argmin((loads[:, None] + a[:, sl]).max(axis=0)))
        loads += a[:, slot]
        slots.append(slot)
    return slots, loads


def reference_estimator(instance, x, beta: float) -> float:
    """U(x) = sum_i prod_g (1 + sum_{s in g} x_s (beta^a_is - 1)), one group
    at a time over the dense matrix."""
    a = instance.a_matrix
    x = np.asarray(x, dtype=float)
    u = np.ones(instance.m)
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        u *= 1.0 + (beta ** a[:, sl] - 1.0) @ x[sl]
    return float(u.sum())
