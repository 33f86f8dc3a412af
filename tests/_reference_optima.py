"""Brute-force optima of tiny instances, kept as test-only ground truth:
`exact_ilp` searches a box of integer points for a cover's optimum, and
`lp_vertex_optimum` enumerates the basic points of an LP.  Neither shares
a code path with the simplex or the rounding; `exact_ilp` enumerates in
the chunks of `lllround.oracle` and under its bit budget.
"""

import itertools
import math

import numpy as np

from lllround import CipInstance, OracleError
from lllround.oracle import _check_budget, _chunk_ranges

MAX_BOX = 6  # per-variable upper end of exact_ilp's box search


def exact_ilp(instance: CipInstance) -> tuple[np.ndarray, float]:
    """Brute-force optimum of the first cost over a per-variable box,
    returning the lexicographically smallest optimizer (objective ties at
    1e-12)."""
    a = instance.a_matrix
    box = min(int(math.ceil(instance.demands.max() / instance.vals.min())), MAX_BOX)
    radix = box + 1
    total = radix**instance.n
    _check_budget(total, f"box search of {total} points")
    cost = np.asarray(instance.costs[0])
    place = radix ** np.arange(instance.n, dtype=np.int64)  # index digit j = variable j

    def feasible_points():
        """Yield (z, z @ cost) over the feasible points of the box, in index order."""
        for start, stop in _chunk_ranges(total, instance.n + instance.m):
            idx = np.arange(start, stop, dtype=np.int64)
            z = ((idx[:, None] // place[None, :]) % radix).astype(float)
            z = z[(z @ a.T >= instance.demands[None, :] - 1e-12).all(axis=1)]
            yield z, z @ cost

    best = min((float(values.min()) for _, values in feasible_points() if values.size),
               default=math.inf)
    if not math.isfinite(best):
        raise OracleError("box search found no feasible point; box too small?")
    # second pass: earliest index within tolerance of the optimum is the
    # lexicographically smallest because index order is positional on digits
    # ... with digit 0 least significant, so flip to most-significant-first.
    flip = radix ** np.arange(instance.n - 1, -1, -1, dtype=np.int64)
    best_z: np.ndarray | None = None
    best_key: tuple | None = None
    for z, values in feasible_points():
        near = values <= best + 1e-12
        if near.any():
            zn = z[near].astype(np.int64)
            keys = zn @ flip
            pick = int(np.argmin(keys))
            if best_key is None or keys[pick] < best_key:
                best_key = int(keys[pick])
                best_z = zn[pick]
    assert best_z is not None
    return best_z.astype(float), best


def lp_vertex_optimum(costs, a_ub, b_ub) -> tuple[np.ndarray, float]:
    """Brute-force LP minimum of c.x subject to a_ub x >= b_ub, x >= 0, by
    enumerating basic feasible points (all n-subsets of the constraint set).
    """
    costs = np.asarray(costs, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = a_ub.shape
    # constraint stack: A x >= b and x >= 0
    stacked = np.vstack([a_ub, np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best_x = None
    best = math.inf
    for rows in itertools.combinations(range(m + n), n):
        sub = stacked[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(rows)])
        if np.any(x < -1e-9) or np.any(stacked @ x < rhs - 1e-9):
            continue
        val = float(costs @ x)
        if val < best - 1e-12:
            best = val
            best_x = x
    if best_x is None:
        raise OracleError("no feasible vertex found")
    return best_x, best
