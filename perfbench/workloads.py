"""The benchmark's workloads: which instances each one generates.

Each workload function takes the imported `lllround` package and the
workload seed and returns `(label, instance)` pairs, made only with the
program's public generators.  Instance seeds are `1000 * seed + index`, so one `--seed` pins
every instance of a run and different seeds give disjoint instance sets.
This module imports nothing heavy, so that `make_inputs.py` can time the
import of `lllround` itself.
"""

from __future__ import annotations

import math

# (rows, columns, count): square unit set covers, max set size 5, demand 2.
# The fixed cover below has 0.64 columns per row; at that shape nearly every
# set is full, the LP optimum is 2/3 on every column and the rounded cost is
# exactly 3 times it, and the simplex hits its iteration limit on some seeds
# already at 150 rows (0.8 columns per row: at 125 rows).  Square covers give
# seed-dependent costs and needed at most 6,211 of 15,000 allowed pivots on
# 160 random seeds at each of 125 and 150 rows.
COVER_LP_LADDER = ((50, 50, 2), (75, 75, 2), (100, 100, 2), (125, 125, 1), (150, 150, 1))
# (columns, count) of the 12-row, 4-cost covers; subset order k = ceil(ln 8)
# = 3.  The rounded cost of one cover varies by about 6% between seeds, so
# many cheap 30-column covers (0.14 s each, against 3.8 s at 75 columns) keep
# `cost_ratio` steady over seeds.
MULTICOST_LADDER = ((30, 6), (45, 2), (60, 1), (75, 1))
MULTICOST_CRITERIA = 4
# One 1000 x 1800 unit cover, rounded from a supplied HiGHS vertex.
LARGE_SHAPE = (1000, 1800)
LARGE_COUNT = 1
# (rows, count): hypergraph partitions into 2 parts, degree <= 4, with as
# many vertices as edges; rows = 2 * edges.  The LP's pivot count varies by a
# factor of 2 to 4 between seeds, so many mid-sized instances keep the sums
# steady.  From 120 rows the simplex fails on some seeds (iteration limit, or
# a vertex whose group sums drift off 1); at 100 rows it did not fail on 200
# random seeds, so the ladder stops there.  The LP optimum is exactly 2 and
# the max load 2, 3 or 4 on every instance, so `cost_ratio` needs many
# instances to be steady over seeds; the 40-row ones (30 ms each) are cheapest.
MINIMAX_LADDER = ((40, 64), (60, 12), (80, 6), (100, 2))


def _seeds(seed: int):
    index = 0
    while True:
        yield 1000 * seed + index
        index += 1


def cover_lp(lllround, seed: int):
    seeds = _seeds(seed)
    out = []
    for rows, cols, count in COVER_LP_LADDER:
        for _ in range(count):
            s = next(seeds)
            out.append((f"cover-{rows}x{cols}-s{s}", lllround.model.gen_set_cover(rows, cols, 5, 2, s)))
    # Kept on purpose, independent of the seed: the dense Bland simplex stops
    # at its iteration limit on this feasible cover, so the operation fails.
    out.append(("cover-200x128-fixed", lllround.model.gen_set_cover(200, 128, 5, 2, 0)))
    return out


def cover_multicost(lllround, seed: int):
    import numpy as np

    seeds = _seeds(seed)
    out = []
    for n, count in MULTICOST_LADDER:
        for _ in range(count):
            s = next(seeds)
            base = lllround.model.gen_set_cover(12, n, 5, 8, s)
            rng = np.random.default_rng(s)
            # The first cost is the one the relaxation minimizes; keeping it
            # strictly positive keeps every scaled mean above the cap threshold.
            # The others have exactly 10% zeros, so the subset tables, and with
            # them the work, have the same size on every seed.
            costs = [rng.uniform(0.6, 1.0, n)]
            for _ in range(MULTICOST_CRITERIA - 1):
                cost = rng.uniform(0.6, 1.0, n)
                cost[rng.choice(n, size=round(0.1 * n), replace=False)] = 0.0
                costs.append(cost)
            inst = lllround.model.CipInstance.create(base.a_matrix, base.demands, costs)
            out.append((f"multicost-12x{n}-s{s}", inst))
    return out


def cover_large(lllround, seed: int):
    rows, cols = LARGE_SHAPE
    return [(f"cover-{rows}x{cols}-s{s}", lllround.model.gen_set_cover(rows, cols, 5, 2, s))
            for _, s in zip(range(LARGE_COUNT), _seeds(seed))]


def minimax(lllround, seed: int):
    seeds = _seeds(seed)
    out = []
    for rows, count in MINIMAX_LADDER:
        edges = rows // 2
        for _ in range(count):
            s = next(seeds)
            out.append((f"minimax-{rows}-s{s}",
                        lllround.model.gen_hypergraph_partition(edges, edges, 4, 2, s)))
    return out


WORKLOADS = {
    "cover-lp": cover_lp,
    "cover-multicost": cover_multicost,
    "cover-large": cover_large,
    "minimax": minimax,
}

# Workloads whose operations start from a supplied fractional point (the
# HiGHS vertex), as `lllround round --solution` does, instead of the LP.
SUPPLIED_POINT = {"cover-large"}


def subset_terms(costs, ks) -> int:
    """Order-k subsets of each cost's support: the rows of the estimator's
    subset tables, counted from the instance data and the reported k."""
    return sum(math.comb(sum(1 for c in cost if c > 0.0), int(k)) for cost, k in zip(costs, ks, strict=True))
