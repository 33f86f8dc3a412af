"""Reference LP optima from scipy's HiGHS, independent of the program.

Covers: min c_0.x over {A x >= b, x >= 0}; the interior-point method with
crossover returns a vertex, which `cover-large` hands to the program as its
fractional point.
Minimax: min W over {sum of each group = 1, A x <= W, x >= 0}.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def _triplets(doc: dict, n: int):
    rows, cols, vals = zip(*doc["A"])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(doc["m"], n))


def _solved(result):
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not solve the reference LP: {result.message}")
    return result


def cover_reference(doc: dict) -> dict:
    a = _triplets(doc, doc["n"])
    result = _solved(linprog(doc["costs"][0], A_ub=-a, b_ub=-np.asarray(doc["b"]),
                             bounds=(0, None), method="highs-ipm"))
    return {"lp_opt": float(result.fun), "x": [float(v) for v in result.x]}


def minimax_reference(doc: dict) -> dict:
    n = sum(doc["groups"])
    a = _triplets(doc, n)
    m = doc["m"]
    a_ub = sparse.hstack([a, -np.ones((m, 1))]).tocsr()
    group_of = np.repeat(np.arange(len(doc["groups"])), doc["groups"])
    a_eq = sparse.csr_matrix((np.ones(n), (group_of, np.arange(n))), shape=(len(doc["groups"]), n + 1))
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    result = _solved(linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                             b_eq=np.ones(len(doc["groups"])), bounds=(0, None), method="highs"))
    return {"lp_opt": float(result.fun)}


def reference(doc: dict) -> dict:
    return cover_reference(doc) if doc["kind"] == "cip" else minimax_reference(doc)
