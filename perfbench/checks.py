"""Checks of the program's outputs that do not trust the program.

Every check recomputes what it needs from the serialized instance (the
generated matrix, demands and costs) and from HiGHS reference optima, and
raises `CheckFailed` with a one-line reason.  Each check is its own function
so that `selftest.py` can show that each one rejects a corrupted output.

A cover output is a dict with keys `z`, `alpha`, `beta`, `total_budgets`,
`trace`, `lp_objective` and `x` (the fractional point that was rounded).
A minimax output has `z`, `value`, `target` and `lp_objective`.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-6  # program optimum vs HiGHS, and budget rules
ABS_TOL = 1e-9  # feasibility and the estimator's monotonicity


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Triplets:
    """The constraint matrix of a serialized instance, read from its
    triplets without the program's parser; supports `a @ z` and `a.shape`."""

    def __init__(self, doc: dict):
        n = doc["n"] if doc["kind"] == "cip" else sum(doc["groups"])
        self.shape = (doc["m"], n)
        rows, cols, vals = zip(*doc["A"])
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)

    def __matmul__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.bincount(self.rows, weights=self.vals * z[self.cols], minlength=self.shape[0])


# --- covers ---------------------------------------------------------------


def check_integral(doc, a, out, ref) -> None:
    z = np.asarray(out["z"], dtype=float)
    _require(z.shape == (a.shape[1],), f"z has shape {z.shape}, expected ({a.shape[1]},)")
    _require(np.all(z == np.round(z)) and np.all(z >= 0), "z is not a nonnegative integer vector")


def check_demands(doc, a, out, ref) -> None:
    short = np.asarray(doc["b"]) - a @ np.asarray(out["z"], dtype=float)
    worst = int(np.argmax(short))
    _require(short[worst] <= ABS_TOL, f"row {worst} is short by {short[worst]:.3g}")


def check_budgets(doc, a, out, ref) -> None:
    values = np.asarray(doc["costs"]) @ np.asarray(out["z"], dtype=float)
    budgets = np.asarray(out["total_budgets"], dtype=float)
    _require(budgets.shape == values.shape, "need one total budget per cost")
    over = values - budgets
    worst = int(np.argmax(over))
    _require(over[worst] <= ABS_TOL * max(1.0, budgets[worst]),
             f"cost {worst} is {values[worst]:.6g}, over its budget {budgets[worst]:.6g}")


def check_budget_rule(doc, a, out, ref) -> None:
    """One cost: budget = alpha*beta*OPT.  Several: budget_i = 3*alpha*y_i,
    with y_i the cost of the rounded fractional point (y_0 = OPT)."""
    costs = np.asarray(doc["costs"])
    budgets = out["total_budgets"]
    if len(costs) == 1:
        want = [out["alpha"] * out["beta"] * ref["lp_opt"]]
    else:
        y = costs @ np.asarray(out["x"], dtype=float)
        y[0] = ref["lp_opt"]
        want = list(3.0 * out["alpha"] * y)
    for i, (got, expected) in enumerate(zip(budgets, want, strict=True)):
        _require(_close(got, expected), f"budget {i} is {got:.9g}, the rule gives {expected:.9g}")


def check_lp_optimum(doc, a, out, ref) -> None:
    x = np.asarray(out["x"], dtype=float)
    _require(np.all(x >= -ABS_TOL), "fractional point has negative entries")
    short = np.asarray(doc["b"]) - a @ x
    _require(short.max() <= REL_TOL, f"fractional point misses a demand by {short.max():.3g}")
    cost = float(np.asarray(doc["costs"][0]) @ x)
    for label, value in (("reported", out["lp_objective"]), ("recomputed", cost)):
        _require(_close(value, ref["lp_opt"]),
                 f"{label} LP optimum {value:.9g} differs from HiGHS {ref['lp_opt']:.9g}")


def check_trace(doc, a, out, ref) -> None:
    trace = np.asarray(out["trace"], dtype=float)
    _require(trace.size >= 1 and trace[0] > 0.0, "estimator trace does not start above 0")
    drops = trace[:-1] - trace[1:]
    if drops.size:
        step = int(np.argmax(drops))
        _require(drops[step] <= ABS_TOL, f"estimator drops by {drops[step]:.3g} at step {step}")


COVER_CHECKS = (check_integral, check_demands, check_budgets, check_budget_rule,
                check_lp_optimum, check_trace)


# --- minimax --------------------------------------------------------------


def check_one_slot_per_group(doc, a, out, ref) -> None:
    z = np.asarray(out["z"], dtype=float)
    _require(z.shape == (a.shape[1],), f"z has shape {z.shape}, expected ({a.shape[1]},)")
    _require(np.all((z == 0.0) | (z == 1.0)), "z is not a 0/1 vector")
    start = 0
    for g, size in enumerate(doc["groups"]):
        picked = int(z[start:start + size].sum())
        _require(picked == 1, f"group {g} has {picked} slots")
        start += size


def check_max_load(doc, a, out, ref) -> None:
    load = float((a @ np.asarray(out["z"], dtype=float)).max())
    _require(abs(load - out["value"]) <= ABS_TOL,
             f"max load is {load:.9g}, reported {out['value']:.9g}")


def check_lp_bound(doc, a, out, ref) -> None:
    _require(out["value"] >= ref["lp_opt"] - ABS_TOL,
             f"value {out['value']:.9g} beats the LP bound {ref['lp_opt']:.9g}")
    _require(_close(out["lp_objective"], ref["lp_opt"]),
             f"LP optimum {out['lp_objective']:.9g} differs from HiGHS {ref['lp_opt']:.9g}")


def check_target(doc, a, out, ref) -> None:
    cap = math.ceil(out["target"])
    _require(out["value"] <= cap + ABS_TOL, f"value {out['value']:.9g} misses ceil(target) = {cap}")


MINIMAX_CHECKS = (check_one_slot_per_group, check_max_load, check_lp_bound, check_target)


def check_output(doc, a, out, ref) -> None:
    for check in COVER_CHECKS if doc["kind"] == "cip" else MINIMAX_CHECKS:
        check(doc, a, out, ref)
