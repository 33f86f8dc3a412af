"""Self-test of the output checks: each accepts the program's real output and
rejects a copy corrupted to break exactly what it checks.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run  # first: it pins the BLAS thread count before numpy loads

import checks  # noqa: E402
import numpy as np  # noqa: E402
from reference import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))
import lllround  # noqa: E402


def _short_demand(doc, a, out, ref):
    """Zero every column that covers row 0: that demand is left short."""
    for row, col, _ in doc["A"]:
        if row == 0:
            out["z"][col] = 0.0


def _two_slots(doc, a, out, ref):
    size = doc["groups"][0]
    out["z"][:size] = 1.0


def _falling_trace(doc, a, out, ref):
    out["trace"] = list(out["trace"]) + [out["trace"][-1] - 1e-6]


def _over_budget(doc, a, out, ref):
    out["total_budgets"] = list(out["total_budgets"])
    out["total_budgets"][-1] = float(np.dot(doc["costs"][-1], out["z"])) - 1.0


def _set(key, fn):
    def corrupt(doc, a, out, ref):
        out[key] = fn(out[key], out, ref)
    return corrupt


COVER_CASES = [
    (checks.check_integral, "half a set", _set("z", lambda z, o, r: z + np.eye(len(z))[0] * 0.5)),
    (checks.check_demands, "a demand left short", _short_demand),
    (checks.check_budgets, "a cost over its budget", _over_budget),
    (checks.check_budget_rule, "alpha off by 1%", _set("alpha", lambda v, o, r: v * 1.01)),
    (checks.check_lp_optimum, "LP optimum off by 1e-4", _set("lp_objective", lambda v, o, r: v * (1 + 1e-4))),
    (checks.check_trace, "a falling trace", _falling_trace),
]
MINIMAX_CASES = [
    (checks.check_one_slot_per_group, "two slots in one group", _two_slots),
    (checks.check_max_load, "max load misreported", _set("value", lambda v, o, r: v + 1.0)),
    (checks.check_lp_bound, "value below the LP bound", _set("value", lambda v, o, r: r["lp_opt"] - 0.5)),
    (checks.check_target, "value above ceil(target)", _set("value", lambda v, o, r: math.ceil(o["target"]) + 1.0)),
]


def _cases():
    """(label, doc, output, reference, cases) for one small instance of each
    kind: a unit cover, a 4-cost cover and a hypergraph partition."""
    small = [
        ("cover", lllround.model.gen_set_cover(30, 24, 5, 2, 1), run.cover_op, COVER_CASES),
        ("4-cost cover", WORKLOADS["cover-multicost"](lllround, 0)[0][1], run.cover_op, COVER_CASES),
        ("minimax", lllround.model.gen_hypergraph_partition(20, 20, 4, 2, 1), run.minimax_op, MINIMAX_CASES),
    ]
    for label, inst, op, cases in small:
        text = lllround.model.serialize_instance(inst)
        doc = json.loads(text)
        out = op(lllround, text, None)
        out["z"] = np.asarray(out["z"], dtype=float)
        yield label, doc, out, reference(doc), cases


def main() -> int:
    bad = 0
    for label, doc, out, ref, cases in _cases():
        a = checks.Triplets(doc)
        checks.check_output(doc, a, out, ref)
        for check, what, corrupt in cases:
            broken = copy.deepcopy(out)
            corrupt(doc, a, broken, ref)
            try:
                check(doc, a, broken, ref)
            except checks.CheckFailed as exc:
                print(f"PASS {label}: {check.__name__} rejects {what}: {exc}")
            else:
                bad += 1
                print(f"FAIL {label}: {check.__name__} accepts {what}")
    print("self-test " + ("passed" if bad == 0 else f"failed: {bad} checks accepted corrupted output"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
