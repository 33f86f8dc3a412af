"""The benchmark's operations still run against the program's API.

`perfbench/run.py` calls the program through `cover_op` and `minimax_op`,
and `perfbench/tracing.py` reads counts from what the public functions
return.  These tests import both from the benchmark's own files and run them
on one small generated instance of each kind, so a change to the program
that would break the benchmark fails here first.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import lllround
from lllround import gen_hypergraph_partition, gen_set_cover, serialize_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """`perfbench/run.py` and `perfbench/tracing.py` as modules; importing
    `run.py` puts its directory on `sys.path` and sets BLAS thread variables,
    so both are restored afterwards."""
    saved_path, saved_env = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import tracing
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
    return run, tracing


def test_cover_op_rounds_a_small_cover(bench):
    run, _ = bench
    text = serialize_instance(gen_set_cover(12, 20, 5, 2, 0))
    out = run.cover_op(lllround, text, None)
    doc = json.loads(text)
    assert len(out["z"]) == doc["n"] and len(out["x"]) == doc["n"]
    assert len(out["total_budgets"]) == len(out["ks"]) == 1
    assert out["evaluations"] > 0 and len(out["trace"]) >= 1
    assert out["lp_objective"] > 0.0


def test_minimax_op_rounds_a_small_partition_and_is_traced(bench):
    run, tracing = bench
    text = serialize_instance(gen_hypergraph_partition(10, 8, 4, 2, 0))
    tracer = tracing.Tracer(lllround)
    tracer.install()
    try:
        tracer.op = "0/0"
        out = run.minimax_op(lllround, text, None)
    finally:
        tracer.uninstall()
    assert len(out["z"]) == sum(json.loads(text)["groups"])
    assert out["lp_objective"] <= out["value"] <= out["target"] + 1.0
    counts = tracer.totals("0/0")["counts"]
    assert counts["mip.bootstrap_reduce.iterations"] == 0  # easy regime at once
    assert counts["mip.las_vegas_mip.trials"] >= 1
