"""Golden outputs: the sha256 of what the benchmark's operations return on
its seed-0 workloads, pinned so that a speed-up of the minimax or covering
path cannot silently change a rounded solution.

Each operation starts, as `perfbench/run.py` does, from the instance's
serialization: `parse_instance`, then `solve_mip_lp` and `full_mip_pipeline`
(seed 0, 10,000 tries) for a minimax instance, and `solve_cip_lp` and
`round_cip` for a cover.  A minimax digest covers each instance's label,
its `z` bytes and the `repr` of the pipeline's summary; a cover digest
covers each label and its `z` bytes.  An LP that stops short of its optimum
enters the digest as its status.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import lllround
from lllround import full_mip_pipeline, parse_instance, round_cip, serialize_instance
from lllround import solve_cip_lp, solve_mip_lp

GOLDEN = {
    "minimax": "fe0ae5ad16dea7252764c03b44404612e76ae1d5e36e902a1083d1785ca47460",
    "cover-lp": "4f5888752d72df406e1028652cfe713457e8f0cb0442bdc96b57f759b0e58e36",
    "cover-multicost": "7f00f3a6bc7307b041b05ba21bb86efb1f596588b78b755d71737a6abdd7974d",
}


def _workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _digest(name: str) -> str:
    digest = hashlib.sha256()
    for label, inst in _workloads().WORKLOADS[name](lllround, 0):
        inst = parse_instance(serialize_instance(inst))
        digest.update(label.encode())
        report = (solve_mip_lp if name == "minimax" else solve_cip_lp)(inst)
        if report.status != "optimal":
            digest.update(report.status.encode())
            continue
        if name == "minimax":
            rounded, summary = full_mip_pipeline(inst, report.solution.x, rng_seed=0,
                                                 max_tries=10_000)
            digest.update(rounded.z.tobytes())
            digest.update(repr(summary).encode())
        else:
            solution, _ = round_cip(inst, report.solution.x)
            digest.update(solution.z.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name):
    assert _digest(name) == GOLDEN[name]
