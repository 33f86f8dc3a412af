"""Golden outputs: the sha256 of what the benchmark's operations return on
its seed-0 workloads, pinned so that a speed-up of the minimax or covering
path cannot silently change a rounded solution.

Each operation starts, as `perfbench/run.py` does, from the instance's
serialization: `parse_instance`, then `solve_mip_lp` and `full_mip_pipeline`
(seed 0, 10,000 tries) for a minimax instance, and `solve_cip_lp` and
`round_cip` for a cover.  A minimax digest covers each instance's label,
its `z` bytes and the `repr` of the pipeline's summary; a cover digest
covers each label and its `z` bytes, and a cover path digest each label,
its `z` bytes, its trace's bytes and its evaluation count.  An LP that stops
short of its optimum enters the digest as its status.

Every random bit of the benchmark's covers is free (its column meets no
unsatisfied row), so three covers whose fixing loop branches are pinned
too, by their `z` bytes and evaluation counts.
"""

import functools
import hashlib

import numpy as np
import pytest

import lllround
from lllround import full_mip_pipeline, gen_set_cover, parse_instance, round_cip
from lllround import serialize_instance, solve_cip_lp, solve_mip_lp
from _builders import perfbench_workloads, lp_point, two_cost_set_cover

GOLDEN = {
    "minimax": "b0dc5be10e594941a3960799342290c6c1bb860c35b27e538172d509156ab209",
    "cover-lp": "4f5888752d72df406e1028652cfe713457e8f0cb0442bdc96b57f759b0e58e36",
    "cover-multicost": "7f00f3a6bc7307b041b05ba21bb86efb1f596588b78b755d71737a6abdd7974d",
}
PATH_GOLDEN = {
    "cover-lp": "bf9bda69b08bdd419349fe4d8e03511b0f297398d71875a6bac2e03f24ff4884",
    "cover-multicost": "aa1897686c1943c8e544ff8558689b4ade833dddc2b9d59fe93f8be4abf159dc",
}
BRANCHED_GOLDEN = "322963efdb4f5bc9d01f6e25e7ccc3bc496bdd39697f3ab2e6c745efbed8647f"


@functools.cache
def _digests(name: str) -> tuple[str, str]:
    """The output digest and, for a cover workload, the path digest."""
    outputs, paths = hashlib.sha256(), hashlib.sha256()
    for label, inst in perfbench_workloads().WORKLOADS[name](lllround, 0):
        inst = parse_instance(serialize_instance(inst))
        for digest in (outputs, paths):
            digest.update(label.encode())
        report = (solve_mip_lp if name == "minimax" else solve_cip_lp)(inst)
        if report.status != "optimal":
            for digest in (outputs, paths):
                digest.update(report.status.encode())
            continue
        if name == "minimax":
            rounded, summary = full_mip_pipeline(inst, report.solution.x, rng_seed=0,
                                                 max_tries=10_000)
            outputs.update(rounded.z.tobytes())
            outputs.update(repr(summary).encode())
        else:
            solution, info = round_cip(inst, report.solution.x)
            outputs.update(solution.z.tobytes())
            paths.update(solution.z.tobytes())
            paths.update(np.array(solution.trace).tobytes())
            paths.update(str(info["evaluations"]).encode())
    return outputs.hexdigest(), paths.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name):
    assert _digests(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PATH_GOLDEN))
def test_cover_traces_and_evaluation_counts_are_byte_identical(name):
    assert _digests(name)[1] == PATH_GOLDEN[name]


def test_covers_that_branch_round_to_the_same_point_and_count():
    # (label, instance, fractional point, rounding parameters)
    vertex_200 = gen_set_cover(200, 200, 5, 2, 0)
    vertex_40 = two_cost_set_cover(40, 2)
    cases = [
        ("set-cover-400x720-flat", gen_set_cover(400, 720, 5, 2, 0), np.full(720, 0.7),
         dict(alpha=1.4)),
        ("set-cover-200x200", vertex_200, lp_point(vertex_200), dict(alpha=1.6, beta=3.0)),
        ("two-cost-set-cover-40x40", vertex_40, lp_point(vertex_40), dict(alpha=1.8, beta=3.0)),
    ]
    digest = hashlib.sha256()
    for label, inst, x, params in cases:
        solution, info = round_cip(inst, x, **params)
        # one evaluation at the start, one per zeroed bit, two per branched bit
        assert info["evaluations"] > len(solution.trace)
        digest.update(label.encode())
        digest.update(solution.z.tobytes())
        digest.update(str(info["evaluations"]).encode())
    assert digest.hexdigest() == BRANCHED_GOLDEN
