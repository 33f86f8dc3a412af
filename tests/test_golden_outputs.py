"""Golden outputs: the sha256 of what the benchmark's operations return on
its seed-0 workloads, pinned so that a speed-up of the minimax or covering
path cannot silently change a rounded solution.

Each operation starts, as `perfbench/run.py` does, from the instance's
serialization: `parse_instance`, then `solve_mip_lp` and `full_mip_pipeline`
(seed 0, 10,000 tries) for a minimax instance, and `solve_cip_lp` and
`round_cip` for a cover.  A minimax digest covers each instance's label,
its `z` bytes and the `repr` of the pipeline's summary; a cover digest
covers each label and its `z` bytes, and a cover path digest each label,
its `z` bytes, its trace's bytes and its evaluation count.  A cover
parameter digest covers each label and the float hex of the `info` alpha,
beta, subset orders and total budgets.  An LP that stops short of its
optimum enters the digest as its status.

Every random bit of the benchmark's covers is free (its column meets no
unsatisfied row), so four covers whose fixing loop branches are pinned
too, by their `z` bytes and evaluation counts.  One of them has four costs
(subset order 3) and mixes free bits with bits that branch.
"""

import functools
import hashlib
import warnings

import numpy as np
import pytest

import lllround
from lllround import (choose_alpha_beta, full_mip_pipeline, gen_set_cover, multicriteria_params,
                      parse_instance, round_cip)
from lllround import serialize_instance, solve_cip_lp, solve_mip_lp
from _builders import four_cost_cover, lp_point, perfbench_workloads, two_cost_set_cover

GOLDEN = {
    "minimax": "b0dc5be10e594941a3960799342290c6c1bb860c35b27e538172d509156ab209",
    "cover-lp": "4f5888752d72df406e1028652cfe713457e8f0cb0442bdc96b57f759b0e58e36",
    "cover-multicost": "7f00f3a6bc7307b041b05ba21bb86efb1f596588b78b755d71737a6abdd7974d",
}
PATH_GOLDEN = {
    "cover-lp": "1bccb69cbc4d8c1f9ebf6badd5d53292db871d919f16258cb09357103224c731",
    "cover-multicost": "aa1897686c1943c8e544ff8558689b4ade833dddc2b9d59fe93f8be4abf159dc",
}
PARAMS_GOLDEN = {
    "cover-lp": "6748d402a206cbb960326f887a9b31125149a977dfc698ac3c8927060770cdf8",
    "cover-multicost": "4a41dfcc270f3c1aa4c98357b8d84a46e7308cb89672dd3dcd1b74df00d72fd5",
}
BRANCHED_GOLDEN = "f6caf8c4bd9f962c2a3ea552659d0e397b261109362aa90f8944d0d8c07afec9"
# sha256 of the float hex of choose_alpha_beta(a, B) over ALPHA_BETA_GRID
ALPHA_BETA_GOLDEN = "534b31c39fdaacb2a77567da92156da176ad1f7b1073eac271642e815dcaa3d2"
ALPHA_BETA_GRID = [(a, b) for a in range(1, 13) for b in (1.0, 1.5, 2.0, 3.0, 8.0, 100.0)]
# (objective values, column sparsity, least demand) -> the multi-cost scale's float hex
MULTICOST_ALPHA_GOLDEN = {
    ((6.0, 7.0, 5.5, 6.5), 3, 6.0): "0x1.f5eedd4b95ea7p+0",
    ((40.0,) * 20, 2, 8.0): "0x1.d8fb94a440f62p+0",
    ((1.0, 2.0), 5, 1.0): "0x1.2257632ec14b6p+2",
    ((12.5, 0.75, 3.0), 8, 2.0): "0x1.dd337133c2640p+1",
    ((100.0, 100.0, 100.0, 100.0), 1, 1.0): "0x1.6671276b48923p+1",
}


@functools.cache
def _digests(name: str) -> tuple[str, str, str]:
    """The output digest and, for a cover workload, the path and parameter
    digests."""
    outputs, paths, params = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for label, inst in perfbench_workloads().WORKLOADS[name](lllround, 0):
        inst = parse_instance(serialize_instance(inst))
        for digest in (outputs, paths, params):
            digest.update(label.encode())
        report = (solve_mip_lp if name == "minimax" else solve_cip_lp)(inst)
        if report.status != "optimal":
            for digest in (outputs, paths, params):
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
            floats = [info["alpha"], info["beta"], *info["total_budgets"]]
            params.update(repr((info["ks"], [v.hex() for v in floats])).encode())
    return outputs.hexdigest(), paths.hexdigest(), params.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name):
    assert _digests(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PATH_GOLDEN))
def test_cover_traces_and_evaluation_counts_are_byte_identical(name):
    assert _digests(name)[1] == PATH_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PARAMS_GOLDEN))
def test_cover_parameters_are_bit_identical(name):
    assert _digests(name)[2] == PARAMS_GOLDEN[name]


def test_single_cost_scale_pairs_are_bit_identical():
    hexes = [[v.hex() for v in choose_alpha_beta(a, b)] for a, b in ALPHA_BETA_GRID]
    assert hashlib.sha256(repr(hexes).encode()).hexdigest() == ALPHA_BETA_GOLDEN


@pytest.mark.parametrize("args", list(MULTICOST_ALPHA_GOLDEN))
def test_multi_cost_scales_are_bit_identical(args):
    values, a, min_demand = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some scaled means fall below the loose-cap threshold
        alpha = multicriteria_params(list(values), a, min_demand)
    assert alpha.hex() == MULTICOST_ALPHA_GOLDEN[args]


def test_covers_that_branch_round_to_the_same_point_and_count():
    # (label, instance, fractional point, rounding parameters)
    vertex_200 = gen_set_cover(200, 200, 5, 2, 0)
    vertex_40 = two_cost_set_cover(40, 2)
    # 11 of its 60 rows stay unsatisfied, and 65 of its 108 random bits are free
    mixed = np.full(108, 0.7)
    mixed[::3] = 1.5
    cases = [
        ("set-cover-400x720-flat", gen_set_cover(400, 720, 5, 2, 0), np.full(720, 0.7),
         dict(alpha=1.4)),
        ("set-cover-200x200", vertex_200, lp_point(vertex_200), dict(alpha=1.6, beta=3.0)),
        ("two-cost-set-cover-40x40", vertex_40, lp_point(vertex_40), dict(alpha=1.8, beta=3.0)),
        ("four-cost-set-cover-60x108", four_cost_cover(108, 0, 60, 2), mixed,
         dict(alpha=1.4, beta=3.0)),
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
