"""The memoized rounding-parameter searches: `deviation_for_budget` (the
tail-kernel inverse) and `choose_alpha_beta` (the alpha/beta scan).

A cached call must return what the uncached search (`__wrapped__`) returns,
for keys that are new and keys seen before, and for keys of another type
that compare equal; invalid arguments must raise on every call; and the
caches must stay bounded.  The traffic test pins how many distinct searches
the benchmark's minimax and single-cost cover operations make.
"""

import math

import numpy as np
import pytest

import lllround
from lllround import (choose_alpha_beta, deviation_for_budget, full_mip_pipeline, parse_instance,
                      round_cip, serialize_instance, solve_cip_lp, solve_mip_lp)
from _builders import perfbench_workloads
from _reference_mip import reference_deviation_for_budget

MEMOIZED = (deviation_for_budget, choose_alpha_beta)
# (mu, budget): budgets 1/(e t) for the widths the minimax pipeline meets,
# and 1/a for its sparsity target
DEVIATION_KEYS = [(mu, budget) for mu in (0.3, 1.0, 2.0, 2.0000000000000004, 7.5, 40.0)
                  for budget in [1.0 / (math.e * t) for t in (1, 3, 8)] + [0.25, 0.5]]
ALPHA_BETA_KEYS = [(a, b) for a in (1, 2, 5, 8) for b in (1.0, 2.0, 3.5, 12.0)]
# (function, arguments that must raise ValueError)
INVALID = [
    (deviation_for_budget, (0.0, 0.5)),
    (deviation_for_budget, (-1.0, 0.5)),
    (deviation_for_budget, (math.inf, 0.5)),
    (deviation_for_budget, (math.nan, 0.5)),
    (deviation_for_budget, (1.0, 0.0)),
    (deviation_for_budget, (1.0, 1.0)),
    (choose_alpha_beta, (0, 2.0)),
    (choose_alpha_beta, (5, 0.5)),
]


@pytest.fixture(autouse=True)
def cold_caches():
    for fn in MEMOIZED:
        fn.cache_clear()
    yield
    for fn in MEMOIZED:
        fn.cache_clear()


def _same(x, y) -> bool:
    """Equal values of one type, bit for bit."""
    return type(x) is type(y) and np.array_equal(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize(("fn", "keys"), [(deviation_for_budget, DEVIATION_KEYS),
                                          (choose_alpha_beta, ALPHA_BETA_KEYS)])
def test_fresh_and_repeated_keys_match_the_uncached_search(fn, keys):
    for key in keys:
        assert _same(fn(*key), fn.__wrapped__(*key))
    misses = fn.cache_info().misses
    for key in keys:
        assert _same(fn(*key), fn.__wrapped__(*key))
    assert fn.cache_info().misses == misses


@pytest.mark.parametrize(("first", "second"), [
    ((np.float64(2.0), 1.0 / (math.e * 4)), (2.0, 1.0 / (math.e * 4))),
    ((2.0, np.float64(0.25)), (np.float64(2.0), 0.25)),
    ((3, 0.5), (3.0, 0.5)),
    ((7.5, 0.1), (np.float64(7.5), np.float64(0.1))),
])
def test_equal_keys_of_other_types_share_the_uncached_result(first, second):
    for key in (first, second):
        assert _same(deviation_for_budget(*key), deviation_for_budget.__wrapped__(*key))
        assert deviation_for_budget(*key) == reference_deviation_for_budget(*key)
    assert deviation_for_budget.cache_info().misses == 1


@pytest.mark.parametrize(("first", "second"), [
    ((5, 2.0), (5, 2)),
    ((np.int64(5), 2.0), (5, np.float64(2.0))),
    ((3, 4.0), (3.0, 4.0)),
])
def test_equal_alpha_beta_keys_of_other_types_share_the_uncached_result(first, second):
    for key in (first, second):
        assert _same(choose_alpha_beta(*key), choose_alpha_beta.__wrapped__(*key))
    assert choose_alpha_beta.cache_info().misses == 1


@pytest.mark.parametrize("mu, budget", DEVIATION_KEYS)
def test_cached_inverse_matches_the_scalar_reference(mu, budget):
    for _ in range(2):
        assert deviation_for_budget(mu, budget) == reference_deviation_for_budget(mu, budget)


@pytest.mark.parametrize(("fn", "args"), INVALID)
def test_invalid_arguments_raise_on_every_call(fn, args):
    for _ in range(3):
        with pytest.raises(ValueError):
            fn(*args)
    assert fn.cache_info().currsize == 0


@pytest.mark.parametrize("fn", MEMOIZED)
def test_caches_are_bounded(fn):
    maxsize = fn.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < math.inf


@pytest.mark.parametrize("seed", [0, 3])
def test_a_minimax_pass_searches_each_tail_inverse_key_once(seed):
    # y* is 2 up to ulps, t is 3, 4, 6 or 8 and a is 3 or 4: 84 instances,
    # two inverses each, at most 16 distinct keys
    calls = 0
    for _, inst in perfbench_workloads().WORKLOADS["minimax"](lllround, seed):
        inst = parse_instance(serialize_instance(inst))
        report = solve_mip_lp(inst)
        assert report.status == "optimal"
        full_mip_pipeline(inst, report.solution.x, rng_seed=0, max_tries=10_000)
        calls += 2
    info = deviation_for_budget.cache_info()
    assert info.hits + info.misses == calls
    assert info.misses <= 16


def test_the_single_cost_covers_share_one_alpha_beta_search():
    rounded = 0
    for _, inst in perfbench_workloads().WORKLOADS["cover-lp"](lllround, 0):
        inst = parse_instance(serialize_instance(inst))
        report = solve_cip_lp(inst)
        if report.status == "optimal":
            round_cip(inst, report.solution.x)
            rounded += 1
    info = choose_alpha_beta.cache_info()
    assert rounded > 1
    assert (info.misses, info.hits) == (1, rounded - 1)
