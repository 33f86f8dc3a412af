"""Minimax rounding: slack targets, categorical draws, the retry loop, and
the point check."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lllround
import lllround.mip as mip_module
from lllround import (
    MipInstance,
    bootstrap_reduce,
    deviation_for_budget,
    full_mip_pipeline,
    gen_hypergraph_partition,
    las_vegas_mip,
    mip_target,
    solve_mip_lp,
)
from _builders import perfbench_workloads, random_mip, uniform_group_weights
from _reference_mip import reference_estimator, reference_group_round


def disjoint_pairs():
    """Two groups of two slots, every slot on its own row: any assignment
    loads each touched row by exactly 1."""
    return MipInstance.create(np.eye(4), [2, 2])


def single_group_identity(n_slots):
    return MipInstance.create(np.eye(n_slots), [n_slots])


def group_round(instance, x, rng_seed):
    """One categorical draw per group, as each Las Vegas trial makes it."""
    groups = mip_module._GroupDraw.build(instance, np.asarray(x, dtype=float))
    return groups.draw(instance.n_cols, rng_seed)


class FixedDraws(np.random.Generator):
    """A generator whose `random` returns the given draws, one per group;
    `np.random.default_rng` hands a Generator back as it is."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = np.asarray(draws, dtype=float)

    def random(self, size=None):
        return self.draws.copy()


# One 3-slot group whose build edges end at 0.9999999999999998: any draw
# from there up to 1 counts all three edges.
LAST_EDGE_BELOW_ONE = np.array([0.7, 0.5, 1.1]) / np.array([0.7, 0.5, 1.1]).sum()


@st.composite
def group_points(draw):
    """An instance of 1 to 10 groups of 1 to 12 slots and a point whose
    group sums lie within the 1e-6 tolerance of 1: fractional weights, some
    zero, each group scaled off 1 by up to 9e-7."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-12, 1e-6))
    x = []
    for size in sizes:
        w = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
        if w.sum() == 0.0:
            w[-1] = 1.0
        x.extend(w / w.sum() * (1.0 + draw(st.floats(-9e-7, 9e-7))))
    return MipInstance.create(np.ones((1, sum(sizes))), sizes), np.array(x)


class TestMipTarget:
    @pytest.mark.parametrize("y_star,m,t", [(0.5, 4, 2), (3.0, 10, 5), (12.0, 6, 30)])
    def test_slack_comes_from_the_tail_inverse(self, y_star, m, t):
        out = mip_target(y_star, m, t)
        mu = min(y_star, float(m))
        delta = deviation_for_budget(mu, 1.0 / (math.e * t))
        assert out.k == max(math.ceil(mu * delta), 1)
        assert out.target == pytest.approx(y_star + out.k)
        assert out.delta == delta

    @pytest.mark.parametrize("y_star", [0.01, 1e-100, 1e-300, 1e-307, 1e-320, 5e-324])
    def test_slack_one_is_certified_at_deviation_one_over_the_value(self, y_star):
        # the grid search passes the float range from about 3e-318 to 1e-304
        out = mip_target(y_star, 4, 2)
        assert (out.k, out.target) == (1, y_star + 1.0)
        assert out.delta == min(1.0 / y_star, mip_module.MAX_DEVIATION)
        bound_at_one = math.exp(1.0 - (1.0 + y_star) * math.log1p(1.0 / y_star))
        assert bound_at_one <= 1.0 / (2.0 * math.e)

    @given(y_star=st.floats(0.0, 1e6), m=st.integers(1, 10**6), t=st.integers(1, 10**6))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_every_value_gets_a_finite_deviation(self, y_star, m, t):
        out = mip_target(y_star, m, t)
        assert 0.0 < out.delta <= mip_module.MAX_DEVIATION
        assert out.k >= 1 and out.target == y_star + out.k

    def test_slack_grows_with_interaction_width(self):
        assert mip_target(3.0, 10, 1).k <= mip_target(3.0, 10, 100).k

    def test_mean_clamps_at_the_row_count(self):
        assert mip_target(50.0, 3, 5).k == mip_target(3.0, 3, 5).k

    def test_met_by_allows_rounding_up_the_target(self):
        out = mip_target(0.5, 4, 2)
        assert out.met_by(math.ceil(out.target))
        assert not out.met_by(math.ceil(out.target) + 0.5)

    def test_zero_value_gets_slack_one(self):
        # a support that loads no row rounds to max load 0
        out = mip_target(0.0, 4, 2)
        assert (out.k, out.target, out.delta) == (1, 1.0, 1.0)
        assert out.met_by(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            mip_target(bad, 4, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            mip_target(-0.5, 4, 2)
        with pytest.raises(ValueError, match="at least one row"):
            mip_target(1.0, 0, 2)
        with pytest.raises(ValueError, match="at least one row"):
            mip_target(1.0, 4, 0)


class TestGroupRound:
    def test_degenerate_weights_are_deterministic(self):
        inst = single_group_identity(3)
        for seed in range(5):
            z = group_round(inst, [1.0, 0.0, 0.0], seed)
            assert np.array_equal(z, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_exactly_one_slot_per_group(self, seed):
        inst = random_mip(seed)
        z = group_round(inst, uniform_group_weights(inst), seed)
        assert set(np.unique(z)) <= {0.0, 1.0}
        for g in range(inst.n_groups):
            assert z[inst.group_slice(g)].sum() == 1.0

    def test_same_seed_same_assignment(self):
        inst = random_mip(2)
        x = uniform_group_weights(inst)
        assert np.array_equal(group_round(inst, x, [5, 1]), group_round(inst, x, [5, 1]))

    def test_slot_frequencies_follow_the_weights(self):
        inst = single_group_identity(3)
        weights = np.array([0.2, 0.3, 0.5])
        trials = 30_000
        counts = np.zeros(3)
        for trial in range(trials):
            counts += group_round(inst, weights, [7, trial])
        freq = counts / trials
        for slot in range(3):
            sigma = math.sqrt(weights[slot] * (1 - weights[slot]) / trials)
            assert abs(freq[slot] - weights[slot]) < 4 * sigma

    @given(case=group_points(), seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_same_draw_as_the_group_by_group_loop(self, case, seed):
        inst, x = case
        assert np.array_equal(group_round(inst, x, seed), reference_group_round(inst, x, seed))

    @given(case=group_points())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_edges_are_the_group_by_group_cumulative_sums(self, case):
        # each group's total rounds as its own one-dimensional sum, though
        # a padded row of another width would sum in another order
        inst, x = case
        edges = mip_module._GroupDraw.build(inst, x).edges
        for g in range(inst.n_groups):
            sl = inst.group_slice(g)
            assert np.array_equal(edges[g, : sl.stop - sl.start], np.cumsum(x[sl] / x[sl].sum()))

    @given(case=group_points(), at=st.sampled_from(["top", "edges"]))
    @example(case=(single_group_identity(3), LAST_EDGE_BELOW_ONE), at="top")
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_draws_at_one_and_on_the_edges(self, case, at):
        # the top draw, the largest float below 1, stays in the group where
        # its last edge rounds below it (the example's edges end at
        # 0.9999999999999998); a draw equal to an edge takes the slot after
        # it, as searchsorted(side="right") does
        inst, x = case
        if at == "top":
            draws = np.full(inst.n_groups, np.nextafter(1.0, 0.0))
        else:
            draws = [np.cumsum(x[sl] / x[sl].sum())[(g * 7) % (sl.stop - sl.start)]
                     for g, sl in enumerate(map(inst.group_slice, range(inst.n_groups)))]
        got = group_round(inst, x, FixedDraws(draws))
        assert np.array_equal(got, reference_group_round(inst, x, FixedDraws(draws)))


def start_at(instance, x):
    """The `BootstrapResult` that `las_vegas_mip` rounds, from the point x."""
    return bootstrap_reduce(instance, x)


def impossible_targets(monkeypatch):
    """From now on, every target lies 1 below its point's max load, and
    keeps the deviation the real one is certified at."""
    real = mip_module.mip_target
    monkeypatch.setattr(mip_module, "mip_target", lambda y_star, m, t: dataclasses.replace(
        real(y_star, m, t), k=0, target=y_star - 1.0))


class TestLasVegas:
    def test_disjoint_rows_succeed_immediately(self):
        inst = disjoint_pairs()
        report = las_vegas_mip(inst, start_at(inst, [0.5, 0.5, 0.5, 0.5]), 100, rng_seed=0)
        assert report.success
        assert report.trials_used == 1
        assert report.best_trial == 0
        assert report.value == 1.0
        assert report.target.t == 2  # each group's two slots touch two rows

    def test_best_trial_replays_to_the_reported_assignment(self):
        # the target is met at trial 0, which replays as the estimator's rounding
        inst = random_mip(4)
        start = start_at(inst, uniform_group_weights(inst))
        report = las_vegas_mip(inst, start, 50, rng_seed=11)
        assert (report.best_trial, report.trials_used) == (0, 1)
        replayed = mip_module._estimator_round(inst, start.x, report.target.delta)
        assert np.array_equal(replayed, report.z)
        assert report.value == pytest.approx(float((inst.a_matrix @ report.z).max()))

    def test_more_tries_never_hurt(self):
        inst = random_mip(6)
        start = start_at(inst, uniform_group_weights(inst))
        short = las_vegas_mip(inst, start, 1, rng_seed=3)
        long = las_vegas_mip(inst, start, 50, rng_seed=3)
        assert long.value <= short.value + 1e-12

    def test_target_width_comes_from_the_support_of_the_point(self):
        inst = disjoint_pairs()
        assert las_vegas_mip(inst, start_at(inst, [1.0, 0.0, 1.0, 0.0]), 10, 0).target.t == 1
        assert las_vegas_mip(inst, start_at(inst, [1.0, 0.0, 0.5, 0.5]), 10, 0).target.t == 2

    def test_failure_is_reported_not_raised(self, monkeypatch):
        # Inject an unmeetable target: the loop must burn every trial, keep
        # the best assignment, and report failure through the flag.
        impossible_targets(monkeypatch)
        inst = random_mip(8)
        report = las_vegas_mip(inst, start_at(inst, uniform_group_weights(inst)), 5, 0)
        assert not report.success
        assert report.trials_used == 5
        assert report.value == pytest.approx(float((inst.a_matrix @ report.z).max()))

    def test_trial_stream_is_the_group_round_stream(self, monkeypatch):
        # with an unmeetable target every trial runs; the best value and the
        # earliest trial reaching it are those of the estimator's rounding
        # at trial 0 and of the group-by-group draws after it
        impossible_targets(monkeypatch)
        drawn = []
        real_draw = mip_module._GroupDraw.draw

        def recording_draw(self, n_cols, rng_seed):
            drawn.append((rng_seed, real_draw(self, n_cols, rng_seed)))
            return drawn[-1][1]

        monkeypatch.setattr(mip_module._GroupDraw, "draw", recording_draw)
        inst = gen_hypergraph_partition(30, 30, 4, 3, 2)
        start = start_at(inst, solve_mip_lp(inst).solution.x)
        report = las_vegas_mip(inst, start, 40, rng_seed=6)
        x = start.x
        rounded = [mip_module._estimator_round(inst, x, report.target.delta)]
        rounded += [reference_group_round(inst, x, [6, trial]) for trial in range(1, 40)]
        assert [seed for seed, _ in drawn] == [[6, trial] for trial in range(1, 40)]
        assert all(np.array_equal(z, ref) for (_, z), ref in zip(drawn, rounded[1:]))
        values = [float(inst.loads(z).max()) for z in rounded]
        best = 0
        for trial, value in enumerate(values):
            if value < values[best] - 1e-9:
                best = trial
        assert (report.trials_used, report.best_trial, report.value) == (40, best, values[best])
        assert np.array_equal(report.z, rounded[best])

    @pytest.mark.parametrize("tries", [0, -1])
    def test_fewer_than_one_try_is_rejected(self, tries):
        inst = disjoint_pairs()
        with pytest.raises(ValueError, match="max_tries must be at least 1"):
            las_vegas_mip(inst, start_at(inst, [0.5, 0.5, 0.5, 0.5]), tries, rng_seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_partition_instances_meet_the_target(self, seed):
        inst = gen_hypergraph_partition(10, 8, 3, 2, seed)
        lp = solve_mip_lp(inst)
        assert lp.status == "optimal"
        report = las_vegas_mip(inst, start_at(inst, lp.solution.x), 2000, rng_seed=seed)
        assert report.success
        assert report.value <= math.ceil(report.target.target) + 1e-9


def random_point(instance, seed):
    """A point with every group's weights summing to 1, about a third of
    them zero, each group keeping at least one."""
    rng = np.random.default_rng([seed, 1])
    w = rng.uniform(0.0, 1.0, instance.n_cols) * (rng.random(instance.n_cols) < 0.67)
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        if w[sl].sum() == 0.0:
            w[sl.start] = 1.0
        w[sl] /= w[sl].sum()
    return w


def draw_only_las_vegas(instance, start, max_tries, rng_seed) -> float:
    """The best max load of Las Vegas rounding by draws alone, every trial
    seeded (rng_seed, trial) from trial 0 on, as it ran before trial 0 was
    the estimator's rounding."""
    target = mip_target(start.y_star, instance.m, start.t)
    best = math.inf
    for trial in range(max_tries):
        best = min(best, float(instance.loads(group_round(instance, start.x,
                                                          [rng_seed, trial])).max()))
        if target.met_by(best):
            break
    return best


def partitions_and_lp_points(name):
    """(instance, LP point) pairs: the seed-0 or seed-3 `minimax` benchmark
    workload, or the all-fractional 30-vertex partitions of seeds 0 to 19."""
    if name.startswith("minimax"):
        seed = int(name.split("-")[1])
        instances = [inst for _, inst in perfbench_workloads().WORKLOADS["minimax"](lllround, seed)]
    else:
        instances = [gen_hypergraph_partition(30, 30, 4, 3, s) for s in range(20)]
    return [(inst, solve_mip_lp(inst).solution.x) for inst in instances]


class TestEstimatorRound:
    """Trial 0: Raghavan's pessimistic-estimator rounding."""

    @pytest.mark.parametrize("delta", [0.25, 1.0, math.e - 1.0, 30.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_u_never_rises_and_bounds_the_max_load(self, seed, delta):
        inst = random_mip(seed, max_groups=6, max_slots=4)
        x = random_point(inst, seed)
        beta = 1.0 + delta
        z = mip_module._estimator_round(inst, x, delta)
        point = x.copy()
        u = [reference_estimator(inst, point, beta)]
        for sl in map(inst.group_slice, range(inst.n_groups)):
            if np.count_nonzero(x[sl]) == 1:
                continue  # an integral group keeps its slot
            # the slot taken is a support slot with the smallest U
            options = []
            for s in np.flatnonzero(x[sl]):
                trial = point.copy()
                trial[sl] = 0.0
                trial[sl.start + s] = 1.0
                options.append(reference_estimator(inst, trial, beta))
            point[sl] = z[sl]
            u.append(reference_estimator(inst, point, beta))
            assert x[sl][z[sl] == 1.0].item() > 0.0
            assert u[-1] <= min(options) * (1.0 + 1e-12)
            assert u[-1] <= u[-2] * (1.0 + 1e-12)
        assert np.array_equal(point, z)
        assert float(inst.loads(z).max()) <= math.log(u[0]) / math.log(beta) + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_an_integral_start_is_returned_as_it_is(self, seed):
        inst = random_mip(seed, max_groups=6, max_slots=4)
        rng = np.random.default_rng(seed)
        z0 = np.zeros(inst.n_cols)
        z0[[sl.start + rng.integers(sl.stop - sl.start)
            for sl in map(inst.group_slice, range(inst.n_groups))]] = 1.0
        assert np.array_equal(mip_module._estimator_round(inst, z0, 1.0), z0)
        report = las_vegas_mip(inst, start_at(inst, z0), 10, rng_seed=seed)
        assert np.array_equal(report.z, z0) and report.best_trial == 0

    def test_a_group_that_meets_no_row_takes_its_lowest_support_slot(self):
        inst = MipInstance.create(np.array([[1.0, 0.5, 0.0, 0.0, 0.0]]), [2, 3])
        z = mip_module._estimator_round(inst, np.array([0.5, 0.5, 0.0, 0.3, 0.7]), 1.0)
        assert z.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_trial_0_does_not_depend_on_the_seed(self, monkeypatch):
        inst = gen_hypergraph_partition(30, 30, 4, 3, 1)
        start = start_at(inst, solve_mip_lp(inst).solution.x)
        generators_built = count_generators(monkeypatch)
        reports = [las_vegas_mip(inst, start, 1, rng_seed=seed) for seed in range(5)]
        assert generators_built == []  # no draw, so no generator
        assert all(np.array_equal(r.z, reports[0].z) for r in reports)
        assert len({(r.value, r.best_trial) for r in reports}) == 1

    @pytest.mark.parametrize("workload", ["minimax-0", "minimax-3", "partition-30"])
    def test_no_worse_than_las_vegas_by_draws_alone(self, workload):
        ours = theirs = 0.0
        for inst, x in partitions_and_lp_points(workload):
            start = start_at(inst, x)
            ours += las_vegas_mip(inst, start, 10_000, rng_seed=0).value
            theirs += draw_only_las_vegas(inst, start, 10_000, rng_seed=0)
        assert ours <= theirs


@pytest.mark.parametrize("entry", [bootstrap_reduce, full_mip_pipeline])
class TestRawPointChecks:
    """`bootstrap_reduce` checks every raw point that minimax rounding takes,
    on its own and as the first step of `full_mip_pipeline`."""

    def test_input_validation(self, entry):
        inst = single_group_identity(3)
        with pytest.raises(ValueError, match="sum to"):
            entry(inst, [0.5, 0.4, 0.2])
        with pytest.raises(ValueError, match="nonnegative"):
            entry(inst, [1.2, -0.2, 0.0])
        with pytest.raises(ValueError, match="expected 3 values"):
            entry(inst, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, entry, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad} at slot 1"):
            entry(single_group_identity(3), [0.5, bad, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, entry, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad} at slot 2"):
            entry(disjoint_pairs(), [0.5, 0.5, bad, 0.5])


def count_generators(monkeypatch) -> list:
    """From now on, the seed of every generator built.  `lllround.mip` looks
    up `np.random.default_rng` at each call, so the counting one is patched
    into numpy's module."""
    built = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(mip_module.np.random, "default_rng", counting)
    return built


def flat_width_case():
    """One 16-slot group, outside the paper's easy regime (t = 16, y* =
    0.8 < 16^(1/7)), where a support-reduction step used to run."""
    x = np.full(16, 0.2 / 15)
    x[0] = 0.8
    return single_group_identity(16), x


def two_step_case():
    """Two groups of four slots on the same four rows; each group puts 0.005
    on three slots, which two support-reduction steps used to zero."""
    a = np.zeros((4, 8))
    for g in range(2):
        for j in range(4):
            a[j, 4 * g + j] = 1.0
    x = np.array([0.985, 0.005, 0.005, 0.005, 0.005, 0.005, 0.005, 0.985])
    return MipInstance.create(a, [4, 4]), x


BOOTSTRAP_CASES = ["easy", "flat-width", "two-step"]


def bootstrap_case(case):
    if case == "easy":
        inst = random_mip(0)
        return inst, uniform_group_weights(inst)
    return flat_width_case() if case == "flat-width" else two_step_case()


class TestBootstrap:
    @pytest.mark.parametrize("case", BOOTSTRAP_CASES)
    def test_takes_no_step_and_builds_no_generator(self, monkeypatch, case):
        inst, x = bootstrap_case(case)
        generators_built = count_generators(monkeypatch)
        result = bootstrap_reduce(inst, x)
        assert result.iterations == ()
        assert result.x == pytest.approx(x)
        assert generators_built == []

    @pytest.mark.parametrize("case", BOOTSTRAP_CASES)
    def test_width_and_load_are_those_of_the_returned_point(self, case):
        inst, x = bootstrap_case(case)
        result = bootstrap_reduce(inst, x)
        assert (result.a, result.t) == mip_module._support_stats(inst, result.x)
        assert result.y_star == float(inst.loads(result.x).max())
        if case == "flat-width":
            assert (result.a, result.t) == (1, 16)
            assert result.y_star == pytest.approx(0.8)

    @pytest.mark.parametrize("case", ["small-groups", "wide-groups"])
    def test_input_is_renormalized_group_by_group(self, case):
        # groups of 8 or more slots are summed in another order by a
        # segment-wise `np.add.reduceat` than by their 1-D sum
        rng = np.random.default_rng(5)
        if case == "small-groups":
            inst = random_mip(5)
            points = [uniform_group_weights(inst) * (1.0 + 5e-7)]
        else:
            inst = MipInstance.create(rng.uniform(0.2, 1.0, (3, 37)), [12, 9, 16])
            points = []
            for _ in range(20):
                w = rng.uniform(0.0, 1.0, inst.n_cols)
                points.append(w / np.repeat(np.add.reduceat(w, inst.offsets), inst.group_sizes))
        for x in points:
            expected = x.copy()
            for g in range(inst.n_groups):
                sl = inst.group_slice(g)
                expected[sl] = x[sl] / x[sl].sum()
            np.testing.assert_array_equal(bootstrap_reduce(inst, x).x, expected)

    def test_group_sums_must_be_one(self):
        inst = single_group_identity(3)
        with pytest.raises(ValueError, match="group 0 weights sum"):
            bootstrap_reduce(inst, [0.5, 0.3, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad} at slot 0"):
            bootstrap_reduce(single_group_identity(3), [bad, 0.5, 0.5])


class TestFullPipeline:
    def test_one_check_and_one_measurement_per_call(self, monkeypatch):
        calls = {"_checked_point": 0, "_support_stats": 0}
        for name in calls:
            def counting(*args, real=getattr(mip_module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(mip_module, name, counting)
        inst = random_mip(0)
        report, summary = full_mip_pipeline(inst, uniform_group_weights(inst))
        assert summary["t_trace"] == [report.target.t]
        assert calls == {"_checked_point": 1, "_support_stats": 1}

    def test_loads_that_underflow_to_zero_take_the_width_target(self):
        # slot 0 meets both rows (a = 2), and its loads 1e-30 * 1e-300
        # underflow to 0, so y* = 0 and both targets are 0 + k = 1
        inst = MipInstance.create(np.array([[1e-300, 0.0], [1e-300, 0.0]]), [2])
        report, summary = full_mip_pipeline(inst, [1e-30, 1.0])
        assert mip_module._support_stats(inst, np.array([1e-30, 1.0]))[0] == 2
        assert summary["target_t44"] == summary["target_t42"] == 1.0
        assert report.success and summary["value"] == 0.0

    def test_disjoint_instance_summary(self):
        inst = disjoint_pairs()
        report, summary = full_mip_pipeline(inst, solve_mip_lp(inst).solution.x, rng_seed=0)
        assert report.success
        assert summary["value"] == 1.0
        assert summary["success"] is True
        assert summary["trials_used"] == 1
        assert set(summary) == {
            "value", "target_t42", "target_t44", "trials_used", "t_trace", "success",
        }
        assert summary["target_t42"] == pytest.approx(report.target.target)
        # a 0/1 identity instance has column sparsity 1, so the
        # sparsity-based target falls back to the width-based one
        assert summary["target_t44"] == pytest.approx(summary["target_t42"])
        assert all(isinstance(v, int) for v in summary["t_trace"])

    @pytest.mark.parametrize("seed", [1, 3])
    def test_value_sits_between_the_relaxation_and_the_brute_force_optimum(self, seed):
        inst = random_mip(seed, max_groups=3, max_slots=3)
        lp = solve_mip_lp(inst)
        assert lp.status == "optimal"
        best = math.inf
        slices = [inst.group_slice(g) for g in range(inst.n_groups)]
        for choice in itertools.product(*[range(sl.stop - sl.start) for sl in slices]):
            z = np.zeros(inst.n_cols)
            for sl, c in zip(slices, choice):
                z[sl.start + c] = 1.0
            best = min(best, float((inst.a_matrix @ z).max()))
        report, summary = full_mip_pipeline(inst, lp.solution.x, rng_seed=seed, max_tries=3000)
        assert report.value >= best - 1e-9
        assert report.value >= lp.solution.objective_values[0] - 1e-9
        assert summary["value"] == pytest.approx(report.value)
