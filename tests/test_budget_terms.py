"""Budget terms as elementary symmetric sums over the free bits times one
subset table over the bits that meet an unsatisfied row, checked against
the table form over every random bit (`_reference_estimator.table_*`),
and the work the table does."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lllround
from lllround import (CipInstance, ParameterError, choose_parameters, derandomize, gen_set_cover,
                      make_estimator, make_scheme, parse_instance, serialize_instance,
                      solve_cip_lp, success_lower_bound)
from lllround import cip
from _builders import four_cost_cover, lp_point, perfbench_workloads, random_cip
from _reference_estimator import table_derandomize, table_evaluate, table_terms

pytestmark = pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")


def term_sums(state):
    """Each budget term's sum of w_S * exp(-seg_S) over its order-k subsets,
    from the free factors and the order sums of the table."""
    budget = state.budget
    _, _, _, e = cip._evaluate(state)
    sums = e @ budget.one_hot
    dead = state.chp[state.scheme.unsatisfied] >= 1.0 - cip.NEAR_ONE_GUARD
    sums[:, 0] = 0.0 if np.any(dead) else 1.0
    return (budget.free_factors[0] * sums).sum(axis=1).tolist()


def assert_matches_tables(state):
    """The estimator value and every term's sum at the state's point, and,
    from a positive start, the fixing path, all as the tables give them."""
    value, _, _, _, es = table_evaluate(state)
    assert success_lower_bound(state) == pytest.approx(value, rel=1e-12, abs=1e-15)
    want = [float(e.sum()) for e in es]
    assert term_sums(state) == pytest.approx(want, rel=1e-12, abs=0.0)
    if value <= 0.0:
        return
    out = derandomize(state)
    z, trace, evaluations = table_derandomize(state)
    assert np.array_equal(out.z, z) and out.evaluations == evaluations
    assert out.trace == pytest.approx(trace, rel=1e-12, abs=0.0)


@st.composite
def covers(draw):
    """A small cover with zero-cost columns, a point that leaves some rows
    unsatisfied or none, subset orders up to the cap, and a second point
    with bits at exactly 0 and 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 10))
    a = rng.uniform(0.2, 1.0, (m, n)) * (rng.random((m, n)) < draw(st.sampled_from([0.4, 0.8])))
    a[np.arange(m), rng.integers(0, n, m)] = rng.uniform(0.5, 1.0, m)  # every row meets a column
    ell = draw(st.integers(1, 3))
    costs = [rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.8) for _ in range(ell)]
    for cost in costs:
        cost[rng.integers(0, n)] = 1.0  # a cost vector needs a positive entry
    inst = CipInstance.create(a, 1.0 + rng.uniform(0.0, 0.5, m), costs)
    x = np.full(n, float(np.max(inst.demands / a.sum(axis=1))))
    if draw(st.booleans()):  # floors that satisfy some rows, and with them free bits
        x[rng.random(n) < 0.4] += 1.5
    ks = [draw(st.integers(1, min(n, cip.SUBSET_ORDER_CAP))) for _ in costs]
    lambdas = [k + draw(st.floats(0.0, 3.0)) * n for k in ks]
    other = rng.random(n)
    other[rng.random(n) < 0.3] = 1.0
    other[rng.random(n) < 0.2] = 0.0
    return inst, x, draw(st.floats(1.05, 2.5)), lambdas, ks, other


class TestAgainstTables:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=covers())
    def test_terms_values_and_paths_match(self, case):
        inst, x, alpha, lambdas, ks, other = case
        try:
            scheme = make_scheme(inst, x, alpha)
        except ParameterError:  # a row whose deviation falls outside (0, 1)
            assume(False)
        state = make_estimator(scheme, lambdas, ks)
        assert_matches_tables(state)
        assert_matches_tables(state.at(other))

    @pytest.mark.parametrize("name", ["set-cover-400x720-flat", "four-cost-60x108-mixed",
                                      "four-cost-12x30-vertex", "flat-interior-s3"])
    def test_named_covers_match(self, name):
        if name == "set-cover-400x720-flat":
            # every row unsatisfied, every bit branches: no free bit
            inst, x, params = gen_set_cover(400, 720, 5, 2, 0), np.full(720, 0.7), dict(alpha=1.4)
        elif name == "four-cost-60x108-mixed":
            # 11 rows unsatisfied at order 3, free bits between branched ones
            inst, x = four_cost_cover(108, 0, 60, 2), np.full(108, 0.7)
            x[::3] = 1.5
            params = dict(alpha=1.4, beta=3.0)
        elif name == "four-cost-12x30-vertex":
            inst = four_cost_cover(30, 0)
            x, params = lp_point(inst), {}
        else:
            inst = random_cip(3, ell=2)
            x = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
            params = dict(alpha=1.5, total_budgets=[4.0 * inst.n] * 2)
        scheme, lambdas, ks, _ = choose_parameters(inst, x, **params)
        state = make_estimator(scheme, lambdas, ks)
        assert success_lower_bound(state) > 0.0
        assert_matches_tables(state)
        p = scheme.frac.copy()
        p[::4] = 1.0
        assert_matches_tables(state.at(p))

    def test_fewer_weighed_bits_than_the_order_leave_an_empty_term(self):
        # two random bits, one of them at cost 0, under order 2: the second
        # cost's term is empty and subtracts nothing
        inst = CipInstance.create([[1.0, 1.0, 1.0]], [1.0], [np.ones(3), np.array([1.0, 0.0, 1.0])])
        scheme = make_scheme(inst, [0.5, 0.5, 0.0], 1.5)
        state = make_estimator(scheme, [4.0, 4.0], [2, 2])
        assert term_sums(state)[1] == 0.0 == float(table_evaluate(state)[4][1].sum())
        assert term_sums(state)[0] > 0.0
        assert_matches_tables(state)


class TestBudgetRules:
    @pytest.mark.parametrize("x, accepted", [
        ([0.0, 0.0, 1.0], True),  # the one random bit costs 0
        ([0.5, 0.5, 0.5], False),  # positive-cost bits whose columns meet unsatisfied rows
        ([0.0, 0.0, 1.0, 0.6], False),  # a positive-cost free bit
    ])
    def test_a_zero_budget_at_order_one_needs_no_weighed_random_bit(self, x, accepted):
        a = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        cost = np.array([1.0, 1.0, 0.0])
        if len(x) == 4:  # column 3 meets no row
            a = [row + [0.0] for row in a]
            cost = np.append(cost, 1.0)
        inst = CipInstance.create(a, [1.0, 1.0], [cost])
        scheme = make_scheme(inst, x, 1.5)
        if accepted:
            assert success_lower_bound(make_estimator(scheme, [0.0], [1])) == 1.0
            table_terms(scheme, [0.0], [1], scheme.frac)
        else:
            with pytest.raises(ParameterError, match="budget must be positive, got 0.0"):
                make_estimator(scheme, [0.0], [1])
            with pytest.raises(ParameterError, match="budget must be positive, got 0.0"):
                table_terms(scheme, [0.0], [1], scheme.frac)
        with pytest.raises(ParameterError, match="budget must be positive, got -0.5"):
            make_estimator(scheme, [-0.5], [1])
        with pytest.raises(ParameterError, match="below subset order 2"):
            make_estimator(scheme, [0.0], [2])

    def test_the_zero_budget_rule_holds_at_every_point(self):
        # at the point of `at` too, as for the tables: column 2 costs 0
        inst = CipInstance.create([[1.0, 1.0, 1.0]], [1.0], [np.array([1.0, 1.0, 0.0])])
        scheme = make_scheme(inst, [0.0, 0.0, 1.0], 1.5)
        state = make_estimator(scheme, [0.0], [1])
        with pytest.raises(ParameterError, match="budget must be positive, got 0.0"):
            state.at([0.5, 0.0, 0.5])
        assert success_lower_bound(state.at([0.0, 0.0, 0.2])) == pytest.approx(
            table_evaluate(state.at([0.0, 0.0, 0.2]))[0], rel=1e-12)


class TestWork:
    @pytest.mark.parametrize("name", ["cover-lp", "cover-multicost"])
    def test_benchmark_covers_build_no_table_row(self, name):
        built = 0
        for _, inst in perfbench_workloads().WORKLOADS[name](lllround, 0):
            inst = parse_instance(serialize_instance(inst))
            report = solve_cip_lp(inst)
            if report.status != "optimal":
                continue
            scheme, lambdas, ks, _ = choose_parameters(inst, report.solution.x)
            budget = make_estimator(scheme, lambdas, ks).budget
            assert budget.cols.shape[0] == 0 and budget.free_factors.shape[0] > 1
            built += 1
        assert built >= 6

    @pytest.mark.parametrize("x_every_third", [0.7, 1.5])
    def test_the_table_holds_the_subsets_of_the_bits_that_meet_an_unsatisfied_row(
            self, x_every_third):
        inst = four_cost_cover(108, 0, 60, 2)
        x = np.full(108, 0.7)
        x[::3] = x_every_third
        scheme, lambdas, ks, _ = choose_parameters(inst, x, alpha=1.4, beta=3.0)
        budget = make_estimator(scheme, lambdas, ks).budget
        meets = np.diff(scheme.col_ptr) > 0
        branched = int(np.count_nonzero((scheme.frac > 0.0) & meets))
        free = int(np.count_nonzero((scheme.frac > 0.0) & ~meets))
        assert branched > 0 and (free > 0) == (x_every_third == 1.5)
        k = 3
        assert list(ks) == [k] * 4
        # the empty subset (B_0) is no table row
        counts = [math.comb(branched, i) for i in range(1, k + 1)]
        assert budget.cols.shape == (sum(counts), k)
        assert budget.one_hot.sum(axis=0).tolist() == [0] + counts
        assert budget.free_factors.shape == (free + 1, 4, k + 1)
