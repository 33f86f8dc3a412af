"""Covering rounding: schemes, parameter choices, the success estimator, and
the deterministic fixing loop."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lllround import (
    CipInstance,
    ParameterError,
    binomial_real,
    choose_alpha_beta,
    choose_parameters,
    column_sparsity,
    derandomize,
    gen_set_cover,
    lower_tail_bound,
    make_estimator,
    make_scheme,
    multicriteria_params,
    round_cip,
    standard_round,
    success_lower_bound,
)
from lllround import cip
from lllround.cip import _row_bounds
from _builders import (col_rows, four_cost_cover, lp_point, random_cip, row_cols, two_cost_cover,
                      two_cost_set_cover)
from _reference_estimator import (reference_derandomize, reference_multicriteria_params,
                                  reference_row_bounds, reference_terms, reference_value,
                                  standard_certificate)

# Single row x1+...+x6 >= 2, x = 1/3 everywhere, scale 1.5: the leftover bits
# are six fair coins against a residual demand of 2, so the exact failure
# probability is Pr(Binomial(6, 1/2) <= 1) = (1 + 6) / 2^6.
EXACT_SIX_COIN_FAILURE = 7 / 64


def tight_single_row():
    inst = CipInstance.create(np.ones((1, 6)), [2.0], [np.ones(6)])
    return make_scheme(inst, np.full(6, 1 / 3), 1.5)


def estimate_by_enumeration(scheme, p, lambdas, ks):
    """The success estimator recomputed with plain loops over all subsets.

    Row bounds are taken from the state's cached `chp`; everything past
    them (subset sums, complements, budget denominators) is re-derived here
    independently of the vectorized tables.
    """
    inst = scheme.instance
    p = np.asarray(p, dtype=float)
    state = make_estimator(scheme, lambdas, ks).at(p)
    ch = state.chp
    unsat = [i for i in range(inst.m) if not scheme.satisfied[i]]
    lead = math.prod(1.0 - ch[i] for i in unsat)
    total = 0.0
    for cost, lam, k in zip(inst.costs, lambdas, ks):
        denom = binomial_real(float(lam), int(k))
        for subset in itertools.combinations(range(inst.n), int(k)):
            weight = math.prod(cost[j] * p[j] for j in subset)
            if weight == 0.0:
                continue
            touched = set()
            for j in subset:
                touched.update(np.flatnonzero(inst.a_matrix[:, j]).tolist())
            rest = math.prod(1.0 - ch[r] for r in unsat if r not in touched)
            total += weight * rest / denom
    return lead - total


def random_subsets(terms, p):
    """Reference terms cut to the subsets whose columns all have p > 0, row
    segments included."""
    out = []
    for denom, cost, cols, flat_rows, starts, ends in terms:
        keep = np.all(p[cols] > 0.0, axis=1)
        lengths = ends - starts
        kept_ends = np.cumsum(lengths[keep])
        out.append((denom, cost, cols[keep], flat_rows[np.repeat(keep, lengths)],
                    kept_ends - lengths[keep], kept_ends))
    return out


def evaluate_at(state, p):
    """Estimator value at an arbitrary bit-probability vector."""
    return success_lower_bound(state.at(p))


class TestMakeScheme:
    def test_integral_point_fully_satisfied(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.ones(2)])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        assert np.array_equal(scheme.floor, [2.0, 2.0])
        assert np.array_equal(scheme.frac, [0.0, 0.0])
        assert scheme.satisfied.all()

    def test_half_half_split(self):
        inst = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
        scheme = make_scheme(inst, [0.5, 0.5], 1.5)
        assert np.array_equal(scheme.floor, [0.0, 0.0])
        assert scheme.frac == pytest.approx([0.75, 0.75])
        assert (inst.a_matrix @ scheme.frac)[0] == pytest.approx(1.5)
        assert scheme.residual[0] == pytest.approx(1.0)
        assert scheme.delta[0] == pytest.approx(1 / 3)
        assert not scheme.satisfied[0]

    def test_floor_costs(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.array([1.0, 0.5])])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        assert scheme.floor_costs == (3.0,)

    @pytest.mark.parametrize("seed", range(5))
    def test_unsatisfied_deviations_land_inside_unit_interval(self, seed):
        inst = random_cip(seed)
        scheme = make_scheme(inst, lp_point(inst), 1.2)
        active = ~scheme.satisfied
        assert np.all(scheme.delta[active] > 0.0)
        assert np.all(scheme.delta[active] < 1.0)
        assert np.all(scheme.frac >= 0.0) and np.all(scheme.frac < 1.0)

    def test_alpha_at_most_one_rejected(self):
        inst = random_cip(0)
        with pytest.raises(ValueError, match="must exceed 1"):
            make_scheme(inst, lp_point(inst), 1.0)

    def test_infeasible_point_rejected(self):
        inst = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
        with pytest.raises(ValueError, match="row 0 short"):
            make_scheme(inst, [0.2, 0.2], 1.5)

    def test_wrong_length_rejected(self):
        inst = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
        with pytest.raises(ValueError, match="expected 2 values"):
            make_scheme(inst, [1.0, 1.0, 1.0], 1.5)

    def test_negative_or_non_finite_entries_rejected(self):
        # Both points cover every row: the negative one rounded to a z
        # holding -2, the NaN one to NaN entries, each reported feasible.
        inst = gen_set_cover(12, 20, 5, 2, 0)
        x = lp_point(inst)
        low = int(np.argmin(x))
        shifted = x + 0.5
        shifted[low] = -0.4
        with pytest.raises(ValueError, match=f"column weights must be nonnegative and finite, "
                                             f"got -0.4 at column {low}$"):
            round_cip(inst, shifted)
        x[0] = math.nan
        with pytest.raises(ValueError, match="got nan at column 0$"):
            round_cip(inst, x, total_budgets=[100.0])
        # the default budgets are not finite at this point either
        with pytest.raises(ValueError, match="got nan at column 0$"):
            round_cip(inst, x)


class TestChooseAlphaBeta:
    @pytest.mark.parametrize("a,demand", [(1, 1.0), (2, 1.0), (6, 3.0), (8, 1.0), (3, 8.0)])
    def test_returned_pair_clears_the_start_condition(self, a, demand):
        alpha, beta = choose_alpha_beta(a, demand)
        assert alpha > 1.0 and beta > 1.0
        q = lower_tail_bound(demand, alpha)
        assert beta * (1.0 - q) ** a > 1.0

    def test_large_demand_sends_both_factors_toward_one(self):
        alpha, beta = choose_alpha_beta(1, 100.0)
        assert alpha <= 1.8
        assert beta <= 1.8

    def test_product_grows_with_column_sparsity(self):
        cheap = math.prod(choose_alpha_beta(2, 1.0))
        dear = math.prod(choose_alpha_beta(8, 1.0))
        assert dear >= cheap

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="column sparsity"):
            choose_alpha_beta(0, 1.0)
        with pytest.raises(ValueError, match="demand"):
            choose_alpha_beta(2, 0.5)


class TestStandardRound:
    def test_integral_scheme_rounds_to_its_floor(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.ones(2)])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        out = standard_round(scheme, 123)
        assert np.array_equal(out.z, scheme.floor)
        assert out.feasible
        assert out.objective_values == (4.0,)

    def test_same_seed_same_draw(self):
        scheme = tight_single_row()
        a = standard_round(scheme, 7)
        b = standard_round(scheme, 7)
        assert np.array_equal(a.z, b.z)

    def test_draws_match_direct_bernoulli_sampling(self):
        # Pin down the sampling scheme itself: one uniform per column,
        # compared against the leftover mass.  The Monte-Carlo test below
        # relies on this equivalence to vectorize.
        scheme = tight_single_row()
        for seed in range(50):
            bits = np.random.default_rng(seed).random(6) < scheme.frac
            assert np.array_equal(standard_round(scheme, seed).z, scheme.floor + bits)

    def test_failure_rate_matches_exact_value_and_respects_envelope(self):
        scheme = tight_single_row()
        trials = 100_000
        draws = np.random.default_rng(20260816).random((trials, 6)) < scheme.frac
        loads = draws @ scheme.instance.a_matrix[0]
        failure = float(np.mean(loads < scheme.residual[0]))
        sigma = math.sqrt(EXACT_SIX_COIN_FAILURE * (1 - EXACT_SIX_COIN_FAILURE) / trials)
        assert abs(failure - EXACT_SIX_COIN_FAILURE) < 4 * sigma
        assert failure < lower_tail_bound(2.0, 1.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_fail_rows_within_the_tail_envelope(self, seed):
        inst = random_cip(seed, n_max=10, m_max=6)
        scheme = make_scheme(inst, lp_point(inst), 1.8)
        trials = 40_000
        draws = np.random.default_rng(seed + 1000).random((trials, inst.n)) < scheme.frac
        loads = draws @ inst.a_matrix.T + inst.a_matrix @ scheme.floor
        envelope = lower_tail_bound(float(inst.demands.min()), 1.8)
        slack = 4 * math.sqrt(0.25 / trials)
        for i in range(inst.m):
            failure = float(np.mean(loads[:, i] < inst.demands[i] - 1e-9))
            assert failure <= envelope + slack


class TestRowFailureBounds:
    def test_zero_mass_on_unsatisfied_row_is_certain_failure(self):
        scheme = tight_single_row()
        state = make_estimator(scheme, [3.0], [1]).at(np.zeros(6))
        assert state.chp[0] == 1.0

    def test_satisfied_row_never_fails(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.ones(2)])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        state = make_estimator(scheme, [1.0], [1])
        assert state.chp[0] == 0.0
        assert state.chp[1] == 0.0

    def test_bound_at_standard_probabilities_stays_below_tail_envelope(self):
        for seed in range(8):
            inst = random_cip(seed)
            scheme = make_scheme(inst, lp_point(inst), 1.6)
            state = make_estimator(scheme, [float(inst.n)], [1])
            envelope = lower_tail_bound(float(inst.demands.min()), 1.6)
            for i in np.flatnonzero(~scheme.satisfied):
                assert state.chp[i] <= envelope + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_match_the_per_row_reference(self, seed):
        # At the LP vertex and at a flat interior point, some rows stay
        # unsatisfied by the floors; zeroing one such row's bits kills it.
        inst = random_cip(seed)
        flat = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
        rng = np.random.default_rng(seed)
        dead_rows = 0
        for x in (lp_point(inst), flat):
            scheme = make_scheme(inst, x, 1.5)
            points = [scheme.frac, rng.uniform(0.0, 1.0, inst.n),
                      rng.uniform(0.0, 1.0, inst.n) * scheme.frac]
            for row in np.flatnonzero(~scheme.satisfied)[:1]:
                dead = scheme.frac.copy()
                dead[row_cols(inst, row)] = 0.0
                points.append(dead)
                assert reference_row_bounds(scheme, dead)[row] == 1.0
                dead_rows += 1
            for p in points:
                got, want = _row_bounds(scheme, p), reference_row_bounds(scheme, p)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                assert np.all(got[scheme.satisfied] == 0.0)
                assert np.all(got[want == 1.0] == 1.0)
        assert dead_rows > 0

    def test_bound_dominates_exact_failure_probability(self):
        from lllround import exact_event_probs

        for seed in range(6):
            inst = random_cip(seed, n_max=12, m_max=6)
            scheme = make_scheme(inst, lp_point(inst), 1.5)
            state = make_estimator(scheme, [float(inst.n)], [1])
            rng = np.random.default_rng(seed)
            for p in (scheme.frac, rng.uniform(0.0, 1.0, inst.n) * scheme.frac):
                moved = state.at(p)
                exact = exact_event_probs(scheme, moved.p)
                for i in range(inst.m):
                    assert exact.row_fail[i] <= moved.chp[i] + 1e-9


class TestSuccessEstimator:
    def test_trivial_instance_has_certain_success(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.ones(2)])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        state = make_estimator(scheme, [1.0], [1])
        assert success_lower_bound(state) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha,lam", [(1.5, 12.0), (2.5, 6.0)])
    def test_cost_with_fewer_positive_entries_than_k_subtracts_nothing(self, alpha, lam):
        # The second cost is positive on one column only, below the subset
        # order 2, so its budget holds on every outcome: its table is empty.
        from lllround import exact_event_probs

        base = gen_set_cover(8, 16, 5, 2, 0)
        sparse_cost = np.zeros(16)
        sparse_cost[3] = 1.0
        two = CipInstance.create(base.a_matrix, base.demands, [base.costs[0], sparse_cost])
        one = CipInstance.create(base.a_matrix, base.demands, [base.costs[0]])
        x = lp_point(two)
        scheme_two, scheme_one = make_scheme(two, x, alpha), make_scheme(one, x, alpha)
        state_two = make_estimator(scheme_two, [lam, 2.0], [2, 2])
        state_one = make_estimator(scheme_one, [lam], [2])
        rng = np.random.default_rng(0)
        for p in (scheme_two.frac, rng.uniform(0.0, 1.0, 16) * scheme_two.frac):
            value = success_lower_bound(state_two.at(p))
            assert value == success_lower_bound(state_one.at(p))
            assert value <= exact_event_probs(scheme_two, p, lambdas=[lam, 2.0]).success + 1e-12

    def test_order_one_closed_formula(self):
        scheme = tight_single_row()
        lam = 2.5
        state = make_estimator(scheme, [lam], [1])
        ch = state.chp[0]
        by_hand = (1.0 - ch) - sum(0.5 * 1.0 for _ in range(6)) / lam
        # every column touches the single row, so each first-order term
        # drops the whole complement product
        assert success_lower_bound(state) == pytest.approx(by_hand, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_subset_enumeration_single_criterion(self, seed):
        inst = random_cip(seed, n_max=9, m_max=6)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        state = make_estimator(scheme, [float(inst.n)], [1])
        rng = np.random.default_rng(seed + 99)
        for p in (scheme.frac, rng.uniform(0.0, 1.0, inst.n), rng.uniform(0.0, 1.0, inst.n) * scheme.frac):
            got = evaluate_at(state, p)
            want = estimate_by_enumeration(scheme, p, [float(inst.n)], [1])
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_subset_enumeration_two_criteria_order_two(self, seed):
        inst = random_cip(seed + 40, n_max=8, m_max=5, ell=2)
        scheme = make_scheme(inst, lp_point(inst), 1.7)
        lambdas = [float(inst.n), float(inst.n) + 1.0]
        ks = [2, 2]
        state = make_estimator(scheme, lambdas, ks)
        rng = np.random.default_rng(seed)
        for p in (scheme.frac, rng.uniform(0.0, 1.0, inst.n)):
            got = evaluate_at(state, p)
            want = estimate_by_enumeration(scheme, p, lambdas, ks)
            assert got == pytest.approx(want, abs=1e-12)

    def test_dead_row_still_matches_enumeration(self):
        # Zeroing every bit on some row's support clamps that row's failure
        # bound to 1, which kills the leading product and leaves only the
        # subset terms whose neighborhood covers the dead row.
        inst = random_cip(3, n_max=9, m_max=5)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        state = make_estimator(scheme, [float(inst.n)], [1])
        row = int(np.flatnonzero(~scheme.satisfied)[0])
        p = scheme.frac.copy()
        p[row_cols(inst, row)] = 0.0
        got = evaluate_at(state, p)
        want = estimate_by_enumeration(scheme, p, [float(inst.n)], [1])
        assert state.at(p).chp[row] == 1.0
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("case", ["empty column at k = 1", "support below k", "dead row"])
    def test_table_edge_cases_match_enumeration(self, case):
        # Column 3 touches no row, and the second cost is positive on column
        # 2 only.  At x = 0.6 and scale 1.5 the other bits are 0.9 and no
        # floor covers a row.
        a = np.array([[1.0, 0.6, 0.5, 0.0, 0.0],
                      [0.5, 1.0, 0.8, 0.0, 0.0],
                      [0.0, 0.7, 0.0, 0.0, 1.0]])
        costs = [np.array([1.0, 0.5, 0.8, 0.9, 0.6]), np.array([0.0, 0.0, 0.7, 0.0, 0.0])]
        inst = CipInstance.create(a, [1.0, 1.0, 1.0], costs)
        scheme = make_scheme(inst, [0.6, 0.6, 0.6, 0.0, 0.6], 1.5)
        p = scheme.frac.copy()
        p[3] = 0.5  # a random bit whose subsets cover no row
        lambdas = [4.0, 3.0]
        ks = {"empty column at k = 1": [1, 1], "support below k": [2, 2], "dead row": [2, 1]}[case]
        if case == "dead row":
            # bits this small leave row 2's failure bound clamped at 1, yet
            # their subsets keep positive weights
            p[row_cols(inst, 2)] = 0.01
        state = make_estimator(scheme, lambdas, ks).at(p)
        budget = state.budget
        # the subsets the second cost weighs: those of its one positive column
        weighed = budget.cols[np.isfinite(budget.log_w[1])].tolist()
        if case == "empty column at k = 1":
            # column 3 is free: it enters the free factors, not the table
            assert 3 not in budget.cols and weighed == [[2]]
            assert budget.free_factors[0, :, 0] == pytest.approx([0.9 * 0.5, 0.0])
        elif case == "support below k":
            # the second cost weighs one subset, of order 1, and its free bit
            # weighs 0, so nothing completes it to order 2: e_2, e_1, e_0
            assert weighed == [[2, 5]] and budget.free_factors[0, 1].tolist() == [0.0, 0.0, 1.0]
        else:
            assert state.chp[2] == 1.0 and state.chp[:2].max() < 1.0 - 1e-12
        want = estimate_by_enumeration(scheme, p, lambdas, ks)
        assert success_lower_bound(state) == pytest.approx(want, abs=1e-12)

    def test_budget_and_order_validation(self, monkeypatch):
        scheme = tight_single_row()
        with pytest.raises(ValueError, match="out of range"):
            make_estimator(scheme, [3.0], [7])
        with pytest.raises(ValueError, match="below subset order"):
            make_estimator(scheme, [1.5], [2])
        with pytest.raises(ValueError, match="must be positive"):
            make_estimator(scheme, [0.0], [1])
        with pytest.raises(ValueError, match="one budget and one subset order"):
            make_estimator(scheme, [3.0, 3.0], [1, 1])
        monkeypatch.setattr(cip, "SUBSET_ORDER_CAP", 2)
        with pytest.raises(ParameterError, match="exceeds the cap"):
            make_estimator(scheme, [8.0], [3])


class TestStandardCertificate:
    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_is_positive_and_below_the_estimate(self, seed):
        inst = random_cip(seed)
        x = lp_point(inst)
        alpha, beta = choose_alpha_beta(column_sparsity(inst), float(inst.demands.min()))
        scheme = make_scheme(inst, x, alpha)
        lam = alpha * beta * float(inst.costs[0] @ x) - scheme.floor_costs[0]
        positive, closed, estimate = standard_certificate(scheme, [lam], [1])
        assert positive
        assert closed > 0.0
        assert closed <= estimate + 1e-12


class TestMulticriteriaParams:
    def test_subset_orders_follow_the_criterion_count(self):
        _, ks = multicriteria_params([10.0], 1, 2, 4.0)
        assert ks == [1]
        alpha, ks = multicriteria_params([40.0] * 20, 20, 2, 8.0)
        assert ks == [4] * 20
        assert alpha > 1.0

    def test_scaled_means_feed_a_positive_start_bound(self):
        values = [6.0, 7.0, 5.5, 6.5]
        alpha, ks = multicriteria_params(values, 4, 3, 6.0)
        k = ks[0]
        q = lower_tail_bound(6.0, alpha)
        total = sum(
            (alpha * y) ** k / math.factorial(k) / binomial_real(3.0 * alpha * y, k) * (1.0 - q) ** (-3 * k)
            for y in values
        )
        assert total < 1.0

    def test_warns_when_scaled_means_are_small(self):
        with pytest.warns(UserWarning, match="fall below"):
            multicriteria_params([0.5, 0.5], 2, 2, 1.0)

    def test_hopeless_family_raises(self):
        with pytest.raises(ParameterError, match="no scale factor up to 64x"):
            multicriteria_params([1e-6, 1e-6], 2, 3, 1.0)

    @staticmethod
    def outcome(params, *args):
        """(alpha's bits and ks, or the ParameterError's message; warnings)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                alpha, ks = params(*args)
                result = (type(alpha), alpha.hex(), ks)
            except ParameterError as exc:
                result = ("ParameterError", str(exc))
        return result, [(w.category, str(w.message)) for w in caught]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        values=st.integers(2, 5).flatmap(
            lambda n: st.lists(st.floats(0.5, 40.0), min_size=n, max_size=n)),
        a=st.integers(1, 8),
        min_demand=st.floats(1.0, 12.0),
    )
    @example(values=[0.5, 0.5], a=2, min_demand=1.0)  # warns
    @example(values=[1e-6, 1e-6], a=3, min_demand=1.0)  # no scale factor
    @example(values=[1.0, 0.0], a=2, min_demand=1.0)  # nonpositive objective
    def test_float_scan_matches_the_numpy_reference(self, values, a, min_demand):
        args = (values, len(values), a, min_demand)
        assert self.outcome(multicriteria_params, *args) == self.outcome(
            reference_multicriteria_params, *args)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="at least one criterion"):
            multicriteria_params([], 0, 2, 1.0)
        with pytest.raises(ValueError, match="expected 3"):
            multicriteria_params([1.0, 2.0], 3, 2, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            multicriteria_params([1.0, 0.0], 2, 2, 1.0)


class TestDerandomize:
    def tie_break_setup(self, lam):
        # Column 2 carries no coefficient and no cost, so fixing its bit
        # moves nothing: the loop must take the zero branch on ties.
        inst = CipInstance.create(
            [[1.0, 1.0, 0.0]], [1.0], [np.array([1.0, 1.0, 0.0])]
        )
        scheme = make_scheme(inst, [0.5, 0.5, 0.7], 2.5)
        assert scheme.satisfied[0]
        assert scheme.frac == pytest.approx([0.25, 0.25, 0.75])
        return make_estimator(scheme, [lam], [1])

    def test_integral_start_returns_after_one_evaluation(self):
        inst = CipInstance.create(np.eye(2), [1.0, 1.0], [np.ones(2)])
        scheme = make_scheme(inst, [1.0, 1.0], 2.0)
        state = make_estimator(scheme, [1.0], [1])
        out = derandomize(state)
        assert np.array_equal(out.z, [2.0, 2.0])
        assert out.certificate == pytest.approx(1.0)
        assert out.trace == (pytest.approx(1.0),)
        _, info = round_cip(inst, [1.0, 1.0], alpha=2.0, total_budgets=[5.0])
        assert info["lambdas"] == [1.0]
        assert info["evaluations"] == 1  # no bit to fix

    def test_fixing_order_values_and_tie_break(self):
        state = self.tie_break_setup(3.0)
        out = derandomize(state)
        assert np.array_equal(out.z, [1.0, 1.0, 1.0])
        assert out.certificate == pytest.approx(1.0)
        expected = (1 - 0.5 / 3, 1 - 0.25 / 3, 1.0, 1.0)
        assert out.trace == pytest.approx(expected)
        # floor cost 2, so a total budget of 5 leaves the increment budget 3
        _, info = round_cip(state.scheme.instance, [0.5, 0.5, 0.7], alpha=2.5,
                            total_budgets=[5.0])
        assert info["lambdas"] == [3.0]
        # the floors satisfy the row, so every leftover bit is free: one
        # upfront evaluation plus the 0-branch of each
        assert info["evaluations"] == 4

    def test_the_start_point_is_evaluated_once(self, monkeypatch):
        inst = random_cip(3, ell=2)
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst))
        state = make_estimator(scheme, lambdas, ks)
        evaluate = cip._evaluate
        points = []

        def counted(at):
            points.append(at.p)
            return evaluate(at)

        monkeypatch.setattr(cip, "_evaluate", counted)
        out = derandomize(state)
        assert len(out.trace) > 1
        assert len(points) == 1 and points[0] is state.p
        assert out.trace[0] == evaluate(state)[0]

    def test_a_drop_below_a_tiny_start_raises(self, monkeypatch):
        # Every bit of this cover branches and the estimator starts near
        # 1e-21, so only a check relative to the current value sees both
        # branches at half of it.
        inst = gen_set_cover(400, 720, 5, 2, 0)
        scheme, lambdas, ks, _ = choose_parameters(inst, np.full(inst.n, 0.7), alpha=1.4)
        state = make_estimator(scheme, lambdas, ks)
        assert 0.0 < success_lower_bound(state) < 1e-9
        branches = cip._FixingSums.branches
        monkeypatch.setattr(cip._FixingSums, "branches",
                            lambda sums, j: tuple(0.5 * v for v in branches(sums, j)))
        with pytest.raises(cip.EstimatorError, match="both branches dropped below the current "
                                                     "bound at bit 0: "):
            derandomize(state)

    def test_nonpositive_start_raises(self):
        state = self.tie_break_setup(0.4)
        with pytest.raises(ParameterError, match="start positive"):
            derandomize(state)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_round_feasibly_with_monotone_trace(self, seed):
        inst = random_cip(seed)
        x = lp_point(inst)
        out, info = round_cip(inst, x)
        assert out.feasible
        loads = inst.a_matrix @ out.z
        assert np.all(loads >= inst.demands - 1e-9)
        assert out.objective_values[0] <= info["total_budgets"][0] + 1e-9
        diffs = np.diff(out.trace)
        assert np.all(diffs >= -1e-9)
        scheme = make_scheme(inst, x, info["alpha"])
        random = scheme.frac > 0.0
        branched = int(np.count_nonzero(random & np.any(inst.a_matrix[~scheme.satisfied] > 0.0,
                                                        axis=0)))
        assert info["evaluations"] == 1 + 2 * branched + (int(random.sum()) - branched)

    @pytest.mark.parametrize(
        "inst,alpha",
        [
            (gen_set_cover(8, 16, 5, 2, 0), 2.0),
            (random_cip(1), 1.6),
            (two_cost_cover(), 2.0),
            (random_cip(2, ell=2), 1.6),
        ],
        ids=["set-cover", "single-cost", "two-cost-set-cover", "two-cost"],
    )
    def test_every_fixed_bit_keeps_row_bounds_monotone_concave_and_local(self, inst, alpha):
        # Replays derandomize's path bit by bit and checks, on the rows of
        # each fixed column, that the 1-branch bound never exceeds the
        # 0-branch bound and that the current bound is at least their mix;
        # on every other row, that a full recompute leaves it untouched.
        # The flat interior point keeps rows unsatisfied by the floors, so
        # the row bounds really move.
        x = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
        budgets = [4.0 * inst.n] * inst.n_criteria
        scheme, lambdas, ks, _ = choose_parameters(inst, x, alpha=alpha, total_budgets=budgets)
        state = make_estimator(scheme, lambdas, ks)
        out = derandomize(state)
        chosen = out.z - scheme.floor
        step = moving = 0
        for j in range(inst.n):
            pj = state.p[j]
            if pj in (0.0, 1.0):
                continue
            branches = []
            for bit in (0.0, 1.0):
                q = state.p.copy()
                q[j] = bit
                branches.append(state.at(q))
            zero, one = branches
            rows = col_rows(inst, j)
            assert np.all(one.chp[rows] <= zero.chp[rows] + 1e-12)
            mix = pj * one.chp[rows] + (1.0 - pj) * zero.chp[rows]
            assert np.all(state.chp[rows] >= mix - 1e-12)
            off = np.setdiff1d(np.arange(inst.m), rows)
            for branch in (zero, one):
                assert np.array_equal(_row_bounds(scheme, branch.p)[off], state.chp[off])
            moving += bool(np.any(zero.chp[rows] != one.chp[rows]))
            state = one if chosen[j] == 1.0 else zero
            step += 1
            assert success_lower_bound(state) == pytest.approx(out.trace[step], rel=1e-12, abs=0.0)
        assert step == len(out.trace) - 1
        assert np.array_equal(state.p, chosen)
        assert moving > 0


class TestEstimatorAt:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("moved", ["one column", "several columns", "all columns"])
    def test_cached_bounds_equal_a_full_recompute(self, seed, moved):
        ell = 1 + seed % 2
        inst = random_cip(seed, ell=ell)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        state = make_estimator(scheme, [float(inst.n)] * ell, [1] * ell)
        rng = np.random.default_rng(seed)
        size = {"one column": 1, "several columns": 2, "all columns": inst.n}[moved]
        cols = rng.choice(inst.n, size=size, replace=False)
        q = state.p.copy()
        q[cols] = rng.uniform(0.0, 1.0, size)
        there = state.at(q)
        assert np.array_equal(there.chp, _row_bounds(scheme, q))
        assert np.array_equal(there.at(scheme.frac).chp, state.chp)

    @pytest.mark.parametrize("seed", range(4))
    def test_value_and_row_bounds_are_path_independent(self, seed):
        inst = random_cip(seed, ell=2)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        lambdas, ks = [float(inst.n)] * 2, [2, 2]
        rng = np.random.default_rng(seed)
        p1, p2 = rng.uniform(0.0, 1.0, (2, inst.n))
        p1[rng.random(inst.n) < 0.3] = 0.0
        p2[rng.random(inst.n) < 0.3] = 0.0
        via = make_estimator(scheme, lambdas, ks).at(p1).at(p2)
        direct = make_estimator(scheme, lambdas, ks).at(p2)
        assert success_lower_bound(via) == success_lower_bound(direct)
        assert np.array_equal(via.chp, direct.chp)

    def test_leaves_the_original_state_and_the_callers_array_alone(self):
        inst = random_cip(2)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        state = make_estimator(scheme, [float(inst.n)], [1])
        before = state.chp.copy()
        q = np.zeros(inst.n)
        there = state.at(q)
        q[:] = 1.0
        assert np.array_equal(there.p, np.zeros(inst.n))
        assert np.array_equal(state.p, scheme.frac)
        assert np.array_equal(state.chp, before)
        assert state.at(scheme.frac) is state
        with pytest.raises(ValueError, match="read-only"):
            there.p[0] = 0.5
        with pytest.raises(ValueError, match="expected"):
            state.at(np.zeros(inst.n + 1))


class TestRoundCip:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_criterion_defaults(self, seed):
        inst = random_cip(seed + 20)
        x = lp_point(inst)
        out, info = round_cip(inst, x)
        assert set(info) == {
            "alpha", "beta", "ks", "lambdas", "total_budgets", "y_star", "evaluations",
        }
        assert info["ks"] == [1]
        y = info["y_star"][0]
        assert info["total_budgets"][0] == pytest.approx(info["alpha"] * info["beta"] * y)
        assert out.objective_values[0] <= info["alpha"] * info["beta"] * y + 1e-9

    def test_explicit_scale_overrides(self):
        inst = random_cip(5)
        x = lp_point(inst)
        out, info = round_cip(inst, x, alpha=1.9, beta=2.5)
        assert info["alpha"] == 1.9 and info["beta"] == 2.5
        assert out.feasible

    def test_two_criteria_caps_every_objective(self):
        a = np.ones((2, 12))
        rng = np.random.default_rng(8)
        costs = [rng.uniform(0.4, 1.0, 12), rng.uniform(0.4, 1.0, 12)]
        inst = CipInstance.create(a, [8.0, 8.0], costs)
        x = np.full(12, 8 / 12)
        out, info = round_cip(inst, x)
        assert info["ks"] == [2, 2]
        assert out.feasible
        for value, y in zip(out.objective_values, info["y_star"]):
            assert value <= 3.0 * info["alpha"] * y + 1e-9

    def test_beta_scales_the_multi_cost_budgets(self):
        inst = two_cost_cover()
        x = lp_point(inst)
        default, default_info = round_cip(inst, x)
        alpha, ys = default_info["alpha"], default_info["y_star"]
        assert default_info["beta"] == 3.0
        assert default_info["total_budgets"] == [3.0 * alpha * y for y in ys]
        three, three_info = round_cip(inst, x, beta=3.0)
        assert three_info == default_info
        assert three.z.tobytes() == default.z.tobytes() and three.trace == default.trace
        _, five_info = round_cip(inst, x, beta=5.0)
        assert five_info["alpha"] == alpha and five_info["beta"] == 5.0
        assert five_info["total_budgets"] == [5.0 * alpha * y for y in ys]

    @pytest.mark.parametrize("inst", [random_cip(5), two_cost_cover()], ids=["one", "two"])
    @pytest.mark.parametrize("kwargs, match", [
        ({"alpha": 1.0}, "alpha must be finite and above 1"),
        ({"alpha": math.nan}, "alpha must be finite and above 1"),
        ({"alpha": math.inf}, "alpha must be finite and above 1"),
        ({"beta": math.nan}, "beta must be finite"),
        ({"beta": -math.inf}, "beta must be finite"),
        ({"total_budgets": [math.nan, math.inf]}, "every total budget must be finite"),
    ])
    def test_out_of_range_or_non_finite_parameters_raise(self, inst, kwargs, match):
        if "total_budgets" in kwargs:
            kwargs = {"total_budgets": kwargs["total_budgets"][: inst.n_criteria]}
        with pytest.raises(ParameterError, match=match):
            choose_parameters(inst, lp_point(inst), **kwargs)

    def test_budget_below_floor_cost_raises(self):
        inst = CipInstance.create(np.eye(2), [2.0, 2.0], [np.ones(2)])
        with pytest.raises(ParameterError, match="below the floor cost"):
            round_cip(inst, [2.0, 2.0], alpha=1.2, beta=1.1, total_budgets=[1.0])

    def test_a_zero_budget_is_accepted_when_no_random_bit_costs(self):
        # column 2 covers both rows at cost 0, so y* = 0 and the default
        # budget is 0, as is the floor cost; column 2 stays random at cost 0
        inst = CipInstance.create([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 1.0],
                                  [np.array([1.0, 1.0, 0.0])])
        x = lp_point(inst)
        assert x.tolist() == [0.0, 0.0, 1.0]
        scheme, lambdas, ks, info = choose_parameters(inst, x)
        assert lambdas == [0.0] and info["total_budgets"] == [0.0] and scheme.frac[2] > 0.0
        state = make_estimator(scheme, lambdas, ks)
        # column 2 is free and weighs 0: the table is empty, and e_1 is 0
        assert state.budget.cols.shape[0] == 0
        assert state.budget.free_factors[0, 0].tolist() == [0.0, 1.0]
        assert success_lower_bound(state) == 1.0
        solution, _ = round_cip(inst, x)
        assert solution.objective_values == (0.0,)

    def test_a_zero_budget_is_rejected_when_a_random_bit_costs(self):
        inst = CipInstance.create([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 1.0], [np.ones(3)])
        scheme = make_scheme(inst, [0.0, 0.0, 1.0], 1.5)  # floor cost 1, column 2 random
        with pytest.raises(ParameterError, match="below the floor cost"):
            choose_parameters(inst, [0.0, 0.0, 1.0], alpha=1.5, total_budgets=[1.0])
        with pytest.raises(ParameterError, match="budget must be positive, got 0.0"):
            make_estimator(scheme, [0.0], [1])
        with pytest.raises(ParameterError, match="budget must be positive, got -0.5"):
            make_estimator(scheme, [-0.5], [1])


REFERENCE_CASES = {
    **{f"random-{seed}-ell{ell}": functools.partial(random_cip, seed, ell=ell)
       for ell in (1, 2, 3) for seed in (0, 1, 2, 34, 42)},
    "two-cost": two_cost_cover,
    **{f"four-cost-12x{n}-s{s}": functools.partial(four_cost_cover, n, s)
       for n, s in ((24, 0), (30, 1))},
    # 45 of its 200 rows stay unsatisfied at these parameters, interleaved
    # with satisfied ones, and 151 bits are random
    "set-cover-200x200": functools.partial(gen_set_cover, 200, 200, 5, 2, 0),
    # its free bits (columns that meet no unsatisfied row) come in runs
    # between bits whose columns do, under subset order 2
    "two-cost-set-cover-40x40": functools.partial(two_cost_set_cover, 40, 2),
}
# rounding parameters of the cases rounded at their LP vertex, when not the defaults
VERTEX_PARAMS = {"set-cover-200x200": dict(alpha=1.6, beta=3.0),
                 "two-cost-set-cover-40x40": dict(alpha=1.8, beta=3.0)}


class TestAgainstReference:
    def test_cases_include_empty_columns(self):
        for name in ("random-34-ell1", "random-42-ell3"):
            inst = REFERENCE_CASES[name]()
            assert any(col_rows(inst, j).size == 0 for j in range(inst.n))

    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("name", list(REFERENCE_CASES))
    def test_tables_and_fixing_path_match_the_reference(self, name):
        inst = REFERENCE_CASES[name]()
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst),
                                                   **VERTEX_PARAMS.get(name, {}))
        state = make_estimator(scheme, lambdas, ks)
        # the table holds the subsets of order 1 to k of the random bits that
        # meet an unsatisfied row, padded with n, each with its unsatisfied rows
        budget = state.budget
        unsatisfied = [np.searchsorted(scheme.unsatisfied,
                                       [i for i in col_rows(inst, j) if not scheme.satisfied[i]])
                       for j in range(inst.n)]
        branched = [j for j in range(inst.n) if scheme.frac[j] > 0.0 and unsatisfied[j].size]
        subsets = [c for i in range(1, max(ks) + 1) for c in itertools.combinations(branched, i)]
        assert budget.cols.tolist() == [list(c) + [inst.n] * (max(ks) - len(c)) for c in subsets]
        assert budget.one_hot.argmax(axis=1).tolist() == [len(c) for c in subsets]
        for s, c in enumerate(subsets):
            want = sorted(set(np.concatenate([unsatisfied[j] for j in c]).tolist()))
            assert budget.flat_rows[budget.owner == s].tolist() == want
        out = derandomize(state)
        z, trace = reference_derandomize(state)
        assert np.array_equal(out.z, z)
        assert out.trace == pytest.approx(trace, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("seed", [1, 2, 3, 6])
    def test_fixing_path_through_unsatisfied_rows_matches_the_reference(self, seed):
        # The reference cases above leave no row unsatisfied at their LP
        # vertex; a flat interior point does, so the row bounds move here.
        inst = random_cip(seed, ell=2)
        x = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
        scheme, lambdas, ks, _ = choose_parameters(inst, x, alpha=1.5,
                                                   total_budgets=[4.0 * inst.n] * 2)
        assert np.any(~scheme.satisfied)
        state = make_estimator(scheme, lambdas, ks)
        out = derandomize(state)
        z, trace = reference_derandomize(state)
        assert np.array_equal(out.z, z)
        assert out.trace == pytest.approx(trace, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("seed", range(3))
    def test_tables_enumerate_the_random_bits_only(self, seed):
        # every row is satisfied at the vertex, so every random bit is free:
        # the free factors hold them all, and the table holds no subset
        inst = four_cost_cover(75, seed)
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst))
        assert np.all(scheme.satisfied)
        budget = make_estimator(scheme, lambdas, ks).budget
        random = int(np.count_nonzero(scheme.frac > 0.0))
        assert random < inst.n
        assert budget.free_factors.shape == (random + 1, len(ks), max(ks) + 1)
        assert budget.cols.shape == (0, max(ks))

    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("name", ["random-34-ell2", "random-42-ell3", "two-cost",
                                      "four-cost-12x24-s0"])
    def test_a_point_outside_the_random_bits_matches_the_full_reference(self, name):
        inst = REFERENCE_CASES[name]()
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst))
        state = make_estimator(scheme, lambdas, ks)
        rng = np.random.default_rng(len(name))
        p = rng.uniform(0.0, 1.0, inst.n)
        p[rng.random(inst.n) < 0.2] = 0.0
        assert np.any((p > 0.0) & (scheme.frac == 0.0))
        there = state.at(p)
        branched = int(np.count_nonzero(there.budget.one_hot.argmax(axis=1) == 1))
        assert there.budget.free_factors.shape[0] - 1 + branched == np.count_nonzero(p > 0.0)
        assert there.budget.cols.shape[0] == sum(math.comb(branched, i)
                                                 for i in range(1, max(ks) + 1))
        want = reference_value(reference_terms(scheme, lambdas, ks), there.p, there.chp)
        assert success_lower_bound(there) == pytest.approx(want, rel=1e-12, abs=1e-12)


def fixing_steps(state):
    """Drive `_FixingSums` along `derandomize`'s path: per random bit j, the
    points of both branches, the running values of the branches priced and
    the bit kept.  As in `derandomize`, each run of consecutive free bits
    (columns that meet no unsatisfied row) is zeroed in one `zero_run`,
    which prices the 0-branches only; every other bit prices both."""
    scheme = state.scheme
    sums = cip._FixingSums(state)
    free = [not np.any(~scheme.satisfied[col_rows(scheme.instance, j)])
            for j in range(scheme.instance.n)]
    steps = []
    bits = np.flatnonzero((state.p > 0.0) & (state.p < 1.0)).tolist()
    for is_free, run in itertools.groupby(bits, key=free.__getitem__):
        run = list(run)
        p = sums.p.copy()
        zeroed = sums.zero_run(np.array(run)) if is_free else None
        for step, j in enumerate(run):
            points = []
            for bit in (0.0, 1.0):
                q = p.copy()
                q[j] = bit
                points.append(q)
            if is_free:
                values, bit = (zeroed[step],), 0.0
            else:
                values = sums.branches(j)
                bit = 1.0 if values[1] > values[0] else 0.0
                sums.keep(bit)
            p[j] = bit
            steps.append((j, points, values, bit))
    return steps


def dead_row_scheme():
    # Row 0 holds the random bits 1 (p = 0.75) and 2 (p = 0.05) above a
    # floor load of 1 and a demand of 1.3: its 0-branch at bit 1 leaves
    # too little mass, so the row's bound clamps at 1 while bit 2 keeps
    # the subsets holding the row weighted.  Row 1 stays unsatisfied, and
    # column 4 touches no row, so no subset of the third cost holds row 0.
    a = np.array([[1.0, 1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.5, 1.0, 0.0]])
    costs = [np.ones(5), np.array([0.5, 0.0, 2.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0, 1.0, 1.0])]
    inst = CipInstance.create(a, [1.3, 1.2], costs)
    return make_scheme(inst, [0.8, 0.6, 0.04, 1.2, 0.4], 1.25)


STEP_CASES = {
    **REFERENCE_CASES,
    **{f"flat-interior-s{seed}": functools.partial(random_cip, seed, ell=2)
       for seed in (1, 2, 3, 6)},
    "set-cover-400x720": functools.partial(gen_set_cover, 400, 720, 5, 2, 0),
}


class TestFixingSums:
    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("name", list(STEP_CASES))
    def test_every_step_equals_a_full_evaluation(self, name):
        # The flat interior covers keep rows unsatisfied, so their bounds
        # move; at x = 0.7 and scale 1.4 all 400 rows of the set cover do.
        inst = STEP_CASES[name]()
        if name.startswith("flat-interior"):
            x = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
            params = dict(alpha=1.5, total_budgets=[4.0 * inst.n] * 2)
        elif name == "set-cover-400x720":
            x, params = np.full(inst.n, 0.7), dict(alpha=1.4)
        else:
            x, params = lp_point(inst), VERTEX_PARAMS.get(name, {})
        scheme, lambdas, ks, _ = choose_parameters(inst, x, **params)
        if name == "set-cover-400x720":
            assert not np.any(scheme.satisfied)
        state = make_estimator(scheme, lambdas, ks)
        out = derandomize(state)
        steps = fixing_steps(state)
        assert len(out.trace) == len(steps) + 1
        # the running sums start from the evaluation that also prices a
        # state, so every value is checked against the reference as well
        terms = reference_terms(scheme, lambdas, ks)
        assert out.trace[0] == pytest.approx(reference_value(terms, state.p, state.chp),
                                             rel=1e-12, abs=0.0)
        for (j, points, values, bit), kept in zip(steps, out.trace[1:], strict=True):
            for q, value in zip(points, values):
                there = state.at(q)
                full = success_lower_bound(there), reference_value(terms, q, there.chp)
                if value == -math.inf:
                    # a branch that kills a row: never kept, as its value is at most 0
                    assert max(full) <= 0.0
                    continue
                assert value == pytest.approx(full[0], rel=1e-12, abs=0.0)
                assert value == pytest.approx(full[1], rel=1e-12, abs=0.0)
            if len(values) == 1:
                # a zeroed free bit: its 1-branch is never above its 0-branch
                assert success_lower_bound(state.at(points[1])) <= values[0] * (1.0 + 1e-12)
            assert kept == values[int(bit)]
        assert np.array_equal(points[int(bit)], out.z - scheme.floor)

    def test_free_runs_interleave_with_branched_bits_at_order_two(self):
        # Keeps the two-cost 40x40 reference case on both sides of the
        # split; the tests above check its path against the reference.
        name = "two-cost-set-cover-40x40"
        inst = REFERENCE_CASES[name]()
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst), **VERTEX_PARAMS[name])
        assert list(ks) == [2, 2]
        steps = fixing_steps(make_estimator(scheme, lambdas, ks))
        runs = [(is_free, len(list(run)))
                for is_free, run in itertools.groupby(steps, key=lambda step: len(step[2]) == 1)]
        assert sum(is_free for is_free, _ in runs) >= 3
        assert sum(not is_free for is_free, _ in runs) >= 3
        assert any(is_free and length >= 2 for is_free, length in runs)

    @pytest.mark.filterwarnings("ignore:scaled means fall below:UserWarning")
    @pytest.mark.parametrize("name", ["random-34-ell1", "four-cost-12x24-s0"])
    def test_floors_that_satisfy_every_row_leave_no_bit_to_branch(self, name, monkeypatch):
        inst = REFERENCE_CASES[name]()
        scheme, lambdas, ks, _ = choose_parameters(inst, lp_point(inst))
        assert np.all(scheme.satisfied)
        calls = []
        branches = cip._FixingSums.branches

        def counted(sums, j):
            calls.append(j)
            return branches(sums, j)

        monkeypatch.setattr(cip._FixingSums, "branches", counted)
        out = derandomize(make_estimator(scheme, lambdas, ks))
        assert len(out.trace) == np.count_nonzero(scheme.frac) + 1 > 1
        assert calls == []

    def test_a_branch_that_kills_a_row(self):
        scheme = dead_row_scheme()
        assert scheme.frac == pytest.approx([0.0, 0.75, 0.05, 0.5, 0.5])
        assert not np.any(scheme.satisfied)
        lambdas, ks = [20.0, 20.0, 20.0], [1, 2, 1]
        state = make_estimator(scheme, lambdas, ks)
        terms = random_subsets(reference_terms(scheme, lambdas, ks), scheme.frac)
        dead = 0
        for j, points, values, bit in fixing_steps(state):
            for q, value in zip(points, values):
                bounds = reference_row_bounds(scheme, q)
                want = reference_value(terms, q, bounds)
                if np.any(bounds >= 1.0 - cip.NEAR_ONE_GUARD):
                    # priced -inf, as its exact value is at most 0 and it is never kept
                    dead += 1
                    assert value == -math.inf
                    assert want <= 0.0 and evaluate_at(state, q) <= 0.0
                    continue
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
                assert value == pytest.approx(evaluate_at(state, q), rel=1e-12, abs=0.0)
            if j == 1:
                (q, _), (phi_zero, _) = points, values
                assert state.at(q).chp[0] == 1.0 and phi_zero == -math.inf
                assert bit == 1.0
        assert dead >= 1
        out = derandomize(state)
        z, trace = reference_derandomize(state)
        assert np.array_equal(out.z, z)
        assert out.trace == pytest.approx(trace, rel=1e-12, abs=0.0)
