"""Numeric-kernel checks: closed forms, the deviation solver's contract, and
tail domination against exhaustive reference computations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lllround import (
    binomial_real,
    deviation_for_budget,
    elementary_symmetric,
    lower_tail_bound,
    upper_tail_bound,
)
from lllround.tailbounds import GRID_ANCHOR, GRID_RATIO
from _reference_estimator import esym_mean_bound
from _reference_mip import reference_deviation_for_budget

# Frozen by exact rational enumeration: sum_{j=15..20} C(20,j) / 2^20.
EXACT_BINOMIAL_20_HALF_TAIL_AT_15 = 5425 / 262144
# Frozen by exact 2^10 enumeration over ten independent Bernoulli(0.3) bits:
# E[S_2] = 81/20.
EXACT_MEAN_S2_TEN_BERNOULLI_03 = 81 / 20


def count_distribution(probs):
    """Distribution of the number of ones among independent bits, built by
    direct convolution.  This is the reference for every tail comparison."""
    dist = np.array([1.0])
    for p in probs:
        nxt = np.zeros(dist.size + 1)
        nxt[:-1] += dist * (1.0 - p)
        nxt[1:] += dist * p
        dist = nxt
    return dist


def exact_upper_tail(probs, threshold):
    dist = count_distribution(probs)
    return float(dist[np.arange(dist.size) >= threshold - 1e-12].sum())


def mean_symmetric_moment(probs, k):
    """E[S_k] over independent bits, by explicit subset enumeration."""
    probs = list(probs)
    return math.fsum(
        math.prod(probs[j] for j in subset)
        for subset in itertools.combinations(range(len(probs)), k)
    )


class TestUpperTailBound:
    def test_unit_mean_unit_deviation(self):
        assert upper_tail_bound(1.0, 1.0) == pytest.approx(math.e / 4.0, abs=1e-12)

    def test_zero_deviation_is_one(self):
        assert upper_tail_bound(5.0, 0.0) == 1.0

    def test_matches_direct_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu = float(rng.uniform(0.0, 30.0))
            delta = float(rng.uniform(0.0, 10.0))
            direct = (math.exp(delta) / (1.0 + delta) ** (1.0 + delta)) ** mu
            assert abs(upper_tail_bound(mu, delta) - min(direct, 1.0)) <= 1e-12

    def test_dominates_exact_binomial_tail(self):
        # twenty fair bits, threshold 15 = mean 10 inflated by half
        assert EXACT_BINOMIAL_20_HALF_TAIL_AT_15 <= upper_tail_bound(10.0, 0.5)
        probs = [0.5] * 20
        assert exact_upper_tail(probs, 15.0) == pytest.approx(
            EXACT_BINOMIAL_20_HALF_TAIL_AT_15, abs=1e-14
        )

    def test_nonincreasing_in_deviation(self):
        deltas = np.linspace(0.0, 8.0, 60)
        for mu in (0.5, 2.0, 17.0):
            values = [upper_tail_bound(mu, d) for d in deltas]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_mean(self):
        mus = np.linspace(0.1, 40.0, 60)
        for delta in (0.25, 1.0, 3.0):
            values = [upper_tail_bound(m, delta) for m in mus]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_mean_rescaling_inequality(self):
        # moving a deviation from a larger mean to a smaller one (with the
        # threshold held fixed) never loosens the bound
        rng = np.random.default_rng(5)
        for _ in range(300):
            mu2 = float(rng.uniform(0.5, 30.0))
            mu1 = float(rng.uniform(0.05, 1.0)) * mu2
            delta = float(rng.uniform(0.01, 5.0))
            lhs = upper_tail_bound(mu1, mu2 * delta / mu1)
            rhs = upper_tail_bound(mu2, delta)
            assert lhs <= rhs + 1e-12

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            upper_tail_bound(-1.0, 0.5)
        with pytest.raises(ValueError):
            upper_tail_bound(1.0, -0.5)

    @given(
        mu=st.floats(min_value=0.0, max_value=1e3),
        delta=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(deadline=None)
    def test_always_a_probability(self, mu, delta):
        value = upper_tail_bound(mu, delta)
        assert 0.0 <= value <= 1.0


def _budget_holds(mu, delta, p):
    return math.ceil(mu * delta) * upper_tail_bound(mu, delta) <= p


class TestDeviationForBudget:
    def test_resatisfies_defining_inequality(self):
        delta = deviation_for_budget(1.0, 0.5)
        assert _budget_holds(1.0, delta, 0.5)

    def test_resatisfies_on_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mu = float(rng.uniform(0.05, 300.0))
            p = float(rng.uniform(1e-6, 0.9))
            delta = deviation_for_budget(mu, p)
            assert delta > 0.0
            assert _budget_holds(mu, delta, p)

    def test_large_mean_stays_in_sqrt_regime(self):
        # loose sanity envelope: ten times the sqrt(log/mean) scale
        delta = deviation_for_budget(100.0, 0.01)
        assert delta < 1.0
        assert delta <= 10.0 * math.sqrt(math.log(200.0) / 100.0)

    def test_smaller_budget_needs_more_deviation(self):
        for mu in (1.0, 10.0, 100.0):
            assert deviation_for_budget(mu, 0.01) >= deviation_for_budget(mu, 0.1)

    def test_rejects_bad_domains(self):
        with pytest.raises(ValueError):
            deviation_for_budget(0.0, 0.5)
        with pytest.raises(ValueError):
            deviation_for_budget(1.0, 0.0)
        with pytest.raises(ValueError):
            deviation_for_budget(1.0, 1.0)

    @pytest.mark.parametrize("mu", [1e-13, 1e-14, 1e-100, 1e-300])
    def test_tiny_means_double_until_the_bound_meets_the_budget(self, mu):
        budget = 1.0 / (2.0 * math.e)
        delta = deviation_for_budget(mu, budget)
        assert _budget_holds(mu, delta, budget)
        assert delta == reference_deviation_for_budget(mu, budget)

    @pytest.mark.parametrize("mu", [1e-307, 1e-316])
    def test_a_deviation_past_the_float_range_raises(self, mu):
        with pytest.raises(OverflowError, match="within the float range meets budget"):
            deviation_for_budget(mu, 1.0 / math.e)
        with pytest.raises(OverflowError):
            reference_deviation_for_budget(mu, 1.0 / math.e)

    @given(
        mu=st.floats(min_value=0.01, max_value=500.0),
        p=st.floats(min_value=1e-6, max_value=0.99),
    )
    @settings(deadline=None, max_examples=60)
    def test_contract_holds_everywhere(self, mu, p):
        delta = deviation_for_budget(mu, p)
        assert _budget_holds(mu, delta, p)


_MEANS = st.floats(min_value=1e-3, max_value=1e3)
# the mip slack's 1/(e*t), the sparsity target's 1/a, budgets near 1, and
# budgets below 1e-6
_BUDGETS = st.one_of(
    st.integers(1, 10_000).map(lambda t: 1.0 / (math.e * t)),
    st.integers(2, 10_000).map(lambda a: 1.0 / a),
    st.floats(min_value=0.9, max_value=1.0 - 1e-15, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1e-6),
)


def _grid(index):
    return GRID_ANCHOR * GRID_RATIO**index


def _nudged(value, ulps):
    """value moved by one ulp up (1) or down (-1), or kept (0)."""
    return float(np.nextafter(value, math.inf * ulps)) if ulps else value


class TestDeviationMatchesTheScalarSearch:
    """The search returns the reference scan's grid point, bit for bit,
    including where its test sits on a rounding margin."""

    @given(mu=_MEANS, budget=_BUDGETS)
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_same_grid_point(self, mu, budget):
        assert deviation_for_budget(mu, budget) == reference_deviation_for_budget(mu, budget)

    @given(
        point=st.integers(6_912, 14_000).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(1, min(60, int(1e3 * _grid(i)))))),
        budget=st.one_of(_BUDGETS, st.sampled_from([-1, 0, 1])),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_mean_times_a_grid_point_on_an_integer(self, point, budget):
        # mu * delta lands on (or within an ulp of) the integer q at that
        # grid point; an integral `budget` nudges the bound's value there
        index, q = point
        mu = q / _grid(index)
        if isinstance(budget, int):
            budget = _nudged(math.ceil(mu * _grid(index)) * upper_tail_bound(mu, _grid(index)), budget)
            assume(0.0 < budget < 1.0)
        assert deviation_for_budget(mu, budget) == reference_deviation_for_budget(mu, budget)

    @given(mu=_MEANS, index=st.integers(0, 14_000), nudge=st.sampled_from([-1, 0, 1]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_budget_on_the_value_at_a_grid_point(self, mu, index, nudge):
        budget = _nudged(math.ceil(mu * _grid(index)) * upper_tail_bound(mu, _grid(index)), nudge)
        assume(0.0 < budget < 1.0)
        assert deviation_for_budget(mu, budget) == reference_deviation_for_budget(mu, budget)

    def test_grid_points_where_numpy_rounds_otherwise(self):
        # where numpy's power misses Python's by an ulp, mu * delta can land
        # on an integer in one and just past it in the other; the budget is
        # the scalar value there, so that ceil decides the grid point
        indices = np.arange(6_912, 14_000)
        python = np.array([_grid(i) for i in indices.tolist()])
        differ = GRID_ANCHOR * GRID_RATIO**indices != python
        cases = 0
        for delta in python[differ].tolist():
            for q in (1, 2, 3, 5, 8):
                mu = q / delta
                budget = math.ceil(mu * delta) * upper_tail_bound(mu, delta)
                if 1e-3 <= mu <= 1e3 and budget < 1.0:
                    cases += 1
                    assert deviation_for_budget(mu, budget) == reference_deviation_for_budget(mu, budget)
        assert cases or not differ.any()

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_means(self, mu):
        with pytest.raises(ValueError, match=f"positive and finite, got {mu}"):
            deviation_for_budget(mu, 0.1)


class TestLowerTailBound:
    def test_no_scale_up_no_decay(self):
        assert lower_tail_bound(1.0, 1.0) == 1.0

    def test_single_demand_double_scale(self):
        assert lower_tail_bound(1.0, 2.0) == pytest.approx(2.0 / math.e, abs=1e-12)

    def test_power_law_in_demand(self):
        value = lower_tail_bound(3.0, 2.0)
        assert value == pytest.approx((2.0 / math.e) ** 3, abs=1e-12)
        assert value <= math.exp(-0.75)

    def test_quadratic_envelope(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = float(rng.uniform(1.0, 20.0))
            alpha = float(rng.uniform(1.0, 8.0))
            assert lower_tail_bound(b, alpha) <= math.exp(
                -b * (alpha - 1.0) ** 2 / (2.0 * alpha)
            ) + 1e-12

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            lower_tail_bound(2.0, 0.99)


class TestBinomialReal:
    def test_real_argument(self):
        assert binomial_real(3.5, 2) == pytest.approx(4.375, abs=1e-12)

    def test_order_zero_is_one(self):
        assert binomial_real(7.0, 0) == 1.0

    def test_integer_consistency(self):
        assert binomial_real(5.0, 3) == pytest.approx(10.0, abs=1e-12)

    @given(x=st.integers(min_value=0, max_value=25), r=st.integers(min_value=0, max_value=25))
    def test_matches_integer_binomial(self, x, r):
        expected = math.comb(x, r) if r <= x else 0.0
        assert binomial_real(float(x), r) == pytest.approx(float(expected), rel=1e-12, abs=1e-12)

    def test_signed_below_the_falling_range(self):
        # documented behavior: x < r-1 can go negative or vanish
        assert binomial_real(1.0, 3) == 0.0
        assert binomial_real(0.5, 2) == pytest.approx(-0.125, abs=1e-15)


class TestElementarySymmetric:
    def test_hand_enumeration(self):
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=1e-12)

    def test_order_zero(self):
        assert elementary_symmetric([4.0, 5.0], 0) == 1.0

    def test_identical_values(self):
        # frozen subset-enumeration oracle: C(10,3) * 0.5^3 = 15
        assert elementary_symmetric([0.5] * 10, 3) == pytest.approx(15.0, abs=1e-12)

    def test_order_above_length_is_zero(self):
        assert elementary_symmetric([1.0, 2.0], 3) == 0.0
        assert elementary_symmetric([], 1) == 0.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            elementary_symmetric([1.0, 2.0], -1)

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_subset_enumeration(self, values, data):
        k = data.draw(st.integers(min_value=0, max_value=len(values)))
        expected = mean_symmetric_moment(values, k)
        assert elementary_symmetric(values, k) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestEsymMeanBound:
    def test_direct_evaluation(self):
        assert esym_mean_bound(4, 2.0, 2) == pytest.approx(1.5, abs=1e-12)

    def test_zero_mean(self):
        assert esym_mean_bound(10, 0.0, 1) == 0.0

    def test_dominates_exact_expectation(self):
        # ten Bernoulli(0.3) bits: the exact second moment equals the bound
        # (equal marginals are the tight case)
        bound = esym_mean_bound(10, 3.0, 2)
        assert EXACT_MEAN_S2_TEN_BERNOULLI_03 <= bound + 1e-12
        assert bound == pytest.approx(4.05, abs=1e-12)
        assert mean_symmetric_moment([0.3] * 10, 2) == pytest.approx(
            EXACT_MEAN_S2_TEN_BERNOULLI_03, abs=1e-12
        )

    def test_rejects_mean_above_count(self):
        with pytest.raises(ValueError):
            esym_mean_bound(4, 5.0, 2)

    def test_dominates_unequal_marginals(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            probs = rng.uniform(0.0, 1.0, n)
            k = int(rng.integers(1, n + 1))
            exact = mean_symmetric_moment(probs, k)
            assert exact <= esym_mean_bound(n, float(probs.sum()), k) + 1e-12


class TestTailDominationChain:
    """Exact tail <= symmetric-moment bound <= multiplicative kernel, checked
    end to end on exhaustively computable setups."""

    def test_chain_on_random_setups(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            n = int(rng.integers(8, 16))
            probs = rng.uniform(0.15, 0.5, n)
            mu = float(probs.sum())
            delta = float(rng.uniform(0.2, 1.0))
            threshold = mu * (1.0 + delta)
            k = math.ceil(mu * delta)
            assert 1 <= k <= n
            exact_tail = exact_upper_tail(probs, threshold)
            moment = mean_symmetric_moment(probs, k) / binomial_real(threshold, k)
            kernel = upper_tail_bound(mu, delta)
            assert exact_tail <= moment + 1e-9
            assert moment <= kernel + 1e-9

    def test_enumerated_tail_below_kernel(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(5, 21))
            probs = rng.uniform(0.05, 0.95, n)
            mu = float(probs.sum())
            delta = float(rng.uniform(0.05, 2.0))
            exact_tail = exact_upper_tail(probs, mu * (1.0 + delta))
            assert exact_tail <= upper_tail_bound(mu, delta) + 1e-12
