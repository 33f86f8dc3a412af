"""Numeric-kernel checks: closed forms, the slack search's contract, and
tail domination against exhaustive reference computations."""

import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lllround import (
    binomial_real,
    elementary_symmetric,
    lower_tail_bound,
    slack_for_budget,
    upper_tail_bound,
)
from _reference_estimator import esym_mean_bound
from _reference_mip import reference_slack_for_budget

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


def _log_value(mu, k):
    """log(k * upper_tail_bound(mu, k/mu)) in the form `slack_for_budget`
    states and evaluates it."""
    return math.log(k) + k - (mu + k) * math.log1p(k / mu)


def _budget_holds(mu, k, p):
    return _log_value(mu, k) <= math.log(p)


def _is_least(mu, k, p):
    """k meets the budget p and k - 1 misses it, or k is 1."""
    return _budget_holds(mu, k, p) and (k == 1 or not _budget_holds(mu, k - 1, p))


def _exact_least_slack(mu, budget):
    """The least k of the same inequality in 60-digit decimal arithmetic,
    found by doubling and bisection as the log of k * bound is concave."""
    ctx = decimal.Context(prec=60)
    mean, log_budget = decimal.Decimal(mu), ctx.ln(decimal.Decimal(budget))

    def meets(k):
        k = decimal.Decimal(k)
        return ctx.ln(k) + k - ctx.multiply(mean + k, ctx.ln(1 + ctx.divide(k, mean))) <= log_budget

    low, high = 0, 1
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid, high)
    return high


# the pipeline's (mu, budget) pairs: budgets 1/(e t) for the widths the
# minimax workload meets, and 1/a for its sparsity target
PIPELINE_KEYS = [(mu, budget) for mu in (0.3, 1.0, 2.0, 2.0000000000000004, 7.5, 40.0)
                 for budget in [1.0 / (math.e * t) for t in (1, 3, 8)] + [0.25, 0.5]]


class TestSlackForBudget:
    def test_resatisfies_defining_inequality(self):
        k = slack_for_budget(1.0, 0.5)
        assert type(k) is int and _is_least(1.0, k, 0.5)

    def test_is_the_least_integer_meeting_the_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mu = float(rng.uniform(0.05, 300.0))
            p = float(rng.uniform(1e-6, 0.9))
            assert _is_least(mu, slack_for_budget(mu, p), p)

    def test_large_mean_stays_in_sqrt_regime(self):
        # loose sanity envelope: ten times the sqrt(log/mean) scale
        delta = slack_for_budget(100.0, 0.01) / 100.0
        assert delta < 1.0
        assert delta <= 10.0 * math.sqrt(math.log(200.0) / 100.0)

    def test_smaller_budget_needs_more_slack(self):
        for mu in (1.0, 10.0, 100.0):
            assert slack_for_budget(mu, 0.01) >= slack_for_budget(mu, 0.1)

    @pytest.mark.parametrize("mu, budget", [
        (0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5),
        (1.0, 0.0), (1.0, 1.0)])
    def test_rejects_bad_domains(self, mu, budget):
        with pytest.raises(ValueError, match="mean must be positive|budget must lie"):
            slack_for_budget(mu, budget)

    @pytest.mark.parametrize("mu", [1e-13, 1e-100, 1e-300, 1e-307, 1e-316, 1e-320, 5e-324])
    def test_tiny_means_take_slack_1(self, mu):
        # k/mu overflows to inf below about 1e-308, and the exponent goes to -inf
        for budget in (1.0 / math.e, 1.0 / (2.0 * math.e), 1.0 / (4096 * math.e)):
            assert slack_for_budget(mu, budget) == 1

    @pytest.mark.parametrize("mu", [1e37, 1e100, 1.7976931348623157e308])
    def test_huge_means_search_past_the_machine_word(self, mu):
        # the doubling bracket passes 2**63 here, and the bisection runs on
        # Python ints
        k = slack_for_budget(mu, 1.0 / math.e)
        assert k > 2**63 and _is_least(mu, k, 1.0 / math.e)

    @pytest.mark.parametrize("mu", [1e-300, 1e-3, 0.3, 40.0, 1e4, 1e8, 1e12, 1e15])
    def test_matches_exact_arithmetic_below_1e16(self, mu):
        # the float predicate's least k is the real one up to means of 1e15;
        # past about 1e16 the exponent's cancellation moves it
        for budget in (1.0 / math.e, 1.0 / (4096 * math.e), 1.0 / 64, 1e-300, 0.999):
            assert slack_for_budget(mu, budget) == _exact_least_slack(mu, budget)

    @pytest.mark.parametrize("mu, budget", PIPELINE_KEYS)
    def test_pipeline_keys_match_the_linear_scan(self, mu, budget):
        assert slack_for_budget(mu, budget) == reference_slack_for_budget(mu, budget)

    @given(
        mu=st.floats(min_value=0.01, max_value=500.0),
        p=st.floats(min_value=1e-6, max_value=0.99),
    )
    @settings(deadline=None, max_examples=60)
    def test_contract_holds_everywhere(self, mu, p):
        assert _is_least(mu, slack_for_budget(mu, p), p)

    @given(
        mu=st.floats(min_value=0.01, max_value=500.0),
        p=st.floats(min_value=1e-6, max_value=0.99),
    )
    @settings(deadline=None, max_examples=60)
    def test_product_form_agrees_up_to_rounding(self, mu, p):
        # cross-check against the kernel itself: k * bound(mu, k/mu) rounds
        # otherwise than the log form, so it agrees to a relative 1e-12
        k = slack_for_budget(mu, p)
        assert k * upper_tail_bound(mu, k / mu) <= p * (1.0 + 1e-12)
        assert k == 1 or (k - 1) * upper_tail_bound(mu, (k - 1) / mu) > p * (1.0 - 1e-12)


# means from subnormal to 1e6, spread evenly in the exponent too
_MEANS = st.one_of(st.floats(min_value=1e-320, max_value=1e6),
                   st.floats(min_value=-320.0, max_value=6.0).map(lambda e: 10.0**e))
# the mip slack's 1/(e*t) and the sparsity target's 1/a at the widths and
# sparsities the pipeline meets and well past them, budgets near 1, and
# budgets below 1e-6
_BUDGETS = st.one_of(
    st.integers(1, 4096).map(lambda t: 1.0 / (math.e * t)),
    st.integers(2, 64).map(lambda a: 1.0 / a),
    st.integers(1, 10_000).map(lambda t: 1.0 / (math.e * t)),
    st.integers(2, 10_000).map(lambda a: 1.0 / a),
    st.floats(min_value=0.9, max_value=1.0 - 1e-15, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1e-6),
)


def _nudged(value, ulps):
    """value moved by one ulp up (1) or down (-1), or kept (0)."""
    return float(np.nextafter(value, math.inf * ulps)) if ulps else value


class TestSlackMatchesTheLinearScan:
    """Doubling and bisection return the linear scan's k, including where
    the budget sits on the value at some k."""

    @given(mu=_MEANS, budget=_BUDGETS)
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_same_slack(self, mu, budget):
        assert slack_for_budget(mu, budget) == reference_slack_for_budget(mu, budget)

    @given(mu=st.floats(min_value=1e-3, max_value=1e6), k=st.integers(1, 2_000),
           nudge=st.sampled_from([-1, 0, 1]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_budget_on_the_value_at_an_integer(self, mu, k, nudge):
        budget = _nudged(math.exp(_log_value(mu, k)), nudge)
        assume(0.0 < budget < 1.0)
        assert slack_for_budget(mu, budget) == reference_slack_for_budget(mu, budget)

    @pytest.mark.parametrize("mu", [1e-3, 0.5, 2.0, 40.0, 1e3, 1e6])
    def test_log_bound_keeps_falling_once_it_falls(self, mu):
        # log g(k) = log k + k - (mu + k) log1p(k/mu) is strictly concave, so
        # the k meeting a budget below g(1) are upward-closed; the computed
        # values keep that shape past the peak, which lies near sqrt(mu)
        logs = [_log_value(mu, k) for k in range(1, 6_000)]
        steps = np.diff(logs)
        falling = np.flatnonzero(steps < 0.0)
        assert falling.size and np.all(steps[falling[0]:] < 0.0)


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
