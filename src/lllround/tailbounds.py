"""Tail-probability kernels and symmetric-polynomial estimators.

Everything here is a small closed form over nonnegative reals, except
`slack_for_budget`, an exact integer search over one.  The two
probability-like kernels (`upper_tail_bound`, `lower_tail_bound`) are
evaluated in log space and exponentiated at the boundary so they stay
finite and inside [0, 1] for large means and aggressive scale factors.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "upper_tail_bound",
    "slack_for_budget",
    "lower_tail_bound",
    "binomial_real",
    "elementary_symmetric",
]


def upper_tail_bound(mu: float, delta: float) -> float:
    """Bound on Pr(X >= mu*(1+delta)) for a sum X of independent [0,1]
    variables with E[X] <= mu.

    Evaluates exp(mu * (delta - (1+delta)*log(1+delta))), clamped to [0, 1].
    The exponent is nonpositive for every delta >= 0, so the clamp only
    guards floating-point round-off near delta = 0.
    """
    if mu < 0.0:
        raise ValueError(f"mean must be nonnegative, got {mu}")
    if delta < 0.0:
        raise ValueError(f"relative deviation must be nonnegative, got {delta}")
    exponent = mu * (delta - (1.0 + delta) * math.log1p(delta))
    return math.exp(min(exponent, 0.0))


def slack_for_budget(mu: float, budget: float) -> int:
    """Least integer k >= 1 with log k + k - (mu + k) * log1p(k/mu) <=
    log(budget), the log form of k * upper_tail_bound(mu, k/mu) <= budget.

    The search evaluates exactly that float predicate, so the k it returns
    meets it and k - 1 misses it (or k is 1); the direct product form can
    disagree with it by rounding.  The exponent k - (mu + k) * log1p(k/mu)
    stays finite, or goes to -inf where k/mu overflows for a subnormal mu,
    so no k overflows.  log g(k) has derivative 1/k - log1p(k/mu), which
    falls as k grows, so log g is strictly concave and its sublevel sets
    are the complement of an interval.  Once k = 1 misses the budget, the
    k that meet it are therefore upward-closed: doubling brackets the least
    one, and bisection over Python ints finds it exactly.  Past means of
    about 1e16 the exponent cancels badly, and the float predicate's least
    k drifts from the real one (by about 1% at 1e30).
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mean must be positive and finite, got {mu}")
    if not 0.0 < budget < 1.0:
        raise ValueError(f"budget must lie in (0, 1), got {budget}")
    log_budget = math.log(budget)

    def meets(k: int) -> bool:
        return math.log(k) + k - (mu + k) * math.log1p(k / mu) <= log_budget

    low, high = 0, 1  # low misses the budget, or is 0; high meets it
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if meets(mid) else (mid, high)
    return high


def lower_tail_bound(min_demand: float, alpha: float) -> float:
    """Bound (alpha * e^{-(alpha-1)})^B on any single row of a covering
    system, scaled up by alpha, missing its demand; B is the smallest demand.

    Computed as exp(B * (log(alpha) - (alpha - 1))), clamped to [0, 1]; the
    exponent is nonpositive for alpha >= 1.  Also dominated by
    exp(-B * (alpha-1)^2 / (2*alpha)).
    """
    if min_demand < 1.0:
        raise ValueError(f"demand must be at least 1, got {min_demand}")
    if alpha < 1.0:
        raise ValueError(f"scale factor must be at least 1, got {alpha}")
    exponent = min_demand * (math.log(alpha) - (alpha - 1.0))
    return math.exp(min(exponent, 0.0))


def binomial_real(x: float, r: int) -> float:
    """Binomial coefficient x(x-1)...(x-r+1) / r! for real x, integer r >= 0.

    May be negative when x < r - 1; callers needing positivity must ensure
    x > r - 1 themselves.
    """
    if r < 0:
        raise ValueError(f"order must be nonnegative, got {r}")
    result = 1.0
    for i in range(r):
        result *= (x - i) / (i + 1)
    return result


def elementary_symmetric(values: Sequence[float], k: int) -> float:
    """k-th elementary symmetric polynomial of nonnegative values; 0 when
    there are fewer than k values.

    One-pass prefix recurrence, O(n*k) time, O(k) space.
    """
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    prefix = [0.0] * (k + 1)
    prefix[0] = 1.0
    for value in values:
        if value < 0.0:
            raise ValueError(f"values must be nonnegative, got {value}")
        for j in range(k, 0, -1):
            prefix[j] += value * prefix[j - 1]
    return prefix[k]
