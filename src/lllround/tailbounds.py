"""Tail-probability kernels and symmetric-polynomial estimators.

Everything here is a small closed form over nonnegative reals.  The two
probability-like kernels (`upper_tail_bound`, `lower_tail_bound`) are
evaluated in log space and exponentiated at the boundary so they stay
finite and inside [0, 1] for large means and aggressive scale factors.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

__all__ = [
    "upper_tail_bound",
    "deviation_for_budget",
    "lower_tail_bound",
    "binomial_real",
    "elementary_symmetric",
]

#: Anchor and ratio of the geometric grid searched by `deviation_for_budget`.
GRID_ANCHOR = 1e-6
GRID_RATIO = 1.001

# GRID_RATIO**_DOUBLING_STEPS is the first grid power >= 2, so advancing the
# grid index by this amount (at least) doubles the candidate deviation.
_DOUBLING_STEPS = math.ceil(math.log(2.0) / math.log(GRID_RATIO))


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


def _grid(index: int) -> float:
    return GRID_ANCHOR * GRID_RATIO**index


def _inside(mu: float, budget: float, delta: float) -> bool:
    return math.ceil(mu * delta) * upper_tail_bound(mu, delta) <= budget


@functools.lru_cache(maxsize=1024)  # bounded: mu is a continuous y*
def deviation_for_budget(mu: float, budget: float) -> float:
    """Smallest grid deviation delta with ceil(mu*delta) * bound <= budget.

    The candidate deviations form a geometric grid anchored at 1e-6 with
    ratio 1.001.  Probes at every 694th grid index (each doubles the
    deviation) bracket the answer, and the first grid point of the final
    bracket that satisfies the inequality is returned; the ceil factor makes
    the predicate non-monotone at integer boundaries, so a point below the
    bracket may satisfy it too.  The bound decays to 0, so the probes go on
    until one meets the budget; OverflowError if the next grid point would
    pass the float range first, as it does for means from about 1e-317 to
    1e-304 (below them mu*delta rounds to 0, which meets any budget).
    Results are memoized per (mu, budget) in a bounded LRU cache; invalid
    arguments raise on every call.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mean must be positive and finite, got {mu}")
    if not 0.0 < budget < 1.0:
        raise ValueError(f"budget must lie in (0, 1), got {budget}")
    if _inside(mu, budget, GRID_ANCHOR):
        return GRID_ANCHOR
    high = _DOUBLING_STEPS
    try:
        while not _inside(mu, budget, _grid(high)):
            high += _DOUBLING_STEPS
    except OverflowError:
        raise OverflowError(f"no grid deviation within the float range meets budget {budget} "
                            f"at mean {mu}") from None
    # the bracket (high - _DOUBLING_STEPS, high] ends at a probe that meets the budget
    bracket = range(high - _DOUBLING_STEPS + 1, high + 1)
    return next(delta for delta in map(_grid, bracket) if _inside(mu, budget, delta))


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
