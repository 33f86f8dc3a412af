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

import numpy as np

__all__ = [
    "upper_tail_bound",
    "deviation_for_budget",
    "lower_tail_bound",
    "binomial_real",
    "elementary_symmetric",
    "esym_mean_bound",
]

#: Anchor and ratio of the geometric grid searched by `deviation_for_budget`.
GRID_ANCHOR = 1e-6
GRID_RATIO = 1.001

# GRID_RATIO**_DOUBLING_STEPS is the first grid power >= 2, so advancing the
# grid index by this amount (at least) doubles the candidate deviation.
_DOUBLING_STEPS = math.ceil(math.log(2.0) / math.log(GRID_RATIO))
# The doubling probes sit at every _DOUBLING_STEPS-th grid index, up to the
# first one whose deviation passes 1e12, where the search gives up.
_PROBE_COUNT = 1
while GRID_ANCHOR * GRID_RATIO ** (_PROBE_COUNT * _DOUBLING_STEPS) <= 1e12:
    _PROBE_COUNT += 1
# The array test of the search may round differently from the scalar one:
# numpy's power, log1p and exp may each miss Python's by an ulp or so.  The
# two exponents then differ by a few ulps of mu * (delta + (1+delta)
# log(1+delta)) (at most 6e-16 of it over 90,000 sampled points), and
# mu*delta by a few ulps of itself; _ROUNDING bounds both with room to
# spare.  Values below _UNDERFLOW may differ by that much outright.
_ROUNDING = 1e-13
_UNDERFLOW = 1e-280


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


@functools.lru_cache(maxsize=None)  # the probes and at most _PROBE_COUNT brackets
def _grid_terms(start: int, step: int, count: int) -> tuple[np.ndarray, ...]:
    """Grid indices start, start + step, ... (count of them), their
    deviations, and the two parts of the tail exponent that do not depend on
    mu: delta - g and delta + g, with g = (1 + delta) log(1 + delta).  The
    arrays are shared between calls, so they are read-only."""
    indices = start + step * np.arange(count)
    deltas = GRID_ANCHOR * GRID_RATIO**indices
    growth = (1.0 + deltas) * np.log1p(deltas)
    terms = (indices, deltas, deltas - growth, deltas + growth)
    for array in terms:
        array.setflags(write=False)
    return terms


def _first_inside(mu: float, budget: float, terms) -> int | None:
    """Position of the first grid index of `terms` whose deviation meets the
    budget, as the scalar test decides it; None if none does.

    One array pass decides every index whose value sits clear of the budget
    and whose mu*delta sits clear of an integer, by more than the rounding
    margins; the scalar test decides the others, in index order.
    """
    indices, deltas, exponent_part, margin_part = terms
    spread = mu * deltas
    values = np.ceil(spread) * np.exp(np.minimum(mu * exponent_part, 0.0))
    # a margin past e^10 only meets values that are 0 either way
    margin = np.exp(np.minimum(_ROUNDING * (mu * margin_part + 1.0), 10.0))
    unsure = (values / margin <= budget) & (budget < values * margin + _UNDERFLOW)
    unsure |= np.abs(spread - np.rint(spread)) <= _ROUNDING * np.maximum(spread, 1.0)
    sure = (values <= budget) & ~unsure
    end = int(np.argmax(sure)) if sure.any() else None
    for pos in np.flatnonzero(unsure[:end]).tolist():
        if _inside(mu, budget, _grid(int(indices[pos]))):
            return pos
    return end


@functools.lru_cache(maxsize=1024)  # bounded: mu is a continuous y*
def deviation_for_budget(mu: float, budget: float) -> float:
    """Smallest grid deviation delta with ceil(mu*delta) * bound <= budget.

    The candidate deviations form a geometric grid anchored at 1e-6 with
    ratio 1.001.  Probes at every 694th grid index (each doubles the
    deviation) bracket the answer, and the first grid point of the final
    bracket that satisfies the inequality is returned; the ceil factor makes
    the predicate non-monotone at integer boundaries, so a point below the
    bracket may satisfy it too.  The probes, and then the bracket, are
    tested in one array pass each; any index whose array test lies within
    rounding of the budget, or whose mu*delta lies within rounding of an
    integer, is tested again in scalar form before it counts, so the result
    is that of testing every index one at a time.  The search gives up past
    a deviation of 1e12.  Results are memoized per (mu, budget) in a bounded
    LRU cache; invalid arguments raise on every call.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mean must be positive and finite, got {mu}")
    if not 0.0 < budget < 1.0:
        raise ValueError(f"budget must lie in (0, 1), got {budget}")
    if _inside(mu, budget, GRID_ANCHOR):
        return GRID_ANCHOR
    probe = _first_inside(mu, budget, _grid_terms(_DOUBLING_STEPS, _DOUBLING_STEPS, _PROBE_COUNT))
    if probe is None:  # pragma: no cover - the bound decays to 0
        raise RuntimeError("deviation search failed to bracket")
    # the bracket (low, high] ends at the probe, which meets the budget
    low = probe * _DOUBLING_STEPS
    return _grid(low + 1 + _first_inside(mu, budget, _grid_terms(low + 1, 1, _DOUBLING_STEPS)))


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


def esym_mean_bound(n: int, mu: float, k: int) -> float:
    """Bound C(n,k) * (mu/n)^k on the expected k-th elementary symmetric
    polynomial of n independent [0,1] variables whose means sum to mu.
    """
    if k < 1 or k > n:
        raise ValueError(f"order must lie in [1, {n}], got {k}")
    if mu < 0.0 or mu > n:
        raise ValueError(f"total mean must lie in [0, {n}], got {mu}")
    return binomial_real(float(n), k) * (mu / n) ** k
