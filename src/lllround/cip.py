"""Covering rounding: scale-and-round schemes, the success estimator, and
its deterministic fixing loop.

The scheme scales a fractional cover by alpha, keeps the integer floors, and
rounds the leftover bits independently.  The estimator lower-bounds the
probability that every demand survives AND every cost increment stays under
its budget; the fixing loop walks the bits one by one, always keeping the
estimator positive, and so ends at a certified integral point.

Cost budgets here cap the rounded increments c.(z - floor): the floor part is
deterministic, so end-to-end callers convert a total budget by subtracting
the floor cost first (see `choose_parameters`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import CipInstance, sparsity_stats
from .tailbounds import binomial_real, esym_mean_bound, lower_tail_bound

__all__ = [
    "RoundingScheme",
    "RoundedSolution",
    "EstimatorState",
    "EstimatorError",
    "ParameterError",
    "make_scheme",
    "choose_alpha_beta",
    "choose_parameters",
    "standard_round",
    "row_failure_bound",
    "success_lower_bound",
    "standard_certificate",
    "multicriteria_params",
    "make_estimator",
    "derandomize",
    "round_cip",
]

NEAR_ONE_GUARD = 1e-12  # complement factors below this switch to direct handling
BRANCH_TOL = 1e-9
DEFAULT_SUBSET_ORDER_CAP = 6


class EstimatorError(RuntimeError):
    """The estimator machinery detected an internal inconsistency."""


class ParameterError(ValueError):
    """Rounding parameters are out of range, or none exist in the searched range."""


@dataclass(frozen=True)
class RoundingScheme:
    """Frozen per-row data for rounding alpha * x: floors, leftover bits, and
    the lower-tail deviations of every still-unsatisfied row."""

    instance: CipInstance
    alpha: float
    floor: np.ndarray  # integer part of alpha * x
    frac: np.ndarray  # leftover Bernoulli means, in [0, 1)
    delta: np.ndarray  # per-row relative deviation to the residual demand
    residual: np.ndarray  # demand left after the floors
    satisfied: np.ndarray  # rows already covered by the floors alone

    @property
    def floor_costs(self) -> tuple[float, ...]:
        return tuple(float(c @ self.floor) for c in self.instance.costs)


@dataclass(frozen=True)
class RoundedSolution:
    z: np.ndarray
    feasible: bool
    objective_values: tuple[float, ...]
    certificate: float | None = None  # final estimator value, when derandomized
    trace: tuple[float, ...] | None = None  # estimator value per fixing step


def make_scheme(instance: CipInstance, x, alpha: float) -> RoundingScheme:
    """Scale a feasible fractional cover by alpha and split it into floors
    plus Bernoulli bits.  Requires alpha > 1 and slack at most 1e-6."""
    if alpha <= 1.0:
        raise ValueError(f"scale factor must exceed 1, got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"expected {instance.n} values, got shape {x.shape}")
    shortfall = instance.demands - instance.loads(x)
    if shortfall.max(initial=0.0) > 1e-6:
        worst = int(np.argmax(shortfall))
        raise ValueError(f"fractional point infeasible: row {worst} short by {shortfall[worst]:.3e}")
    scaled = alpha * x
    floor = np.floor(scaled)
    frac = scaled - floor
    mu = instance.loads(frac)
    residual = instance.demands - instance.loads(floor)
    satisfied = residual <= 0.0
    delta = np.zeros(instance.m)
    active = ~satisfied
    if np.any(mu[active] <= 0.0):
        raise EstimatorError("unsatisfied row with no random mass; is the point feasible?")
    delta[active] = 1.0 - residual[active] / mu[active]
    if np.any(delta[active] <= 0.0) or np.any(delta[active] >= 1.0):
        raise EstimatorError("row deviations fell outside (0, 1)")
    floor.setflags(write=False)
    frac.setflags(write=False)
    return RoundingScheme(
        instance=instance,
        alpha=float(alpha),
        floor=floor,
        frac=frac,
        delta=delta,
        residual=residual,
        satisfied=satisfied,
    )


def choose_alpha_beta(a: int, min_demand: float) -> tuple[float, float]:
    """Cheapest (alpha, beta) with beta * (1 - q)^a > 1, q the per-row
    failure bound after scaling by alpha.

    Scans K over a geometric grid in [1, 64] through two parameter families —
    (K * ln(a+1)/B, 2) and the symmetric (1 + K * sqrt(ln(a+1)/B)) pair — and
    keeps the valid pair with the smallest product.
    """
    if a < 1:
        raise ValueError(f"column sparsity must be at least 1, got {a}")
    if min_demand < 1.0:
        raise ValueError(f"demand must be at least 1, got {min_demand}")
    eps = math.log(a + 1.0) / min_demand
    best: tuple[float, float] | None = None
    best_product = math.inf
    k = 1.0
    while k <= 64.0 * 1.0000001:
        sym = 1.0 + k * math.sqrt(eps)
        for alpha, beta in ((k * eps, 2.0), (sym, sym)):
            if alpha <= 1.0 or beta <= 1.0:
                continue
            q = lower_tail_bound(min_demand, alpha)
            if beta * (1.0 - q) ** a > 1.0 and alpha * beta < best_product:
                best = (alpha, beta)
                best_product = alpha * beta
        k *= 1.02
    if best is None:  # pragma: no cover - the symmetric family at K=64 is valid
        raise ParameterError("no valid scale pair in the searched grid")
    return best


def standard_round(scheme: RoundingScheme, rng_seed) -> RoundedSolution:
    """One independent draw of the leftover bits."""
    rng = np.random.default_rng(rng_seed)
    bits = rng.random(scheme.instance.n) < scheme.frac
    z = scheme.floor + bits
    loads = scheme.instance.loads(z)
    feasible = bool(np.all(loads >= scheme.instance.demands - 1e-9))
    objectives = tuple(float(c @ z) for c in scheme.instance.costs)
    return RoundedSolution(z=z, feasible=feasible, objective_values=objectives)


def _row_bounds(scheme: RoundingScheme, p: np.ndarray, rows=None) -> np.ndarray:
    """Clamped per-row failure bounds at bit probabilities p, in log space
    over each row's nonzero columns only.  Satisfied rows are 0."""
    instance = scheme.instance
    rows = range(instance.m) if rows is None else rows
    out = np.zeros(len(rows))
    for pos, i in enumerate(rows):
        if scheme.satisfied[i]:
            continue
        span = slice(instance.row_ptr[i], instance.row_ptr[i + 1])
        cols, coeff = instance.cols[span], instance.vals[span]
        base = 1.0 - scheme.delta[i]
        factors = 1.0 - p[cols] * (1.0 - base**coeff)
        log_ch = float(np.log(factors).sum()) - scheme.residual[i] * math.log(base)
        out[pos] = min(1.0, math.exp(min(log_ch, 0.0)))
    return out


class _SubsetTables:
    """Precomputed subset enumeration for the estimator's budget terms.

    For each criterion, all order-k column subsets with positive costs are
    flattened once; evaluation is then a couple of vectorized gathers.
    """

    def __init__(self, scheme: RoundingScheme, lambdas, ks, order_cap: int):
        instance = scheme.instance
        self.calls = 0
        self.terms = []
        for cost, lam, k in zip(instance.costs, lambdas, ks, strict=True):
            if k > order_cap:
                raise ParameterError(
                    f"subset order {k} exceeds the cap {order_cap}; raise the cap explicitly"
                )
            support = np.flatnonzero(cost > 0.0)
            subsets = list(itertools.combinations(support.tolist(), k))
            denom = binomial_real(float(lam), int(k))
            if denom <= 0.0:
                raise ParameterError(f"budget {lam} too small for subset order {k}")
            # (n_subsets, k); with fewer positive-cost bits than k the table
            # is empty and the term subtracts nothing
            cols = np.array(subsets, dtype=np.int64).reshape(len(subsets), k)
            row_lists = [
                np.unique(np.concatenate([instance.col_rows[j] for j in subset]))
                for subset in subsets
            ]
            lengths = np.array([len(r) for r in row_lists], dtype=np.int64)
            flat_rows = np.concatenate([np.empty(0, dtype=np.int64), *row_lists])
            ends = np.cumsum(lengths)
            starts = ends - lengths
            self.terms.append((denom, cost, cols, flat_rows, starts, ends))

    def value(self, p: np.ndarray, chp: np.ndarray) -> float:
        """Estimator value: the all-rows-survive product minus the budget
        overflow terms, with near-one row bounds handled exactly."""
        self.calls += 1
        dead = chp >= 1.0 - NEAR_ONE_GUARD
        n_dead = int(dead.sum())
        with np.errstate(divide="ignore"):
            # dead rows carry an exact factor of 0, tracked by count instead
            log_clear = np.where(dead, 0.0, np.log1p(-np.minimum(chp, 1.0)))
        total_log = float(log_clear.sum())
        lead = math.exp(total_log) if n_dead == 0 else 0.0
        subtracted = 0.0
        for denom, cost, cols, flat_rows, starts, ends in self.terms:
            with np.errstate(divide="ignore"):
                log_w = np.log(cost[cols] * p[cols]).sum(axis=1)  # -inf prunes zeros
            cs = np.concatenate([[0.0], np.cumsum(log_clear[flat_rows])])
            seg_log = cs[ends] - cs[starts]
            dcs = np.concatenate([[0], np.cumsum(dead[flat_rows].astype(np.int64))])
            seg_dead = dcs[ends] - dcs[starts]
            complement_ok = seg_dead == n_dead  # every dead row sits inside the subset's cover
            with np.errstate(invalid="ignore"):
                contrib = np.where(
                    complement_ok & np.isfinite(log_w),
                    np.exp(np.where(np.isfinite(log_w), log_w, 0.0) + (total_log - seg_log)),
                    0.0,
                )
            subtracted += float(contrib.sum()) / denom
        return lead - subtracted


@dataclass(frozen=True)
class EstimatorState:
    """Bit probabilities plus cached row bounds for one scheme and one family
    of budget terms.  Frozen: `at` is the one way to move to a new point."""

    scheme: RoundingScheme
    p: np.ndarray
    lambdas: np.ndarray  # increment budgets, one per criterion
    ks: np.ndarray  # subset orders, one per criterion
    chp: np.ndarray  # cached clamped row failure bounds at p
    tables: _SubsetTables = field(repr=False)

    @property
    def evaluations(self) -> int:
        return self.tables.calls

    def at(self, p) -> "EstimatorState":
        """The state at bit probabilities p.  Only the rows of the columns
        where p differs from self.p are recomputed; the rest keep their
        cached bounds, which depend on no other column."""
        p = np.array(p, dtype=float)
        if p.shape != self.p.shape:
            raise ValueError(f"expected {self.p.size} probabilities, got shape {p.shape}")
        changed = np.flatnonzero(p != self.p)
        if changed.size == 0:
            return self
        rows = np.unique(np.concatenate([self.scheme.instance.col_rows[j] for j in changed]))
        chp = self.chp.copy()
        chp[rows] = _row_bounds(self.scheme, p, rows)
        p.setflags(write=False)
        chp.setflags(write=False)
        return replace(self, p=p, chp=chp)


def make_estimator(
    scheme: RoundingScheme, lambdas, ks, order_cap: int = DEFAULT_SUBSET_ORDER_CAP
) -> EstimatorState:
    instance = scheme.instance
    lambdas = np.asarray(lambdas, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    if lambdas.shape != (instance.n_criteria,) or ks.shape != (instance.n_criteria,):
        raise ValueError("need one budget and one subset order per cost vector")
    for lam, k in zip(lambdas, ks):
        if k < 1 or k > instance.n:
            raise ValueError(f"subset order {k} out of range [1, {instance.n}]")
        if k == 1:
            if lam <= 0.0:
                raise ValueError(f"budget must be positive, got {lam}")
        elif lam < k:
            raise ValueError(f"budget {lam} below subset order {k}")
    tables = _SubsetTables(scheme, lambdas, ks, order_cap)
    chp = _row_bounds(scheme, scheme.frac)
    chp.setflags(write=False)
    return EstimatorState(
        scheme=scheme, p=scheme.frac, lambdas=lambdas, ks=ks, chp=chp, tables=tables
    )


def row_failure_bound(state: EstimatorState, row: int) -> float:
    """Clamped bound on row `row` failing its residual demand at state.p."""
    return float(_row_bounds(state.scheme, state.p, [row])[0])


def success_lower_bound(state: EstimatorState) -> float:
    """Lower bound on Pr(all demands hold and all increment budgets hold)."""
    return state.tables.value(state.p, state.chp)


def standard_certificate(scheme: RoundingScheme, lambdas, ks):
    """Closed-form start check: a product-form lower bound on the estimator
    at the standard bit probabilities, plus the exact estimator value.

    Returns (positive, closed_form, estimate).  The closed form multiplies
    (1-q)^m by 1 minus the budget terms bounded through `esym_mean_bound`,
    so it never exceeds the exact estimator value.
    """
    instance = scheme.instance
    lambdas = np.asarray(lambdas, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    stats = sparsity_stats(instance)
    q = lower_tail_bound(float(instance.demands.min()), scheme.alpha)
    clear = (1.0 - q) ** instance.m
    total = 0.0
    for cost, lam, k in zip(instance.costs, lambdas, ks, strict=True):
        mean = float(cost @ scheme.frac)
        inflate = (1.0 - q) ** (-stats.a * int(k))
        total += esym_mean_bound(instance.n, mean, int(k)) / binomial_real(float(lam), int(k)) * inflate
    closed_form = clear * (1.0 - total)
    estimate = success_lower_bound(make_estimator(scheme, lambdas, ks, order_cap=max(int(ks.max()), 1)))
    return closed_form > 0.0, closed_form, estimate


def _subset_order(n_criteria: int) -> int:
    """Subset order k = ceil(ln 2l) of every budget term for l cost vectors."""
    return math.ceil(math.log(2.0 * n_criteria))


def multicriteria_params(objective_values, n_criteria: int, a: int, min_demand: float):
    """Scale factor and subset orders for simultaneous budget caps.

    `objective_values` are the pre-scale fractional objectives y*_i; the
    implied means scale with the returned alpha, and each budget is meant to
    be 3x the scaled mean (relative overflow 2).  The scan multiplies the
    base scale by K over a geometric grid in [1, 64] until the closed-form
    start bound goes positive; failing that, the instance family is too
    tight and a ParameterError suggests remedies.
    """
    if n_criteria < 1:
        raise ValueError("need at least one criterion")
    objective_values = np.asarray(objective_values, dtype=float)
    if objective_values.shape != (n_criteria,):
        raise ValueError(f"expected {n_criteria} objective values")
    if np.any(objective_values <= 0.0):
        raise ParameterError("objective values must be positive")
    k = _subset_order(n_criteria)
    ks = [k] * n_criteria
    base = max((math.log(a) + math.log(math.log(2.0 * n_criteria))) / min_demand, 1.0)
    factor = 1.0
    chosen = None
    while factor <= 64.0 * 1.0000001:
        alpha = factor * base
        if alpha > 1.0:
            q = lower_tail_bound(min_demand, alpha)
            nus = alpha * objective_values
            if np.all(3.0 * nus > k - 1):
                total = 0.0
                for nu in nus:
                    total += (
                        nu**k
                        / math.factorial(k)
                        / binomial_real(3.0 * nu, k)
                        * (1.0 - q) ** (-a * k)
                    )
                if total < 1.0:
                    chosen = alpha
                    break
        factor *= 1.02
    if chosen is None:
        raise ParameterError(
            "no scale factor up to 64x the base makes the start bound positive; "
            "increase the demands or reduce the column sparsity"
        )
    threshold = math.log2(2.0 * n_criteria) ** 2
    nus = chosen * objective_values
    if np.any(nus < threshold):
        warnings.warn(
            f"scaled means fall below {threshold:.2f}; budget caps may be loose",
            stacklevel=2,
        )
    return chosen, ks


def derandomize(state: EstimatorState) -> RoundedSolution:
    """Fix the bits one by one, keeping the estimator positive throughout.

    Each fractional coordinate (lowest index first) is evaluated at both of
    its integral settings; the better branch is kept, ties going to 0.  The
    estimator is convex along each coordinate, so the better branch never
    drops more than round-off below the current value — asserted at 1e-9.
    The final point is re-validated: every demand covered and every cost
    increment within its budget, else an internal-consistency error.
    """
    scheme = state.scheme
    instance = scheme.instance
    current = success_lower_bound(state)
    if current <= 0.0:
        raise EstimatorError(f"estimator must start positive, got {current}")
    trace = [current]
    cols = np.arange(instance.n)
    for j in cols:
        if state.p[j] == 0.0 or state.p[j] == 1.0:
            continue
        zero, one = (state.at(np.where(cols == j, bit, state.p)) for bit in (0.0, 1.0))
        phi_zero = state.tables.value(zero.p, zero.chp)
        phi_one = state.tables.value(one.p, one.chp)
        if max(phi_zero, phi_one) < current - BRANCH_TOL:
            raise EstimatorError(
                f"both branches dropped below the current bound at bit {j}: "
                f"{current} -> ({phi_zero}, {phi_one})"
            )
        if phi_one > phi_zero:
            state, current = one, phi_one
        else:
            state, current = zero, phi_zero
        trace.append(current)
    z = scheme.floor + state.p
    loads = instance.loads(z)
    if np.any(loads < instance.demands - BRANCH_TOL):
        raise EstimatorError("derandomized point misses a demand; estimator inconsistent")
    increments = [float(c @ state.p) for c in instance.costs]
    if any(inc > lam + BRANCH_TOL for inc, lam in zip(increments, state.lambdas)):
        raise EstimatorError("derandomized point exceeds a budget; estimator inconsistent")
    objectives = tuple(float(c @ z) for c in instance.costs)
    return RoundedSolution(
        z=z,
        feasible=True,
        objective_values=objectives,
        certificate=current,
        trace=tuple(trace),
    )


def choose_parameters(instance: CipInstance, x, alpha: float | None = None,
                      beta: float | None = None, total_budgets=None):
    """The one place the rounding parameters of a fractional cover are fixed.

    Single-criterion default: (alpha, beta) from `choose_alpha_beta` and a
    total budget of alpha * beta * y*.  Multi-criterion default: scale and
    subset orders from `multicriteria_params`, beta = 3 and budgets beta
    times the scaled means.  Total budgets are converted to increment budgets
    by subtracting the floor costs of the scheme.  Raises ParameterError for
    an alpha that is not finite or not above 1, and for a beta or a total
    budget that is not finite.

    Returns (scheme, increment budgets, subset orders, info dict).
    """
    x = np.asarray(x, dtype=float)
    stats = sparsity_stats(instance)
    min_demand = float(instance.demands.min())
    objective_values = np.array([float(c @ x) for c in instance.costs])
    ell = instance.n_criteria
    if ell == 1:
        if alpha is None or beta is None:
            chosen_alpha, chosen_beta = choose_alpha_beta(stats.a, min_demand)
            alpha = alpha if alpha is not None else chosen_alpha
            beta = beta if beta is not None else chosen_beta
        ks = [1]
        if total_budgets is None:
            total_budgets = [alpha * beta * objective_values[0]]
    else:
        if alpha is None:
            alpha, ks = multicriteria_params(objective_values, ell, stats.a, min_demand)
        else:
            ks = [_subset_order(ell)] * ell
        beta = 3.0 if beta is None else beta
        if total_budgets is None:
            total_budgets = [beta * alpha * y for y in objective_values]
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ParameterError(f"alpha must be finite and above 1, got {alpha}")
    if not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")
    if not all(math.isfinite(b) for b in total_budgets):
        raise ParameterError("every total budget must be finite")
    scheme = make_scheme(instance, x, alpha)
    lambdas = [float(b) - fc for b, fc in zip(total_budgets, scheme.floor_costs, strict=True)]
    if any(lam <= 0.0 for lam in lambdas):
        raise ParameterError("a total budget falls below the floor cost; raise the budget")
    info = {
        "alpha": float(alpha),
        "beta": float(beta),
        "ks": [int(k) for k in ks],
        "lambdas": [float(l) for l in lambdas],
        "total_budgets": [float(b) for b in total_budgets],
        "y_star": [float(y) for y in objective_values],
    }
    return scheme, lambdas, ks, info


def round_cip(instance: CipInstance, x, alpha: float | None = None, beta: float | None = None,
              total_budgets=None, order_cap: int = DEFAULT_SUBSET_ORDER_CAP):
    """End-to-end deterministic rounding of a feasible fractional cover, with
    the parameters from `choose_parameters`.

    Returns (solution, info dict with the parameters used).
    """
    scheme, lambdas, ks, info = choose_parameters(instance, x, alpha, beta, total_budgets)
    state = make_estimator(scheme, lambdas, ks, order_cap=order_cap)
    solution = derandomize(state)
    info["evaluations"] = state.evaluations
    return solution, info
