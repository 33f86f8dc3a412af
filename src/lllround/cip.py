"""Covering rounding: scale-and-round schemes, the success estimator, and
its deterministic fixing loop.

The scheme scales a fractional cover by alpha, keeps the integer floors, and
rounds the leftover bits independently.  The estimator lower-bounds the
probability that every demand survives AND every cost increment stays under
its budget; the fixing loop walks the bits one by one, always keeping the
estimator positive, and so ends at a certified integral point.  Each budget
term is elementary symmetric sums over the free bits, whose columns meet no
unsatisfied row, times a subset table over the other bits.

Cost budgets here cap the rounded increments c.(z - floor): the floor part is
deterministic, so end-to-end callers convert a total budget by subtracting
the floor cost first (see `choose_parameters`).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import CipInstance, _check_cover, _checked_point, _csr, column_sparsity
from .tailbounds import binomial_real, lower_tail_bound

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
    "success_lower_bound",
    "multicriteria_params",
    "make_estimator",
    "derandomize",
    "round_cip",
]

NEAR_ONE_GUARD = 1e-12  # complement factors below this switch to direct handling
BRANCH_TOL = 1e-9
# Largest subset order of a budget term.  Its table enumerates C(|T|, i)
# subsets at each order i <= k of the bits T that meet an unsatisfied row, so
# the cap bounds it; ceil(ln 2l) first exceeds it at l = 202 cost vectors.
SUBSET_ORDER_CAP = 6
# Both parameter searches' factors: 1.02^i in [1, 64], each 1.02 times the last
_SCALE_GRID = tuple(itertools.takewhile(lambda k: k <= 64.0 * 1.0000001, itertools.accumulate(
    itertools.repeat(1.02), operator.mul, initial=1.0)))


def _least_grid_index(holds) -> int | None:
    """The least index of `_SCALE_GRID` whose factor meets `holds`, a
    predicate false below some factor and true from it on; None if it fails
    at the top.  Checks the top, then bisects: at most 9 calls for 211
    factors."""
    if not holds(_SCALE_GRID[-1]):
        return None
    return bisect.bisect_left(_SCALE_GRID, True, hi=len(_SCALE_GRID) - 1, key=holds)


class EstimatorError(RuntimeError):
    """The estimator machinery detected an internal inconsistency."""


class ParameterError(ValueError):
    """Rounding parameters are out of range, or none exist in the searched range."""


@dataclass(frozen=True)
class RoundingScheme:
    """Frozen per-row data for rounding alpha * x: floors, leftover bits, and
    the lower-tail deviations of every still-unsatisfied row.  Only those
    rows can fail, so the estimator indexes them by their position in
    `unsatisfied`: row by row through the `bound_*` arrays, column by column
    through `col_ptr` and `col_slots`."""

    instance: CipInstance
    alpha: float
    floor: np.ndarray  # integer part of alpha * x
    frac: np.ndarray  # leftover Bernoulli means, in [0, 1)
    delta: np.ndarray  # per-row relative deviation to the residual demand
    residual: np.ndarray  # demand left after the floors
    satisfied: np.ndarray  # rows already covered by the floors alone
    # the unsatisfied rows and their nonzeros, row by row, for `_row_bounds`
    unsatisfied: np.ndarray
    bound_starts: np.ndarray  # each unsatisfied row's first nonzero in bound_cols
    bound_cols: np.ndarray  # column of each nonzero
    bound_gain: np.ndarray  # 1 - (1 - delta_i)**a_ij of each nonzero
    bound_shift: np.ndarray  # residual_i * log(1 - delta_i) of each unsatisfied row
    col_ptr: np.ndarray  # column j's unsatisfied rows are col_slots[col_ptr[j]:col_ptr[j + 1]]
    col_slots: np.ndarray  # ascending positions in unsatisfied

    @property
    def floor_costs(self) -> tuple[float, ...]:
        with np.errstate(over="ignore"):  # inf past the float range: no budget covers it
            return tuple(float(c @ self.floor) for c in self.instance.costs)


@dataclass(frozen=True)
class RoundedSolution:
    z: np.ndarray
    feasible: bool
    objective_values: tuple[float, ...]
    trace: tuple[float, ...] | None = None  # estimator value per fixing step
    evaluations: int | None = None  # estimator values priced, when derandomized


def make_scheme(instance: CipInstance, x, alpha: float) -> RoundingScheme:
    """Scale a feasible fractional cover by alpha and split it into floors
    plus Bernoulli bits.  The one check of alpha: ParameterError unless it
    is finite and above 1 and alpha * x is finite.  Raises ValueError for a
    negative or non-finite entry, InfeasibleError for a row short of its
    demand by more than 1e-6 (`model._check_cover`), and ParameterError for
    a row whose deviation falls outside (0, 1)."""
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ParameterError(f"alpha must be finite and above 1, got {alpha}")
    x = _checked_point(x, instance.n, "column")
    _check_cover(instance, x)
    # x >= 0 and rounding is monotone, so alpha * x overflows only if its top entry does
    if not math.isfinite(alpha * float(x.max())):
        raise ParameterError(f"alpha * x overflows the float range at alpha {alpha}")
    scaled = alpha * x
    floor = np.floor(scaled)
    frac = scaled - floor
    mu = instance.loads(frac)
    residual = instance.demands - instance.loads(floor)
    satisfied = residual <= 0.0
    active = ~satisfied
    unsatisfied = np.flatnonzero(active)
    delta = np.zeros(instance.m)
    with np.errstate(divide="ignore"):  # -inf on a row with no random mass
        delta[active] = 1.0 - residual[active] / mu[active]
    bad = unsatisfied[(delta[active] <= 0.0) | (delta[active] >= 1.0)]
    if bad.size:
        raise ParameterError(f"row {bad[0]} has deviation {delta[bad[0]]:.3g} outside (0, 1) "
                             f"at alpha {alpha}")
    lengths = np.diff(instance.row_ptr)[unsatisfied]
    nonzeros = active[instance.rows]
    bound_cols = instance.cols[nonzeros]
    col_ptr, col_slots = _csr(bound_cols, np.repeat(np.arange(unsatisfied.size), lengths),
                              instance.n)
    base = 1.0 - delta[unsatisfied]
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
        unsatisfied=unsatisfied,
        bound_starts=np.cumsum(lengths) - lengths,
        bound_cols=bound_cols,
        bound_gain=1.0 - np.repeat(base, lengths) ** instance.vals[nonzeros],
        bound_shift=residual[unsatisfied] * np.log(base),
        col_ptr=col_ptr,
        col_slots=col_slots,
    )


def choose_alpha_beta(a: int, min_demand: float) -> tuple[float, float]:
    """Cheapest (alpha, beta) with beta * (1 - q)^a > 1, q the per-row
    failure bound after scaling by alpha.

    Two parameter families over the scale grid's factors K,
    (K * ln(a+1)/B, 2) and the symmetric (1 + K * sqrt(ln(a+1)/B)) pair,
    are each valid from some K on and dearer as K grows, so each offers its
    least valid pair (`_least_grid_index`).  The cheaper one wins; on equal
    products the smaller K, then the first family.  Past B of about 1e35
    every alpha rounds to 1 and none is valid (ParameterError).
    """
    if a < 1:
        raise ValueError(f"column sparsity must be at least 1, got {a}")
    if min_demand < 1.0:
        raise ValueError(f"demand must be at least 1, got {min_demand}")
    eps = math.log(a + 1.0) / min_demand
    families = (lambda k: (k * eps, 2.0), lambda k: (1.0 + k * math.sqrt(eps),) * 2)

    def valid(alpha: float, beta: float) -> bool:
        return (alpha > 1.0 and beta > 1.0
                and beta * (1.0 - lower_tail_bound(min_demand, alpha)) ** a > 1.0)

    offers = []
    for rank, family in enumerate(families):
        index = _least_grid_index(lambda k: valid(*family(k)))
        if index is not None:
            alpha, beta = family(_SCALE_GRID[index])
            offers.append((alpha * beta, index, rank, alpha, beta))
    if not offers:
        raise ParameterError("no valid scale pair in the searched grid")
    return min(offers)[3:]


def standard_round(scheme: RoundingScheme, rng_seed) -> RoundedSolution:
    """One independent draw of the leftover bits."""
    rng = np.random.default_rng(rng_seed)
    bits = rng.random(scheme.instance.n) < scheme.frac
    z = scheme.floor + bits
    loads = scheme.instance.loads(z)
    feasible = bool(np.all(loads >= scheme.instance.demands - 1e-9))
    objectives = tuple(float(c @ z) for c in scheme.instance.costs)
    return RoundedSolution(z=z, feasible=feasible, objective_values=objectives)


def _clamped_bounds(bits: np.ndarray, gain: np.ndarray, starts: np.ndarray,
                    shift: np.ndarray) -> np.ndarray:
    """Clamped failure bounds of unsatisfied rows, in log space over their
    nonzeros along the last axis: row r's nonzeros start at starts[r], and
    each holds its bit's probability in `bits` and its `bound_gain`."""
    log_ch = np.add.reduceat(np.log(1.0 - bits * gain), starts, axis=-1) - shift
    return np.exp(np.minimum(log_ch, 0.0))


def _row_bounds(scheme: RoundingScheme, p: np.ndarray) -> np.ndarray:
    """Clamped per-row failure bounds at bit probabilities p, in log space
    over each row's nonzero columns only, all rows in one pass.  Satisfied
    rows are 0."""
    out = np.zeros(scheme.instance.m)
    if scheme.unsatisfied.size:
        out[scheme.unsatisfied] = _clamped_bounds(p[scheme.bound_cols], scheme.bound_gain,
                                                  scheme.bound_starts, scheme.bound_shift)
    return out


def _log_clear(chp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log(1 - chp), dead) of clamped row bounds: a dead row's bound is
    within NEAR_ONE_GUARD of 1, and its log_clear is 0."""
    dead = chp >= 1.0 - NEAR_ONE_GUARD
    return np.log1p(np.where(dead, 0.0, -chp)), dead


def _suffix_sums(w: np.ndarray, k: int) -> np.ndarray:
    """(rows + 1, columns, k + 1) table of e_0..e_k of each suffix w[s:] of
    the rows of w, column by column.  Order i sums w_a * e_{i-1}(w[a+1:])
    over a >= s: a reversed cumulative sum of nonnegative terms, so nothing
    is ever subtracted."""
    table = np.zeros((w.shape[0] + 1, w.shape[1], k + 1))
    table[:, :, 0] = 1.0
    for i in range(1, k + 1):
        table[:-1, :, i] = np.cumsum((w * table[1:, :, i - 1])[::-1], axis=0)[::-1]
    return table


@dataclass(frozen=True, eq=False)
class _BudgetTerms:
    """The budget terms of every cost at bit probabilities p.  A free bit,
    whose column meets no unsatisfied row, adds no row to a subset, so cost
    t's term is A_t = sum_{i<=k_t} e_{k_t-i}(w_F) * B_i: w_j = c_j p_j over
    the free random bits F, and B_i the sum of w_S * exp(-seg_S) over the
    order-i subsets S of the other random bits, T.  One table, shared by
    the costs, holds each subset of T of order 1 to max k_t, ascending by
    order (B_0 = 1 needs none): its columns, log w_S per cost and the
    ascending union of its unsatisfied rows, as positions in
    `scheme.unsatisfied`, in `flat_rows` with the subset that owns each
    entry in `owner`."""

    denoms: np.ndarray  # C(lambda_t, k_t)
    # (|F| + 1, costs, k + 1): row s holds the coefficients e_{k_t-i}, 0 above
    # k_t, of F[s:]'s weights; F holds its bits below 1 first, ascending
    free_factors: np.ndarray
    cols: np.ndarray  # (n_subsets, k), lexicographic within each order, padded with n
    one_hot: np.ndarray  # (n_subsets, k + 1), 1 at each subset's order: values @ it sums by order
    log_w: np.ndarray  # (costs, n_subsets), -inf above the cost's order
    flat_rows: np.ndarray  # grouped by owner, ascending within a subset
    owner: np.ndarray

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of values (one per unsatisfied row) over each subset's rows,
        added in row order; 0 for a subset that covers no row."""
        return np.bincount(self.owner, weights=values[self.flat_rows],
                           minlength=self.cols.shape[0])


def _budget_terms(scheme: RoundingScheme, lambdas: np.ndarray, ks: np.ndarray,
                  p: np.ndarray) -> _BudgetTerms:
    """The budget terms at bit probabilities p.  A bit with p_j = 0 enters
    no term.  The subset table enumerates the subsets of the random bits
    that meet an unsatisfied row, with their rows (`_subset_table`); with no
    such bit it is empty, of the same shapes and dtypes, and nothing is
    enumerated."""
    costs, random = np.stack(scheme.instance.costs), p > 0.0
    # with no positive-cost random bit a term subtracts nothing; only then
    # may a budget of order 1 be 0
    for lam, weighed in zip(lambdas.tolist(), np.any((costs > 0.0) & random, axis=1).tolist()):
        if lam <= 0.0 and weighed:
            raise ParameterError(f"budget must be positive, got {lam}")
    weights = costs * p
    meets = np.diff(scheme.col_ptr) > 0
    free = np.flatnonzero(random & ~meets)
    free = free[np.argsort(p[free] == 1.0, kind="stable")]  # the order they are fixed at 0
    k, i = int(ks.max()), np.arange(ks.max() + 1)
    esym = _suffix_sums(weights[:, free].T, k)
    # B_i's coefficient in cost t's term: e_{k_t - i} of the free weights, 0 above k_t
    free_factors = (esym[:, np.arange(ks.size)[:, None], np.maximum(ks[:, None] - i, 0)]
                    * (i <= ks[:, None]))
    # positive, as lam >= k above order 1; 1 spares an empty term 0/0
    denoms = np.array([binomial_real(float(lam), int(kt)) if lam != 0.0 else 1.0
                       for lam, kt in zip(lambdas, ks)])
    branched = np.flatnonzero(random & meets).tolist()
    if branched:
        return _BudgetTerms(denoms, free_factors, *_subset_table(scheme, weights, ks, branched))
    empty = np.empty(0, dtype=np.int64)
    return _BudgetTerms(denoms, free_factors, empty.reshape(0, k), np.empty((0, k + 1)),
                        np.empty((ks.size, 0)), empty, empty)


def _subset_table(scheme: RoundingScheme, weights: np.ndarray, ks: np.ndarray,
                  branched: list[int]) -> tuple[np.ndarray, ...]:
    """(cols, one_hot, log_w, flat_rows, owner) of `_BudgetTerms` over the
    subsets of order 1 to max k_t of the `branched` bits, at bit weights
    (costs, n)."""
    n, u = scheme.instance.n, scheme.unsatisfied.size
    degree = np.diff(scheme.col_ptr)
    k, i = int(ks.max()), np.arange(ks.max() + 1)
    # each column's unsatisfied rows, padded with the sentinel u; row n pads
    # the subsets below order k
    padded = np.full((n + 1, int(degree.max(initial=0))), u, dtype=np.int64)
    entry_cols = np.repeat(np.arange(n), degree)
    depth = np.arange(scheme.col_slots.size) - scheme.col_ptr[entry_cols]
    padded[entry_cols, depth] = scheme.col_slots
    cols = np.fromiter(itertools.chain.from_iterable(
        subset + (n,) * (k - size)
        for size in range(1, k + 1) for subset in itertools.combinations(branched, size)
    ), dtype=np.int64).reshape(-1, k)
    # each subset's rows, sorted, keeping the first copy of each below u
    rows = padded[cols].reshape(cols.shape[0], k * padded.shape[1])
    rows.sort(axis=1)
    keep = rows < u
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    order = np.count_nonzero(cols < n, axis=1)
    with np.errstate(divide="ignore"):  # a subset holding a bit of cost 0 weighs exactly 0
        log_w = np.log(np.hstack([weights, np.ones((ks.size, 1))])[:, cols]).sum(axis=2)
    log_w[order > ks[:, None]] = -np.inf
    return cols, (order[:, None] == i).astype(float), log_w, rows[keep], np.nonzero(keep)[0]


@dataclass(frozen=True)
class EstimatorState:
    """The estimator of one scheme and one family of budget terms at one
    point: the bit probabilities, their row bounds and the budget terms
    over the point's random bits.  Frozen: `at` builds the state at
    another point."""

    scheme: RoundingScheme
    p: np.ndarray
    lambdas: np.ndarray  # increment budgets, one per criterion
    ks: np.ndarray  # subset orders, one per criterion
    chp: np.ndarray  # clamped row failure bounds at p
    budget: _BudgetTerms = field(repr=False)

    def at(self, p) -> "EstimatorState":
        """The state at bit probabilities p: itself if p equals self.p,
        otherwise the state built at p."""
        p = np.array(p, dtype=float)
        if p.shape != self.p.shape:
            raise ValueError(f"expected {self.p.size} probabilities, got shape {p.shape}")
        if np.array_equal(p, self.p):
            return self
        p.setflags(write=False)
        return _state_at(self.scheme, self.lambdas, self.ks, p)


def _state_at(scheme: RoundingScheme, lambdas: np.ndarray, ks: np.ndarray,
              p: np.ndarray) -> EstimatorState:
    """The state at read-only bit probabilities p."""
    chp = _row_bounds(scheme, p)
    chp.setflags(write=False)
    return EstimatorState(scheme=scheme, p=p, lambdas=lambdas, ks=ks, chp=chp,
                          budget=_budget_terms(scheme, lambdas, ks, p))


def make_estimator(scheme: RoundingScheme, lambdas, ks) -> EstimatorState:
    """The estimator at the scheme's bit probabilities, with its budget
    terms: elementary symmetric sums over the free random bits and one
    subset table over the others (`_BudgetTerms`).  Raises ParameterError
    unless there is one budget and one subset order per cost vector, each
    order in [1, min(n, SUBSET_ORDER_CAP)], and each budget positive at
    order 1 (or 0 if no random bit has a positive cost) and at least the
    order above it."""
    instance = scheme.instance
    lambdas = np.asarray(lambdas, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    if lambdas.shape != (instance.n_criteria,) or ks.shape != (instance.n_criteria,):
        raise ParameterError("need one budget and one subset order per cost vector")
    for lam, k in zip(lambdas, ks):
        if k < 1 or k > instance.n:
            raise ParameterError(f"subset order {k} out of range [1, {instance.n}]")
        if k > SUBSET_ORDER_CAP:
            raise ParameterError(f"subset order {k} exceeds the cap {SUBSET_ORDER_CAP}")
        if k == 1:
            if lam < 0.0:
                raise ParameterError(f"budget must be positive, got {lam}")
        elif lam < k:
            raise ParameterError(f"budget {lam} below subset order {k}")
    return _state_at(scheme, lambdas, ks, scheme.frac)


def _evaluate(state: EstimatorState) -> tuple[float, np.ndarray, float, np.ndarray]:
    """The estimator at the state's own point: (value, log_clear, total_log,
    e).  The value is the all-rows-survive product minus the budget
    overflow terms, with near-one row bounds handled exactly; a satisfied
    row holds for certain and contributes the factor 1.  log_clear is each
    unsatisfied row's log(1 - chp), 0 on a dead row, and total_log their
    sum; e holds per cost each table subset's e_s = w_s(p) * exp(-seg_s),
    seg_s summing log_clear over its rows, or 0 if it misses a dead row."""
    budget = state.budget
    # dead rows carry an exact factor of 0, tracked by count instead
    log_clear, dead = _log_clear(state.chp[state.scheme.unsatisfied])
    n_dead = int(dead.sum())
    total_log = float(log_clear.sum())
    lead = math.exp(total_log) if n_dead == 0 else 0.0
    seg = budget.segment_sums(log_clear)
    # exp(total_log) stays inside, as factoring it out gives inf * 0 once it underflows
    contrib = np.exp(budget.log_w + (total_log - seg))
    e = np.exp(budget.log_w - seg)
    if n_dead:
        # a subset counts only if its rows hold every dead row
        misses = budget.segment_sums(dead.astype(np.int64)) != n_dead
        contrib[:, misses] = 0.0
        e[:, misses] = 0.0
    sums = contrib @ budget.one_hot
    sums[:, 0] = lead  # the empty subset holds no row
    subtracted = (budget.free_factors[0] * sums).sum(axis=1) / budget.denoms
    return lead - float(subtracted.sum()), log_clear, total_log, e


def success_lower_bound(state: EstimatorState) -> float:
    """Lower bound on Pr(all demands hold and all increment budgets hold)."""
    return _evaluate(state)[0]


def _subset_order(n_criteria: int) -> int:
    """Subset order k = ceil(ln 2l) of every budget term for l cost vectors."""
    return math.ceil(math.log(2.0 * n_criteria))


def multicriteria_params(objective_values, a: int, min_demand: float) -> float:
    """Scale factor for simultaneous budget caps on l = len(objective_values)
    costs, each budget term of order `_subset_order(l)`.

    `objective_values` are the pre-scale fractional objectives y*_t; the
    implied means scale with the returned alpha, and each budget is meant to
    be 3x the scaled mean (relative overflow 2).  Alpha is the base scale
    times the least factor of the scale grid (1.02^i in [1, 64]) at which
    the closed-form start bound goes positive, found by bisection
    (`_least_grid_index`): the bound's subtracted sum falls as alpha rises.
    Where its inflate (1 - q)^(-a k) passes the float range, alpha is not
    valid.  If no factor is valid, the instance family is too tight and a
    ParameterError suggests remedies.  The predicate runs on Python floats:
    the costs are few, and numpy calls on so short an array cost more than
    the arithmetic.
    """
    values = [float(y) for y in objective_values]
    if not values:
        raise ValueError("need at least one criterion")
    if any(y <= 0.0 for y in values):
        raise ParameterError("objective values must be positive")
    ell = len(values)
    k = _subset_order(ell)
    base = max((math.log(a) + math.log(math.log(2.0 * ell))) / min_demand, 1.0)

    def valid(factor: float) -> bool:
        alpha = factor * base
        if alpha <= 1.0:
            return False
        q = lower_tail_bound(min_demand, alpha)
        nus = [alpha * y for y in values]
        if not all(3.0 * nu > k - 1 for nu in nus):
            return False
        try:
            inflate = (1.0 - q) ** (-a * k)
        except (OverflowError, ZeroDivisionError):  # past the float range
            return False
        total = 0.0
        for nu in nus:  # nu^k / C(3 nu, k), whose k! cancels
            total += math.prod(nu / (3.0 * nu - i) for i in range(k)) * inflate
        return total < 1.0

    index = _least_grid_index(valid)
    if index is None:
        raise ParameterError(
            "no scale factor up to 64x the base makes the start bound positive; "
            "increase the demands or reduce the column sparsity"
        )
    chosen = _SCALE_GRID[index] * base
    threshold = math.log2(2.0 * ell) ** 2
    if any(chosen * y < threshold for y in values):
        warnings.warn(
            f"scaled means fall below {threshold:.2f}; budget caps may be loose",
            stacklevel=2,
        )
    return chosen


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def _compensated_add(total, error, step):
    """total + step, with the rounding error of the addition added to error
    (Knuth's two-sum, also elementwise): the sum is total + error."""
    new = total + step
    back = new - total
    return new, error + ((total - (new - back)) + (step - back))


class _FixingSums:
    """The estimator along `derandomize`'s path, carried as running sums.

    They start from `_evaluate` at the state's point, whose value is
    `start`; a positive start leaves no row dead.  Per unsatisfied row they
    keep log(1 - chp_i) and their sum `total_log`; per cost, each table
    subset's e_s and the order sums B_0..B_k as `sums + errors`.  The value
    is exp(total_log) * (1 - sum_t A_t / denom_t), A_t over the free bits
    not yet fixed.  The sums are compensated, so thousands of steps add no
    drift.

    A branched bit j, whose column meets an unsatisfied row, moves the
    bounds of those rows (the scheme's `col_slots`), recomputed from the
    scheme's `bound_*` arrays, and with them the B_i of every table subset
    that touches one, the subsets holding j among them: each takes
    e_s * f_s * exp(-dseg_s), with dseg_s the change of seg_s and f_s the
    branch's bit / p_j on a subset holding j, 1 on any other.  A branch
    that kills a row (clamps its bound at 1) has an exact value of at most
    0, and `derandomize` never keeps it, so it is priced -inf instead.

    A free bit, whose column meets no unsatisfied row, moves no row bound
    and no subset: fixed at 0 it only advances `fixed`, the row of
    `free_factors` the terms read.  Rounding is monotone, so its 1-branch
    value never exceeds the 0-branch value, which never falls below the
    current one, and the tie rule keeps 0: `zero_run` fixes a run of free
    bits at 0 without pricing their 1-branches.
    """

    def __init__(self, state: EstimatorState):
        scheme = self.scheme = state.scheme
        budget = self.budget = state.budget
        self.p = state.p.copy()
        self.start, self.log_clear, self.total_log, self.e = _evaluate(state)
        self.total_log_error = 0.0
        self.bound_lengths = np.diff(scheme.bound_starts, append=scheme.bound_cols.size)
        self.sums = self.e @ budget.one_hot
        self.sums[:, 0] = 1.0
        self.errors = np.zeros_like(self.sums)
        self.fixed = 0
        # each B_i's coefficient in the value's subtracted part: e_{k-i}(w_F) / denom
        self.coefficients = (budget.free_factors[0] / budget.denoms[:, None]).ravel()
        # unsatisfied row s's subsets are by_row[row_ptr[s]:row_ptr[s + 1]]
        self.row_ptr, self.by_row = _csr(budget.flat_rows, budget.owner, scheme.unsatisfied.size)
        self._pending = None

    def branches(self, j: int) -> tuple[float, float]:
        """The estimator values with branched bit j fixed at 0 and at 1,
        -inf for a branch that kills a row; `keep` then moves to one of
        them.  Each is priced over the subsets that touch a row of column
        j, the subsets holding j among them."""
        scheme, p, budget = self.scheme, self.p, self.budget
        slots = scheme.col_slots[scheme.col_ptr[j]:scheme.col_ptr[j + 1]]
        # both branches' bounds on the rows of column j
        lengths = self.bound_lengths[slots]
        nz = _spans(scheme.bound_starts[slots], lengths)
        cols = scheme.bound_cols[nz]
        bits = np.where(cols == j, [[0.0], [1.0]], p[cols])
        log_clear, dead = _log_clear(_clamped_bounds(bits, scheme.bound_gain[nz],
                                                     np.cumsum(lengths) - lengths,
                                                     scheme.bound_shift[slots]))
        delta = log_clear - self.log_clear[slots]
        moved = delta.sum(axis=1)  # change of total_log in each branch
        lengths = self.row_ptr[slots + 1] - self.row_ptr[slots]
        touched, owner = np.unique(self.by_row[_spans(self.row_ptr[slots], lengths)],
                                   return_inverse=True)
        # per branch and subset, the change of seg over its moved rows
        row_of = np.repeat(np.arange(slots.size), lengths)
        dseg = np.bincount(np.concatenate([owner, owner + touched.size]),
                           weights=delta[:, row_of].ravel(),
                           minlength=2 * touched.size).reshape(2, -1)
        factor = [[0.0], [1.0 / p[j]]]  # of the subsets holding j
        scale = np.where(np.any(budget.cols[touched] == j, axis=1), factor, 1.0) * np.exp(-dseg)
        before = self.e[:, touched]
        after = scale[:, None, :] * before  # per branch, cost and touched subset
        change = (after - before) @ budget.one_hot[touched]
        subtracted = (self.sums + (self.errors + change)).reshape(2, -1) @ self.coefficients
        total_log = self.total_log + (self.total_log_error + moved)
        values = np.where(dead.any(axis=1), -np.inf, np.exp(total_log) * (1.0 - subtracted))
        self._pending = (j, slots, log_clear, moved, touched, after, change)
        return float(values[0]), float(values[1])

    def keep(self, bit: float) -> None:
        """Move to the branch of the last `branches` call with the given
        bit, one that kills no row: its row bounds and its subsets' e_s."""
        j, slots, log_clear, moved, touched, after, change = self._pending
        b = int(bit)
        self.p[j] = bit
        self.log_clear[slots] = log_clear[b]
        self.total_log, self.total_log_error = _compensated_add(
            self.total_log, self.total_log_error, float(moved[b]))
        self.e[:, touched] = after[b]
        self.sums, self.errors = _compensated_add(self.sums, self.errors, change[b])

    def zero_run(self, run: np.ndarray) -> list[float]:
        """Fix the free bits of `run`, in order, at 0, and return the
        estimator value after each: the 0-branch values, in exact
        arithmetic none below the one before.  Each bit only advances the
        row of the free factors."""
        self.p[run] = 0.0
        self.fixed += run.size
        budget = self.budget
        coefficients = (budget.free_factors[self.fixed - run.size + 1:self.fixed + 1]
                        / budget.denoms[:, None]).reshape(run.size, -1)
        self.coefficients = coefficients[-1]
        # total_log stays put, so one exponential serves the whole run
        scale = np.exp(self.total_log + self.total_log_error)
        return (scale * (1.0 - coefficients @ (self.sums + self.errors).ravel())).tolist()


def derandomize(state: EstimatorState) -> RoundedSolution:
    """Fix the bits one by one, keeping the estimator positive throughout.

    Each fractional coordinate (lowest index first) takes the integral
    setting of the larger estimator value, ties going to 0.  The estimator
    is convex along each coordinate, so the kept value never drops more
    than round-off below the current one.  The check is relative, as the
    estimator can start far below 1e-9 (near 1e-21 on a 400x720 cover): a
    kept value below current * (1 - BRANCH_TOL) raises EstimatorError.  So
    the value stays positive, and a branch that kills a row, whose exact
    value is at most 0, is never kept.  A start at or below 0 certifies
    nothing, so the parameters are too tight: ParameterError.

    The values come from `_FixingSums`, so a branched bit costs work on its
    rows and the table subsets that touch them only.  A free bit, whose
    column meets no unsatisfied row, keeps 0 without lowering the value
    (see `_FixingSums`), so each run of consecutive free bits is fixed in
    one `zero_run`, which prices only their 0-branches, from the free
    factors' suffix tables.  `evaluations` counts the values priced: the
    start, one per free bit and two per branched bit.  The final point is
    re-validated: every demand covered and every cost increment within its
    budget, else an internal-consistency error.
    """
    scheme = state.scheme
    instance = scheme.instance
    sums = _FixingSums(state)
    if sums.start <= 0.0:
        raise ParameterError(
            f"estimator must start positive, got {sums.start:.4g}; raise the budgets"
        )
    trace = [sums.start]
    branched = 0
    free = (np.diff(scheme.col_ptr) == 0).tolist()
    bits = np.flatnonzero((state.p > 0.0) & (state.p < 1.0)).tolist()
    for is_free, run in itertools.groupby(bits, key=free.__getitem__):
        if is_free:
            trace.extend(sums.zero_run(np.array(list(run))))
            continue
        for j in run:
            current = trace[-1]
            phi_zero, phi_one = sums.branches(j)
            branched += 1
            if max(phi_zero, phi_one) < current * (1.0 - BRANCH_TOL):
                raise EstimatorError(
                    f"both branches dropped below the current bound at bit {j}: "
                    f"{current} -> ({phi_zero}, {phi_one})"
                )
            bit = 1.0 if phi_one > phi_zero else 0.0
            sums.keep(bit)
            trace.append(phi_one if bit else phi_zero)
    z = scheme.floor + sums.p
    loads = instance.loads(z)
    if np.any(loads < instance.demands - BRANCH_TOL):
        raise EstimatorError("derandomized point misses a demand; estimator inconsistent")
    increments = [float(c @ sums.p) for c in instance.costs]
    if any(inc > lam + BRANCH_TOL for inc, lam in zip(increments, state.lambdas)):
        raise EstimatorError("derandomized point exceeds a budget; estimator inconsistent")
    objectives = tuple(float(c @ z) for c in instance.costs)
    return RoundedSolution(
        z=z,
        feasible=True,
        objective_values=objectives,
        trace=tuple(trace),
        evaluations=len(trace) + branched,
    )


def choose_parameters(instance: CipInstance, x, alpha: float | None = None,
                      beta: float | None = None, total_budgets=None):
    """The one place the rounding parameters of a fractional cover are fixed,
    by one rule for any number l of costs.

    The default alpha and beta come from `choose_alpha_beta` when l = 1;
    otherwise alpha comes from `multicriteria_params` and beta is 3.  Every
    budget term has order `_subset_order(l)`, which is 1 at l = 1, and the
    default total budget of cost t is alpha * beta * y*_t.  `make_scheme`
    checks alpha before any budget is priced.  Total budgets are converted
    to increment budgets by subtracting the floor costs of the scheme.
    Raises ValueError for a point with a negative or non-finite entry, the
    errors of `make_scheme`, and ParameterError for a beta or a total
    budget that is not finite.

    Returns (scheme, increment budgets, subset orders, info dict).
    """
    x = _checked_point(x, instance.n, "column")
    a = column_sparsity(instance)
    min_demand = float(instance.demands.min())
    with np.errstate(over="ignore"):  # past the float range, alpha * x fails in make_scheme
        objective_values = [float(c @ x) for c in instance.costs]
    ell = len(objective_values)
    if ell == 1 and (alpha is None or beta is None):
        chosen_alpha, chosen_beta = choose_alpha_beta(a, min_demand)
        alpha = chosen_alpha if alpha is None else alpha
        beta = chosen_beta if beta is None else beta
    elif alpha is None:
        alpha = multicriteria_params(objective_values, a, min_demand)
    beta = 3.0 if beta is None else beta
    scheme = make_scheme(instance, x, alpha)
    if not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")
    if total_budgets is None:
        total_budgets = [alpha * beta * y for y in objective_values]
    if not all(math.isfinite(b) for b in total_budgets):
        raise ParameterError("every total budget must be finite")
    ks = [_subset_order(ell)] * ell
    lambdas = [float(b) - fc for b, fc in zip(total_budgets, scheme.floor_costs, strict=True)]
    if any(lam < 0.0 or lam == 0.0 and np.any((c > 0.0) & (scheme.frac > 0.0))
           for lam, c in zip(lambdas, instance.costs)):
        raise ParameterError("a total budget falls below the floor cost; raise the budget")
    info = {
        "alpha": float(alpha),
        "beta": float(beta),
        "ks": list(ks),
        "lambdas": [float(l) for l in lambdas],
        "total_budgets": [float(b) for b in total_budgets],
        "y_star": objective_values,
    }
    return scheme, lambdas, ks, info


def round_cip(instance: CipInstance, x, alpha: float | None = None, beta: float | None = None,
              total_budgets=None):
    """End-to-end deterministic rounding of a feasible fractional cover, with
    the parameters from `choose_parameters`.

    Returns (solution, info dict): the parameters used, and the work counts
    `evaluations` (estimator values priced), `table_subsets` (rows of the
    shared subset table) and `branched_bits` (random bits that meet an
    unsatisfied row).
    """
    scheme, lambdas, ks, info = choose_parameters(instance, x, alpha, beta, total_budgets)
    state = make_estimator(scheme, lambdas, ks)
    solution = derandomize(state)
    info["evaluations"] = solution.evaluations
    info["table_subsets"] = int(state.budget.cols.shape[0])
    info["branched_bits"] = int(np.count_nonzero((state.p > 0.0) & (np.diff(scheme.col_ptr) > 0)))
    return solution, info
