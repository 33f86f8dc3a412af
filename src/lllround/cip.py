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
from dataclasses import dataclass, field

import numpy as np

from .model import CipInstance, _csr, sparsity_stats
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
    "success_lower_bound",
    "standard_certificate",
    "multicriteria_params",
    "make_estimator",
    "derandomize",
    "round_cip",
]

NEAR_ONE_GUARD = 1e-12  # complement factors below this switch to direct handling
BRANCH_TOL = 1e-9
# Largest subset order the budget tables enumerate.  The order ceil(ln 2l)
# first exceeds it at l = 202 cost vectors.
SUBSET_ORDER_CAP = 6


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
    plus Bernoulli bits.  Requires alpha > 1 and slack at most 1e-6, and
    raises ParameterError for a row whose deviation falls outside (0, 1)."""
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


def _row_bounds(scheme: RoundingScheme, p: np.ndarray) -> np.ndarray:
    """Clamped per-row failure bounds at bit probabilities p, in log space
    over each row's nonzero columns only, all rows in one pass.  Satisfied
    rows are 0."""
    out = np.zeros(scheme.instance.m)
    if scheme.unsatisfied.size:
        factors = 1.0 - p[scheme.bound_cols] * scheme.bound_gain
        log_ch = np.add.reduceat(np.log(factors), scheme.bound_starts) - scheme.bound_shift
        out[scheme.unsatisfied] = np.exp(np.minimum(log_ch, 0.0))
    return out


@dataclass(frozen=True, eq=False)
class _BudgetTerm:
    """One cost's order-k subsets of the columns with a positive cost and
    p > 0: their columns, and per subset the ascending union of its
    unsatisfied rows, as positions in `scheme.unsatisfied`, in `flat_rows`
    with the subset that owns each entry in `owner`."""

    denom: float  # C(lambda, k)
    cost: np.ndarray
    cols: np.ndarray  # (n_subsets, k), in lexicographic order
    flat_rows: np.ndarray  # grouped by owner, ascending within a subset
    owner: np.ndarray

    def log_weights(self, p: np.ndarray) -> np.ndarray:
        """log prod_{j in S} c_j p_j of every subset; -inf prunes zeros."""
        with np.errstate(divide="ignore"):
            return np.log(self.cost[self.cols] * p[self.cols]).sum(axis=1)

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of values (one per unsatisfied row) over each subset's rows,
        added in row order; 0 for a subset that covers no row."""
        return np.bincount(self.owner, weights=values[self.flat_rows],
                           minlength=self.cols.shape[0])


def _subset_terms(scheme: RoundingScheme, lambdas, ks, p: np.ndarray) -> tuple[_BudgetTerm, ...]:
    """The budget terms at bit probabilities p, one per criterion: the
    order-k subsets of the columns with a positive cost and p > 0,
    enumerated into arrays with the unsatisfied rows each subset touches.
    Any other subset holds a bit at p = 0 and weighs exactly 0."""
    n, u = scheme.instance.n, scheme.unsatisfied.size
    # each column's unsatisfied rows, padded with the sentinel u
    degree = np.diff(scheme.col_ptr)
    padded = np.full((n, int(degree.max(initial=0))), u, dtype=np.int64)
    entry_cols = np.repeat(np.arange(n), degree)
    depth = np.arange(scheme.col_slots.size) - scheme.col_ptr[entry_cols]
    padded[entry_cols, depth] = scheme.col_slots
    terms = []
    for cost, lam, k in zip(scheme.instance.costs, lambdas, ks, strict=True):
        k = int(k)
        support = np.flatnonzero((cost > 0.0) & (p > 0.0)).tolist()
        # with fewer positive-cost random bits than k the table is empty and
        # the term subtracts nothing
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(support, k)), dtype=np.int64
        ).reshape(-1, k)
        # each subset's rows, sorted, keeping the first copy of each below u
        rows = padded[cols].reshape(cols.shape[0], k * padded.shape[1])
        rows.sort(axis=1)
        keep = rows < u
        keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        terms.append(_BudgetTerm(
            # positive: make_estimator keeps lam > 0 at k = 1 and lam >= k above
            denom=binomial_real(float(lam), k),
            cost=cost,
            cols=cols,
            flat_rows=rows[keep],
            owner=np.nonzero(keep)[0],
        ))
    return tuple(terms)


@dataclass(frozen=True)
class EstimatorState:
    """The estimator of one scheme and one family of budget terms at one
    point: the bit probabilities, their row bounds and the budget terms'
    subset tables over the point's random bits.  Frozen: `at` builds the
    state at another point."""

    scheme: RoundingScheme
    p: np.ndarray
    lambdas: np.ndarray  # increment budgets, one per criterion
    ks: np.ndarray  # subset orders, one per criterion
    chp: np.ndarray  # clamped row failure bounds at p
    terms: tuple[_BudgetTerm, ...] = field(repr=False)

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
                          terms=_subset_terms(scheme, lambdas, ks, p))


def make_estimator(scheme: RoundingScheme, lambdas, ks) -> EstimatorState:
    """The estimator at the scheme's bit probabilities.  Raises
    ParameterError unless there is one budget and one subset order per cost
    vector, each order in [1, min(n, SUBSET_ORDER_CAP)], and each budget
    positive at order 1 and at least the order above it."""
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
            if lam <= 0.0:
                raise ParameterError(f"budget must be positive, got {lam}")
        elif lam < k:
            raise ParameterError(f"budget {lam} below subset order {k}")
    return _state_at(scheme, lambdas, ks, scheme.frac)


def _evaluate(state: EstimatorState) -> tuple[float, np.ndarray, float, list[np.ndarray]]:
    """The estimator at the state's own point: (value, log_clear, total_log,
    es).  The value is the all-rows-survive product minus the budget
    overflow terms, with near-one row bounds handled exactly; a satisfied
    row holds for certain and contributes the factor 1.  log_clear is each
    unsatisfied row's log(1 - chp), 0 on a dead row, and total_log their
    sum; es holds per budget term each subset's e_s = w_s(p) * exp(-seg_s),
    seg_s summing log_clear over its rows, or 0 if it misses a dead row."""
    p, chp = state.p, state.chp[state.scheme.unsatisfied]
    dead = chp >= 1.0 - NEAR_ONE_GUARD
    n_dead = int(dead.sum())
    with np.errstate(divide="ignore"):
        # dead rows carry an exact factor of 0, tracked by count instead
        log_clear = np.where(dead, 0.0, np.log1p(-np.minimum(chp, 1.0)))
    total_log = float(log_clear.sum())
    lead = math.exp(total_log) if n_dead == 0 else 0.0
    subtracted = 0.0
    es = []
    for term in state.terms:
        log_w = term.log_weights(p)
        seg = term.segment_sums(log_clear)
        # exp(-inf) = 0 drops the subsets with a zero weight; exp(total_log)
        # stays inside, as factoring it out gives inf * 0 once it underflows
        contrib = np.exp(log_w + (total_log - seg))
        e = np.exp(log_w - seg)
        if n_dead:
            # a subset counts only if its rows hold every dead row
            misses = term.segment_sums(dead.astype(np.int64)) != n_dead
            contrib[misses] = 0.0
            e[misses] = 0.0
        subtracted += float(contrib.sum()) / term.denom
        es.append(e)
    return lead - subtracted, log_clear, total_log, es


def success_lower_bound(state: EstimatorState) -> float:
    """Lower bound on Pr(all demands hold and all increment budgets hold)."""
    return _evaluate(state)[0]


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
    estimate = success_lower_bound(make_estimator(scheme, lambdas, ks))
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


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(offsets[-1] + lengths[-1])


def _compensated_add(total: float, error: float, step: float) -> tuple[float, float]:
    """total + step, with the rounding error of the addition added to error
    (Neumaier's summation): the sum is total + error."""
    new = total + step
    if abs(total) >= abs(step):
        return new, error + ((total - new) + step)
    return new, error + ((step - new) + total)


@dataclass(eq=False)
class _TermSums:
    """One budget term along the fixing path: each subset's
    e_s = w_s(p) * exp(-seg_s), their compensated sum A = total + error,
    and the subsets of each column and of each unsatisfied row (by its
    position in `scheme.unsatisfied`)."""

    term: _BudgetTerm
    e: np.ndarray
    total: float
    error: float
    col_ptr: np.ndarray  # column j's subsets are by_col[col_ptr[j]:col_ptr[j + 1]]
    by_col: np.ndarray
    row_ptr: np.ndarray  # unsatisfied row s's subsets are by_row[row_ptr[s]:row_ptr[s + 1]]
    by_row: np.ndarray


class _FixingSums:
    """The estimator along `derandomize`'s path, carried as running sums.

    They start from `_evaluate` at the state's point, whose value is
    `start`; a positive start leaves no row dead.  Per unsatisfied row they
    keep log(1 - chp_i) and their sum `total_log`; per budget term, a
    `_TermSums`.  The value is exp(total_log) * (1 - sum_t A_t / denom_t).
    Both sums are compensated, so thousands of steps add no drift.  Fixing
    bit j moves only the subsets that hold j, whose weight is linear in
    p_j, and the subsets that touch an unsatisfied row of column j (the
    scheme's `col_slots`), whose bounds are recomputed from the scheme's
    `bound_*` arrays.  A branch that kills a row keeps only the subsets
    that hold every dead row, and those all touch a row of column j.

    A free bit, whose column meets no unsatisfied row, moves no row bound:
    its 0-branch subtracts E_j, the sum of e_s over the subsets holding j,
    from every A_t, and its 1-branch adds E_j / p_j - E_j >= 0.  Rounding
    is monotone, so the 1-branch value never exceeds the 0-branch value
    and the tie rule keeps 0: `zero_run` fixes a run of free bits at 0
    without pricing their 1-branches, and `branches` sees only the other
    bits.
    """

    def __init__(self, state: EstimatorState):
        scheme = self.scheme = state.scheme
        n, u = scheme.instance.n, scheme.unsatisfied.size
        self.p = state.p.copy()
        self.start, self.log_clear, self.total_log, es = _evaluate(state)
        self.total_log_error = 0.0
        self.bound_lengths = np.diff(scheme.bound_starts, append=scheme.bound_cols.size)
        self.terms = []
        for term, e in zip(state.terms, es):
            n_subsets, k = term.cols.shape
            col_ptr, by_col = _csr(term.cols.ravel(), np.arange(n_subsets * k) // k, n)
            row_ptr, by_row = _csr(term.flat_rows, term.owner, u)
            self.terms.append(_TermSums(term, e, float(e.sum()), 0.0, col_ptr, by_col, row_ptr,
                                        by_row))
        self._pending = None

    def branches(self, j: int) -> tuple[float, float]:
        """The estimator values with bit j fixed at 0 and at 1; `keep`
        then moves to one of them.  Column j has an unsatisfied row."""
        scheme, p = self.scheme, self.p
        pj = float(p[j])
        slots = scheme.col_slots[scheme.col_ptr[j]:scheme.col_ptr[j + 1]]
        # both branches' bounds on the rows of column j, each row summed
        # over its nonzeros as `_row_bounds` sums it
        lengths = self.bound_lengths[slots]
        nz = _spans(scheme.bound_starts[slots], lengths)
        cols = scheme.bound_cols[nz]
        bits = np.where(cols == j, [[0.0], [1.0]], p[cols])
        log_ch = (np.add.reduceat(np.log(1.0 - bits * scheme.bound_gain[nz]),
                                  np.cumsum(lengths) - lengths, axis=1)
                  - scheme.bound_shift[slots])
        chp = np.exp(np.minimum(log_ch, 0.0))
        dead = chp >= 1.0 - NEAR_ONE_GUARD
        n_dead = dead.sum(axis=1)
        with np.errstate(divide="ignore"):
            log_clear = np.where(dead, 0.0, np.log1p(-chp))
        delta = log_clear - self.log_clear[slots]
        moved = delta.sum(axis=1)  # change of total_log in each branch
        total_log = self.total_log + (self.total_log_error + moved)
        alive = n_dead == 0
        subtracted = np.zeros(2)
        steps = []
        for t in self.terms:
            held = t.by_col[t.col_ptr[j]:t.col_ptr[j + 1]]
            held_sum = float(t.e[held].sum())
            # the subsets holding j take the branch's weights
            change = np.array([-held_sum, held_sum / pj - held_sum])
            touched = growth = None
            after = 0.0
            # the subsets touching the moved rows: their sums before and
            # after the rows move; only they can hold a dead row
            lengths = t.row_ptr[slots + 1] - t.row_ptr[slots]
            if lengths.any():
                entries = t.by_row[_spans(t.row_ptr[slots], lengths)]
                touched, owner = np.unique(entries, return_inverse=True)
                row_of = np.repeat(np.arange(slots.size), lengths)
                weights = np.where(np.any(t.term.cols[touched] == j, axis=1),
                                   [[0.0], [1.0 / pj]], 1.0) * t.e[touched]
                # per subset and branch, sums over its moved rows
                cells = np.concatenate([owner, owner + touched.size])
                growth, holds_dead = (
                    np.bincount(cells, weights=v[:, row_of].ravel(),
                                minlength=2 * touched.size).reshape(2, -1)
                    for v in (delta, dead))
                growth = np.exp(-growth)
                holds_dead = holds_dead == n_dead[:, None]
                after = (weights * growth * holds_dead).sum(axis=1)
                change = change - weights.sum(axis=1) + after
            sums = np.where(alive, t.total + (t.error + change), after)
            subtracted += sums / t.term.denom
            steps.append((held, touched, growth, change))
        values = np.exp(total_log) * (alive - subtracted)
        self._pending = (j, pj, slots, log_clear, moved, n_dead, steps)
        return float(values[0]), float(values[1])

    def keep(self, bit: float) -> None:
        """Move to the branch of the last `branches` call with the given bit."""
        j, pj, slots, log_clear, moved, n_dead, steps = self._pending
        b = int(bit)
        if n_dead[b]:
            raise EstimatorError(f"the kept branch at bit {j} has a row bound clamped at 1")
        self.p[j] = bit
        self.log_clear[slots] = log_clear[b]
        self.total_log, self.total_log_error = _compensated_add(
            self.total_log, self.total_log_error, float(moved[b]))
        for t, (held, touched, growth, change) in zip(self.terms, steps):
            t.e[held] *= bit / pj
            if touched is not None:
                t.e[touched] *= growth[b]
            t.total, t.error = _compensated_add(t.total, t.error, float(change[b]))

    def zero_run(self, run: np.ndarray) -> list[float]:
        """Fix the free bits of `run`, in order, at 0, and return the
        estimator value after each: the values `branches` would give their
        0-branches, with the sums `keep` would carry.  A free bit moves no
        row, so only the subsets holding it change, and each subset is
        zeroed by its first bit in the run."""
        held = []
        for t in self.terms:
            lengths = t.col_ptr[run + 1] - t.col_ptr[run]
            entries = t.by_col[_spans(t.col_ptr[run], lengths)]
            subsets, first = np.unique(entries, return_index=True)
            step_of = np.repeat(np.arange(run.size), lengths)[first]
            held.append(np.bincount(step_of, weights=t.e[subsets], minlength=run.size).tolist())
            t.e[subsets] = 0.0
        self.p[run] = 0.0
        # total_log stays put, so one exponential serves the whole run
        scale = np.exp(self.total_log + self.total_log_error)
        values = []
        for step in zip(*held):
            subtracted = 0.0
            for t, held_sum in zip(self.terms, step):
                subtracted += (t.total + (t.error - held_sum)) / t.term.denom
                t.total, t.error = _compensated_add(t.total, t.error, -held_sum)
            values.append(float(scale * (1.0 - subtracted)))
        return values


def derandomize(state: EstimatorState) -> RoundedSolution:
    """Fix the bits one by one, keeping the estimator positive throughout.

    Each fractional coordinate (lowest index first) is evaluated at both of
    its integral settings; the better branch is kept, ties going to 0.  The
    estimator is convex along each coordinate, so the better branch never
    drops more than round-off below the current value — asserted at 1e-9.
    A start at or below 0 certifies nothing, so the parameters are too
    tight: ParameterError.  The start and branch values come from
    `_FixingSums`, so a bit costs work on its column's subsets and rows
    only.  A free bit, whose column meets no unsatisfied row, always keeps
    0 (see `_FixingSums`), so each run of consecutive free bits is fixed in
    one pass and prices only its 0-branches.  The final point is
    re-validated: every demand covered and every cost increment within its
    budget, else an internal-consistency error.
    """
    scheme = state.scheme
    instance = scheme.instance
    sums = _FixingSums(state)
    current = sums.start
    if current <= 0.0:
        raise ParameterError(
            f"estimator must start positive, got {current:.4g}; raise the budgets"
        )
    trace = [current]
    free = (np.diff(scheme.col_ptr) == 0).tolist()
    bits = np.flatnonzero((state.p > 0.0) & (state.p < 1.0)).tolist()
    for is_free, run in itertools.groupby(bits, key=free.__getitem__):
        if is_free:
            run = list(run)
            for j, phi_zero in zip(run, sums.zero_run(np.array(run)), strict=True):
                if phi_zero < current - BRANCH_TOL:
                    raise EstimatorError(f"the 0-branch of free bit {j} dropped below the "
                                         f"current bound: {current} -> {phi_zero}")
                current = phi_zero
                trace.append(current)
            continue
        for j in run:
            phi_zero, phi_one = sums.branches(j)
            if max(phi_zero, phi_one) < current - BRANCH_TOL:
                raise EstimatorError(
                    f"both branches dropped below the current bound at bit {j}: "
                    f"{current} -> ({phi_zero}, {phi_one})"
                )
            bit = 1.0 if phi_one > phi_zero else 0.0
            current = phi_one if bit else phi_zero
            sums.keep(bit)
            trace.append(current)
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
              total_budgets=None):
    """End-to-end deterministic rounding of a feasible fractional cover, with
    the parameters from `choose_parameters`.

    Returns (solution, info dict with the parameters used).
    """
    scheme, lambdas, ks, info = choose_parameters(instance, x, alpha, beta, total_budgets)
    state = make_estimator(scheme, lambdas, ks)
    solution = derandomize(state)
    # the start point once, then both branches of a bit whose column meets
    # an unsatisfied row and the 0-branch of every other bit
    random = (state.p > 0.0) & (state.p < 1.0)
    branched = int(np.count_nonzero(np.diff(scheme.col_ptr)[random]))
    info["evaluations"] = len(solution.trace) + branched
    return solution, info
