"""The covering estimator's subset tables and evaluation in their first,
object-by-object form, kept as a test-only reference for `lllround.cip`.

Each subset's rows are one `np.unique` over its columns' rows, each
segment sum is a difference of one global cumsum, and the row bounds are
one loop over the rows.  `reference_multicriteria_params` is the
multicriteria factor scan in its numpy form, over an array of the scaled
means.  `standard_certificate` is the closed-form start check, a product
bound below the estimator through `esym_mean_bound`.

`table_terms`, `table_evaluate`, `TableFixingSums` and `table_derandomize`
are the estimator in its table form: one table per cost of every order-k
subset of the random bits with a positive cost, free bits included, each
subset zeroed on its own along the fixing path.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from lllround import (binomial_real, column_sparsity, lower_tail_bound, make_estimator,
                      success_lower_bound)
from lllround.cip import (ParameterError, _clamped_bounds, _compensated_add, _log_clear, _spans,
                          _subset_order)
from lllround.model import _csr

from _builders import col_rows

NEAR_ONE_GUARD = 1e-12


def reference_row_bounds(scheme, p, rows=None):
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


def reference_terms(scheme, lambdas, ks):
    """Per cost: (denom, cost, cols, flat_rows, starts, ends)."""
    instance = scheme.instance
    terms = []
    for cost, lam, k in zip(instance.costs, lambdas, ks, strict=True):
        support = np.flatnonzero(cost > 0.0)
        subsets = list(itertools.combinations(support.tolist(), int(k)))
        cols = np.array(subsets, dtype=np.int64).reshape(len(subsets), int(k))
        row_lists = [
            np.unique(np.concatenate([col_rows(instance, j) for j in subset]))
            for subset in subsets
        ]
        lengths = np.array([len(r) for r in row_lists], dtype=np.int64)
        flat_rows = np.concatenate([np.empty(0, dtype=np.int64), *row_lists])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        terms.append((binomial_real(float(lam), int(k)), cost, cols, flat_rows, starts, ends))
    return terms


def reference_value(terms, p, chp):
    dead = chp >= 1.0 - NEAR_ONE_GUARD
    n_dead = int(dead.sum())
    with np.errstate(divide="ignore"):
        log_clear = np.where(dead, 0.0, np.log1p(-np.minimum(chp, 1.0)))
    total_log = float(log_clear.sum())
    lead = math.exp(total_log) if n_dead == 0 else 0.0
    subtracted = 0.0
    for denom, cost, cols, flat_rows, starts, ends in terms:
        with np.errstate(divide="ignore"):
            log_w = np.log(cost[cols] * p[cols]).sum(axis=1)
        cs = np.concatenate([[0.0], np.cumsum(log_clear[flat_rows])])
        seg_log = cs[ends] - cs[starts]
        dcs = np.concatenate([[0], np.cumsum(dead[flat_rows].astype(np.int64))])
        seg_dead = dcs[ends] - dcs[starts]
        complement_ok = seg_dead == n_dead
        with np.errstate(invalid="ignore"):
            contrib = np.where(
                complement_ok & np.isfinite(log_w),
                np.exp(np.where(np.isfinite(log_w), log_w, 0.0) + (total_log - seg_log)),
                0.0,
            )
        subtracted += float(contrib.sum()) / denom
    return lead - subtracted


def reference_derandomize(state):
    """The fixing loop over the reference values and row bounds: (z, trace)."""
    scheme = state.scheme
    terms = reference_terms(scheme, state.lambdas, state.ks)
    current = reference_value(terms, state.p, reference_row_bounds(scheme, state.p))
    trace = [current]
    cols = np.arange(state.p.size)
    for j in cols:
        if state.p[j] == 0.0 or state.p[j] == 1.0:
            continue
        zero, one = (state.at(np.where(cols == j, bit, state.p)) for bit in (0.0, 1.0))
        phi_zero = reference_value(terms, zero.p, reference_row_bounds(scheme, zero.p))
        phi_one = reference_value(terms, one.p, reference_row_bounds(scheme, one.p))
        if phi_one > phi_zero:
            state, current = one, phi_one
        else:
            state, current = zero, phi_zero
        trace.append(current)
    return scheme.floor + state.p, trace


def reference_multicriteria_params(objective_values, a, min_demand):
    """Scale factor for l = len(objective_values) costs, each step's scaled
    means one array, the scale grid grown in the loop."""
    objective_values = np.asarray(objective_values, dtype=float)
    if objective_values.size == 0:
        raise ValueError("need at least one criterion")
    if np.any(objective_values <= 0.0):
        raise ParameterError("objective values must be positive")
    n_criteria = objective_values.size
    k = _subset_order(n_criteria)
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
    return chosen


def esym_mean_bound(n: int, mu: float, k: int) -> float:
    """Bound C(n,k) * (mu/n)^k on the expected k-th elementary symmetric
    polynomial of n independent [0,1] variables whose means sum to mu.
    """
    if k < 1 or k > n:
        raise ValueError(f"order must lie in [1, {n}], got {k}")
    if mu < 0.0 or mu > n:
        raise ValueError(f"total mean must lie in [0, {n}], got {mu}")
    return binomial_real(float(n), k) * (mu / n) ** k


def standard_certificate(scheme, lambdas, ks):
    """Closed-form start check: a product-form lower bound on the estimator
    at the standard bit probabilities, plus the exact estimator value.

    Returns (positive, closed_form, estimate).  The closed form multiplies
    (1-q)^m by 1 minus the budget terms bounded through `esym_mean_bound`,
    so it never exceeds the exact estimator value.
    """
    instance = scheme.instance
    lambdas = np.asarray(lambdas, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    a = column_sparsity(instance)
    q = lower_tail_bound(float(instance.demands.min()), scheme.alpha)
    clear = (1.0 - q) ** instance.m
    total = 0.0
    for cost, lam, k in zip(instance.costs, lambdas, ks, strict=True):
        mean = float(cost @ scheme.frac)
        inflate = (1.0 - q) ** (-a * int(k))
        total += esym_mean_bound(instance.n, mean, int(k)) / binomial_real(float(lam), int(k)) * inflate
    closed_form = clear * (1.0 - total)
    estimate = success_lower_bound(make_estimator(scheme, lambdas, ks))
    return closed_form > 0.0, closed_form, estimate


@dataclass(frozen=True, eq=False)
class TableTerm:
    """One cost's order-k subsets of the columns with a positive cost and
    p > 0: their columns, and per subset the ascending union of its
    unsatisfied rows, as positions in `scheme.unsatisfied`, in `flat_rows`
    with the subset that owns each entry in `owner`."""

    denom: float  # C(lambda, k)
    cost: np.ndarray
    cols: np.ndarray  # (n_subsets, k), in lexicographic order
    flat_rows: np.ndarray  # grouped by owner, ascending within a subset
    owner: np.ndarray

    def log_weights(self, p):
        """log prod_{j in S} c_j p_j of every subset; -inf prunes zeros."""
        with np.errstate(divide="ignore"):
            return np.log(self.cost[self.cols] * p[self.cols]).sum(axis=1)

    def segment_sums(self, values):
        """Sum of values (one per unsatisfied row) over each subset's rows."""
        return np.bincount(self.owner, weights=values[self.flat_rows],
                           minlength=self.cols.shape[0])


def table_terms(scheme, lambdas, ks, p):
    """The budget tables at bit probabilities p, one per criterion, with
    `make_estimator`'s rule for a budget of 0."""
    n, u = scheme.instance.n, scheme.unsatisfied.size
    degree = np.diff(scheme.col_ptr)
    padded = np.full((n, int(degree.max(initial=0))), u, dtype=np.int64)
    entry_cols = np.repeat(np.arange(n), degree)
    depth = np.arange(scheme.col_slots.size) - scheme.col_ptr[entry_cols]
    padded[entry_cols, depth] = scheme.col_slots
    terms = []
    for cost, lam, k in zip(scheme.instance.costs, lambdas, ks, strict=True):
        k = int(k)
        support = np.flatnonzero((cost > 0.0) & (p > 0.0)).tolist()
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(support, k)), dtype=np.int64
        ).reshape(-1, k)
        if lam <= 0.0 and cols.size:
            raise ParameterError(f"budget must be positive, got {lam}")
        rows = padded[cols].reshape(cols.shape[0], k * padded.shape[1])
        rows.sort(axis=1)
        keep = rows < u
        keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        terms.append(TableTerm(binomial_real(float(lam), k) if lam != 0.0 else 1.0, cost, cols,
                               rows[keep], np.nonzero(keep)[0]))
    return terms


def table_evaluate(state):
    """(value, log_clear, total_log, es, sums) of the tables at the state's
    point: es holds per term each subset's w_S * exp(-seg_S), 0 if it
    misses a dead row, and sums their totals."""
    terms = table_terms(state.scheme, state.lambdas, state.ks, state.p)
    log_clear, dead = _log_clear(state.chp[state.scheme.unsatisfied])
    n_dead = int(dead.sum())
    total_log = float(log_clear.sum())
    lead = math.exp(total_log) if n_dead == 0 else 0.0
    subtracted = 0.0
    es = []
    for term in terms:
        log_w = term.log_weights(state.p)
        seg = term.segment_sums(log_clear)
        contrib = np.exp(log_w + (total_log - seg))
        e = np.exp(log_w - seg)
        if n_dead:
            misses = term.segment_sums(dead.astype(np.int64)) != n_dead
            contrib[misses] = 0.0
            e[misses] = 0.0
        subtracted += float(contrib.sum()) / term.denom
        es.append(e)
    return lead - subtracted, log_clear, total_log, terms, es


class TableFixingSums:
    """The tables' running sums along the fixing path: per term each
    subset's e_S and their compensated sum.  A free bit zeroes the subsets
    holding it; a branched bit moves the subsets touching its rows."""

    def __init__(self, state):
        scheme = self.scheme = state.scheme
        n, u = scheme.instance.n, scheme.unsatisfied.size
        self.p = state.p.copy()
        self.start, self.log_clear, self.total_log, terms, es = table_evaluate(state)
        self.total_log_error = 0.0
        self.bound_lengths = np.diff(scheme.bound_starts, append=scheme.bound_cols.size)
        self.terms = []
        for term, e in zip(terms, es):
            n_subsets, k = term.cols.shape
            col_ptr, by_col = _csr(term.cols.ravel(), np.arange(n_subsets * k) // k, n)
            row_ptr, by_row = _csr(term.flat_rows, term.owner, u)
            self.terms.append([term, e, float(e.sum()), 0.0, col_ptr, by_col, row_ptr, by_row])
        self._pending = None

    def branches(self, j):
        scheme, p = self.scheme, self.p
        slots = scheme.col_slots[scheme.col_ptr[j]:scheme.col_ptr[j + 1]]
        lengths = self.bound_lengths[slots]
        nz = _spans(scheme.bound_starts[slots], lengths)
        cols = scheme.bound_cols[nz]
        bits = np.where(cols == j, [[0.0], [1.0]], p[cols])
        log_clear, dead = _log_clear(_clamped_bounds(bits, scheme.bound_gain[nz],
                                                     np.cumsum(lengths) - lengths,
                                                     scheme.bound_shift[slots]))
        delta = log_clear - self.log_clear[slots]
        moved = delta.sum(axis=1)
        factor = [[0.0], [1.0 / p[j]]]
        subtracted = np.zeros(2)
        steps = []
        for term, e, total, error, _, _, row_ptr, by_row in self.terms:
            lengths = row_ptr[slots + 1] - row_ptr[slots]
            touched, owner = np.unique(by_row[_spans(row_ptr[slots], lengths)],
                                       return_inverse=True)
            row_of = np.repeat(np.arange(slots.size), lengths)
            dseg = np.bincount(np.concatenate([owner, owner + touched.size]),
                               weights=delta[:, row_of].ravel(),
                               minlength=2 * touched.size).reshape(2, -1)
            before = e[touched]
            after = (np.where(np.any(term.cols[touched] == j, axis=1), factor, 1.0) * before
                     * np.exp(-dseg))
            change = after.sum(axis=1) - before.sum()
            subtracted += (total + (error + change)) / term.denom
            steps.append((touched, after, change))
        total_log = self.total_log + (self.total_log_error + moved)
        values = np.where(dead.any(axis=1), -np.inf, np.exp(total_log) * (1.0 - subtracted))
        self._pending = (j, slots, log_clear, moved, steps)
        return float(values[0]), float(values[1])

    def keep(self, bit):
        j, slots, log_clear, moved, steps = self._pending
        b = int(bit)
        self.p[j] = bit
        self.log_clear[slots] = log_clear[b]
        self.total_log, self.total_log_error = _compensated_add(
            self.total_log, self.total_log_error, float(moved[b]))
        for t, (touched, after, change) in zip(self.terms, steps):
            t[1][touched] = after[b]
            t[2], t[3] = _compensated_add(t[2], t[3], float(change[b]))

    def zero_run(self, run):
        """Fix the free bits of `run` at 0, in order; the value after each.
        Each subset is zeroed by its first bit in the run."""
        held = []
        for t in self.terms:
            e, col_ptr, by_col = t[1], t[4], t[5]
            lengths = col_ptr[run + 1] - col_ptr[run]
            entries = by_col[_spans(col_ptr[run], lengths)]
            subsets, first = np.unique(entries, return_index=True)
            step_of = np.repeat(np.arange(run.size), lengths)[first]
            held.append(np.bincount(step_of, weights=e[subsets], minlength=run.size).tolist())
            e[subsets] = 0.0
        self.p[run] = 0.0
        scale = np.exp(self.total_log + self.total_log_error)
        values = []
        for step in zip(*held):
            subtracted = 0.0
            for t, held_sum in zip(self.terms, step):
                subtracted += (t[2] + (t[3] - held_sum)) / t[0].denom
                t[2], t[3] = _compensated_add(t[2], t[3], -held_sum)
            values.append(float(scale * (1.0 - subtracted)))
        return values


def table_derandomize(state):
    """`derandomize`'s loop over the tables: (z, trace, evaluations)."""
    scheme = state.scheme
    sums = TableFixingSums(state)
    trace = [sums.start]
    branched = 0
    free = (np.diff(scheme.col_ptr) == 0).tolist()
    bits = np.flatnonzero((state.p > 0.0) & (state.p < 1.0)).tolist()
    for is_free, run in itertools.groupby(bits, key=free.__getitem__):
        if is_free:
            trace.extend(sums.zero_run(np.array(list(run))))
            continue
        for j in run:
            phi_zero, phi_one = sums.branches(j)
            branched += 1
            bit = 1.0 if phi_one > phi_zero else 0.0
            sums.keep(bit)
            trace.append(phi_one if bit else phi_zero)
    return scheme.floor + sums.p, trace, len(trace) + branched
