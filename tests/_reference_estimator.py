"""The covering estimator's subset tables and evaluation in their first,
object-by-object form, kept as a test-only reference for `lllround.cip`.

Each subset's rows are one `np.unique` over its columns' rows, each
segment sum is a difference of one global cumsum, and the row bounds are
one loop over the rows.
"""

import itertools
import math

import numpy as np

from lllround import binomial_real

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
            np.unique(np.concatenate([instance.col_rows[j] for j in subset]))
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
