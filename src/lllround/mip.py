"""Minimax rounding: pick one slot per group so the worst row load stays
near the fractional optimum.

One path, `full_mip_pipeline`, in two layers.  `bootstrap_reduce` checks a
raw fractional point, renormalizes each group to sum to exactly 1, and
measures its column sparsity a, interaction width t and max load y*; it is
the one entry that takes a raw point.  `las_vegas_mip` rounds the returned
`BootstrapResult` against the additive slack target at t (tail-kernel
inverse at 1/(e*t)): its first trial is Raghavan's deterministic rounding by
pessimistic estimators (JCSS 37, 1988) at base 1 + delta, the deviation the
target was certified at, and only when that misses the target does it retry
categorical draws.  A run whose first trial meets the target never loads
`numpy.random`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MipInstance, _checked_point, _group_totals
from .tailbounds import slack_for_budget

__all__ = [
    "MipTarget",
    "BootstrapResult",
    "LasVegasReport",
    "mip_target",
    "las_vegas_mip",
    "bootstrap_reduce",
    "full_mip_pipeline",
]

# Largest deviation a target carries: the estimator's base 1 + delta then
# has finite powers, and the sum of a group's weighted powers stays finite.
MAX_DEVIATION = 1e300


@dataclass(frozen=True)
class MipTarget:
    """Additive-slack target for one rounding attempt: best fractional max
    load y_star plus the least integer slack k the tail kernel certifies at
    failure budget 1/(e*t), and delta = k / min(y*, m), the relative
    deviation that certifies k (at most MAX_DEVIATION; 1 at y* = 0, where
    no deviation is needed)."""

    y_star: float
    t: int
    k: int
    target: float
    delta: float

    def met_by(self, value: float) -> bool:
        return value <= math.ceil(self.target) + 1e-9


@dataclass(frozen=True)
class BootstrapResult:
    """What `las_vegas_mip` rounds: a checked point x and its a, t, y_star."""

    x: np.ndarray  # the input, each group renormalized to sum to 1
    a: int  # column sparsity on the support of x, at least 1
    t: int  # interaction width on the support of x, at least 1
    y_star: float  # max row load of x
    iterations: tuple = ()  # always empty, as no step is taken; perfbench counts it


@dataclass(frozen=True)
class LasVegasReport:
    z: np.ndarray
    value: float
    success: bool
    target: MipTarget
    best_trial: int
    trials_used: int


def _support_stats(instance: MipInstance, x: np.ndarray) -> tuple[int, int]:
    """(a, t) restricted to the support of x, each at least 1: max rows
    touched by a single live column, and max rows touched by any group's
    live columns."""
    live = x[instance.cols] > 0.0
    rows, cols = instance.rows[live], instance.cols[live]
    group_of = np.repeat(np.arange(instance.n_groups), instance.group_sizes)
    pairs = np.sort(group_of[cols] * instance.m + rows)
    # distinct (group, row) pairs; a plain np.unique would import numpy.ma
    touched = pairs[np.diff(pairs, prepend=-1) != 0]
    a = int(np.bincount(cols).max(initial=0))
    t = int(np.bincount(touched // instance.m).max(initial=0))
    return max(a, 1), max(t, 1)


def mip_target(y_star: float, m: int, t: int) -> MipTarget:
    """Slack k = `slack_for_budget`(min(y*, m), 1/(e*t)), certified at
    deviation delta = k / min(y*, m); target y* + k.

    At y* = 0 the support loads no row, k is 1 and delta is 1.
    """
    if not 0.0 <= y_star < math.inf:
        raise ValueError(f"fractional value must be nonnegative and finite, got {y_star}")
    if t < 1 or m < 1:
        raise ValueError("need at least one row and interaction width 1")
    mu = min(y_star, float(m))
    k, delta = 1, 1.0
    if mu > 0.0:
        k = slack_for_budget(mu, 1.0 / (math.e * t))
        delta = k / mu
    return MipTarget(y_star=float(y_star), t=int(t), k=k, target=float(y_star) + k,
                     delta=min(delta, MAX_DEVIATION))


@dataclass(frozen=True)
class _GroupDraw:
    """Every group's cumulative normalized weights, one row per group,
    padded to the widest group with the group's last edge."""

    edges: np.ndarray  # (groups, widest group)
    starts: np.ndarray  # each group's first column
    last: np.ndarray  # each group's last slot

    @classmethod
    def build(cls, instance: MipInstance, x: np.ndarray) -> "_GroupDraw":
        """From a checked point whose groups each sum to 1 within the
        tolerance."""
        padded, totals = _group_totals(instance, x)
        last = np.array(instance.group_sizes) - 1
        return cls(np.cumsum(padded / totals[:, None], axis=1), np.array(instance.offsets), last)

    def draw(self, n_cols: int, rng_seed) -> np.ndarray:
        """One uniform draw u in [0, 1) per group.  A group takes the slot
        numbered by how many of its edges lie at or below u (searchsorted's
        "right" side), clamped to its last slot: a last edge can round
        below 1 (the edges of x / x.sum() for x = w / w.sum(), w = [0.7,
        0.5, 1.1], end at 0.9999999999999998), and a u at or above it counts
        every edge.  Padded edges repeat the group's last one, so they count
        only under the clamp."""
        u = np.random.default_rng(rng_seed).random(self.last.size)
        slots = np.minimum(np.count_nonzero(self.edges <= u[:, None], axis=1), self.last)
        z = np.zeros(n_cols)
        z[self.starts + slots] = 1.0
        return z


def _estimator_round(instance: MipInstance, x: np.ndarray, delta: float) -> np.ndarray:
    """Raghavan's pessimistic-estimator rounding of the checked point x at
    base beta = 1 + delta.

    U = sum_i prod_g f_{g,i}, with f_{g,i} = 1 + sum_{s in g} x_s (beta^a_is - 1),
    is E[sum_i beta^load_i] under one independent draw per group.  A group
    whose point is integral (one support slot) keeps its slot; every other
    group, in group order, is fixed to the support slot with the smallest U,
    the lowest on ties.  U at x is the x-weighted mean of U over the group's
    slots, so it never rises, and the max load ends at most log_beta U(x).
    Each row carries log prod_g f_{g,i}, updated only on the fixed group's
    rows, so no power of beta is multiplied out; a group that meets no row
    takes its lowest support slot.
    """
    starts = np.array(instance.offsets)
    sizes = np.array(instance.group_sizes)
    group_of = np.repeat(np.arange(sizes.size), sizes)
    live = x > 0.0
    n_live = np.add.reduceat(live, starts)
    z = (live & (n_live == 1)[group_of]).astype(float)
    fractional = np.flatnonzero(n_live > 1).tolist()
    if not fractional:
        return z
    m = instance.m
    # nonzeros in column order, so that each group's are contiguous
    order = np.argsort(instance.cols, kind="stable")
    cols, rows = instance.cols[order], instance.rows[order]
    exps = instance.vals[order] * math.log1p(delta)  # log beta^a_is
    # one (group, row) pair per row a group meets, group by group
    pairs, pair_of = np.unique(group_of[cols] * m + rows, return_inverse=True)
    pair_rows = pairs % m
    log_f = np.log1p(np.bincount(pair_of, weights=x[cols] * np.expm1(exps), minlength=pairs.size))
    log_u = np.bincount(pair_rows, weights=log_f, minlength=m).tolist()
    # group g's pairs, and its nonzeros, start at entry g of these
    pair_starts = np.searchsorted(pairs, np.arange(sizes.size + 1) * m).tolist()
    nz_starts = np.searchsorted(cols, np.append(starts, instance.n_cols)).tolist()
    pair_rows, log_f, pair_of = pair_rows.tolist(), log_f.tolist(), pair_of.tolist()
    cols, exps, live = cols.tolist(), exps.tolist(), live.tolist()
    for g in fractional:
        p0, p1 = pair_starts[g], pair_starts[g + 1]
        on = pair_rows[p0:p1]
        rest = [log_u[i] - f for i, f in zip(on, log_f[p0:p1])]  # log-products of the other groups
        group = range(instance.offsets[g], instance.offsets[g] + instance.group_sizes[g])
        gains = {s: [0.0] * len(on) for s in group if live[s]}
        for k in range(nz_starts[g], nz_starts[g + 1]):
            if cols[k] in gains:
                gains[cols[k]][pair_of[k] - p0] = exps[k]
        # U with slot s fixed, less the part every slot shares, is
        # sum_i exp(rest_i) (beta^a_is - 1); it is scaled by exp(-shift) to
        # stay finite, and summed in row order, so equal slots tie exactly
        shift = max(rest, default=0.0) + max((e for v in gains.values() for e in v), default=0.0)
        scale = [math.exp(r - shift) for r in rest]
        best = min(gains, key=lambda s: sum(w * math.expm1(e) for w, e in zip(scale, gains[s])))
        for i, r, e in zip(on, rest, gains[best]):
            log_u[i] = r + e
        z[best] = 1.0
    return z


def las_vegas_mip(instance: MipInstance, start: BootstrapResult, max_tries: int,
                  rng_seed) -> LasVegasReport:
    """Round the bootstrap's checked point start.x until the max row load
    meets the slack target at start.y_star and start.t.

    Trial 0 is the deterministic pessimistic-estimator rounding
    (`_estimator_round`) at base 1 + target.delta, so it does not depend on
    rng_seed.  It certifies a union bound, not this target, so trials 1 to
    max_tries - 1 retry one categorical draw per group (`_GroupDraw`, whose
    edges are built at trial 1), seeded independently as (rng_seed, trial)
    so any prefix of the trial stream is reproducible.  The best value and
    the earliest trial achieving it are tracked, and the loop stops early
    once the target is met.  Failure to meet the target within max_tries is
    reported in the success flag, not raised.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    target = mip_target(start.y_star, instance.m, start.t)
    groups = None
    best_value = math.inf
    best_z: np.ndarray | None = None
    best_trial = -1
    trials_used = 0
    for trial in range(max_tries):
        trials_used = trial + 1
        if trial == 0:
            z = _estimator_round(instance, start.x, target.delta)
        else:
            groups = groups or _GroupDraw.build(instance, start.x)
            z = groups.draw(instance.n_cols, [rng_seed, trial])
        value = float(instance.loads(z).max())
        if value < best_value - 1e-9:
            best_value = value
            best_z = z
            best_trial = trial
        if target.met_by(best_value):
            break
    return LasVegasReport(
        z=best_z,
        value=best_value,
        success=target.met_by(best_value),
        target=target,
        best_trial=best_trial,
        trials_used=trials_used,
    )


def bootstrap_reduce(instance: MipInstance, x_star) -> BootstrapResult:
    """Check a fractional point, renormalize each group to sum to exactly 1,
    and measure its a, t and y*.

    The paper shrinks t first by scale-up / independent-round / renormalize
    steps.  Those steps are not taken: on every point tried, a step never
    lowered the max load that trial 0 then reaches (CHANGES.md), so the
    point is rounded at the input's own width.
    """
    x = _checked_point(x_star, instance.n_cols, "slot")
    x = x / np.repeat(_group_totals(instance, x)[1], instance.group_sizes)
    a, t = _support_stats(instance, x)
    return BootstrapResult(x=x, a=a, t=t, y_star=float(instance.loads(x).max()))


def full_mip_pipeline(
    instance: MipInstance, x_star, rng_seed=0, max_tries: int = 10_000
) -> tuple[LasVegasReport, dict]:
    """Check and renormalize the fractional point x_star, then round it by
    the Las Vegas loop.

    Returns the rounding report plus a JSON-ready summary comparing the
    achieved value against the slack target at the point's interaction width
    and against the sparsity-based target (which needs a >= 2 and a positive
    load to be finite; otherwise the width-based target is reported there too).
    """
    boot = bootstrap_reduce(instance, x_star)
    report = las_vegas_mip(instance, boot, max_tries, rng_seed)
    mu = min(boot.y_star, float(instance.m))
    if boot.a >= 2 and mu > 0.0:
        target_t44 = boot.y_star + 1.0 + slack_for_budget(mu, 1.0 / boot.a)
    else:
        target_t44 = report.target.target
    summary = {
        "value": report.value,
        "target_t42": report.target.target,
        "target_t44": target_t44,
        "trials_used": report.trials_used,
        "t_trace": [boot.t],
        "success": bool(report.success),
    }
    return report, summary
