"""Minimax rounding: pick one slot per group so the worst row load stays
near the fractional optimum.

One path, `full_mip_pipeline`, in two layers.  `bootstrap_reduce` shrinks
the support of a fractional solution first — scale up, round coordinates
independently, accept only trials whose row loads and group sums stay inside
explicit envelopes, renormalize, repeat while the group/row interaction width
t keeps falling — and returns at once when the point is already in its easy
regime; it alone checks and measures a raw point.  `las_vegas_mip` rounds
the returned `BootstrapResult` against the additive slack target at the
reduced t (tail-kernel inverse at 1/(e*t)): its first trial is Raghavan's
deterministic rounding by pessimistic estimators (JCSS 37, 1988) at base
1 + delta, the deviation the target was certified at, and only when that
misses the target does it retry categorical draws.  A run whose bootstrap
takes no step and whose first trial meets the target never loads
`numpy.random`.

Logarithms in the bootstrap scalings are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import MipInstance, _checked_point, _group_totals
from .tailbounds import deviation_for_budget

__all__ = [
    "MipTarget",
    "BootstrapResult",
    "LasVegasReport",
    "mip_target",
    "las_vegas_mip",
    "bootstrap_reduce",
    "full_mip_pipeline",
]

# Support-reduction constants.  The guarantees behind them are asymptotic and
# leave them free: K0 bounds the easy regime's width from below, K1 sets the
# row and group-sum envelopes, and a step draws at most BOOTSTRAP_TRIALS trials.
BOOTSTRAP_K0 = 2.0
BOOTSTRAP_K1 = 4.0
BOOTSTRAP_TRIALS = 200

# Largest deviation a target carries: the estimator's base 1 + delta then
# has finite powers, and the sum of a group's weighted powers stays finite.
MAX_DEVIATION = 1e300


@dataclass(frozen=True)
class MipTarget:
    """Additive-slack target for one rounding attempt: best fractional max
    load y_star plus the smallest integer slack k the tail kernel certifies at
    failure budget 1/(e*t), and the relative deviation delta it certifies k
    at (at most MAX_DEVIATION; 1 at y* = 0, where no deviation is needed)."""

    y_star: float
    t: int
    k: int
    target: float
    delta: float

    def met_by(self, value: float) -> bool:
        return value <= math.ceil(self.target) + 1e-9


@dataclass
class BootstrapIteration:
    t: int
    y_star: float
    case: str  # "large" (y* >= 1) or "small" (t^(-1/7) < y* < 1)
    scale: float
    trials: int
    accepted: bool


@dataclass
class BootstrapResult:
    """What `las_vegas_mip` rounds: a checked point x and its a, t, y_star."""

    x: np.ndarray  # the renormalized input, or the last point whose step lowered t
    a: int  # column sparsity on the support of x, at least 1
    t: int  # interaction width on the support of x, at least 1
    y_star: float  # max row load of x
    t_trace: list[int]  # and y_trace: the input's, then each accepted step's, kept or not
    y_trace: list[float]
    iterations: list[BootstrapIteration] = field(default_factory=list)
    stop_reason: str = ""


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
    touched = np.unique(group_of[cols] * instance.m + rows)
    a = int(np.bincount(cols).max(initial=0))
    t = int(np.bincount(touched // instance.m).max(initial=0))
    return max(a, 1), max(t, 1)


def mip_target(y_star: float, m: int, t: int) -> MipTarget:
    """Slack k = ceil(min(y*, m) * H(min(y*, m), 1/(e*t))), at least 1;
    target y* + k.

    k = 1 is certified without the grid when the deviation 1/mu, at which
    the slack is exactly 1, meets the budget.  Its bound is written as
    exp(1 - (1 + mu) * log(1 + 1/mu)), which still goes to 0 where 1/mu
    overflows to inf for a subnormal mu.  At y* = 0 the support loads no
    row, k is 1 and delta is 1.
    """
    if not 0.0 <= y_star < math.inf:
        raise ValueError(f"fractional value must be nonnegative and finite, got {y_star}")
    if t < 1 or m < 1:
        raise ValueError("need at least one row and interaction width 1")
    mu = min(y_star, float(m))
    budget = 1.0 / (math.e * t)
    k, delta = 1, 1.0
    if mu > 0.0 and 1.0 - (1.0 + mu) * math.log1p(1.0 / mu) <= math.log(budget):
        delta = 1.0 / mu
    elif mu > 0.0:
        delta = deviation_for_budget(mu, budget)
        k = max(math.ceil(mu * delta), 1)
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


def _easy_regime(y_star: float, t: int, a: int) -> bool:
    return y_star >= t ** (1.0 / 7.0) or t <= BOOTSTRAP_K0 or t <= a**4


def _outer_cap(t: int) -> int:
    """Most support-reduction steps from width t: ceil(log2 log2 max(t, 4)) + 2."""
    return math.ceil(math.log2(math.log2(max(t, 4)))) + 2


def bootstrap_reduce(instance: MipInstance, x_star, rng_seed) -> BootstrapResult:
    """Shrink the support of a fractional solution while roughly preserving
    row loads, by repeated scale-up / independent-round / renormalize steps.

    Each step scales the current point (by y*^2 * log^5 t when y* >= 1, by
    log^5 t / y* when t^(-1/7) < y* < 1), rounds every coordinate to floor
    or ceiling independently, and accepts the trial only when all row loads
    sit inside a multiplicative envelope and all group sums inside an
    additive one.  An accepted trial is renormalized so that each group sums
    to exactly 1.  The loop stops when the interaction width t reaches the
    easy regime, when y* drops to t^(-1/7), when a step's trials are all
    rejected, or when a step does not lower t.  The traces record every
    accepted step; the returned point is the last one that lowered t.
    """
    x = _checked_point(x_star, instance.n_cols, "slot")
    x = x / np.repeat(_group_totals(instance, x)[1], instance.group_sizes)
    a, t = _support_stats(instance, x)
    y_star = float(instance.loads(x).max())
    result = BootstrapResult(x=x, a=a, t=t, y_star=y_star, t_trace=[t], y_trace=[y_star])
    rng = None  # built at the first step: most points are in the easy regime
    for _ in range(_outer_cap(t)):
        if _easy_regime(y_star, t, a):
            result.stop_reason = "easy regime"
            return result
        if y_star <= t ** (-1.0 / 7.0):
            result.stop_reason = "tiny fractional value"
            return result
        log_t = math.log2(t)
        if y_star >= 1.0:
            case = "large"
            scale = y_star**2 * log_t**5
            row_cap = y_star**3 * log_t**5 * (1.0 + BOOTSTRAP_K1 / (y_star**1.5 * log_t**2))
            sum_slack = BOOTSTRAP_K1 * y_star * log_t**3
        else:
            case = "small"
            scale = log_t**5 / y_star
            row_cap = log_t**5 * (1.0 + BOOTSTRAP_K1 / log_t**2)
            sum_slack = BOOTSTRAP_K1 * log_t**3 / math.sqrt(y_star)
        if rng is None:
            rng = np.random.default_rng([rng_seed, 0xB007])
        scaled = scale * x
        floors = np.floor(scaled)
        fracs = scaled - floors
        accepted = None
        trials = 0
        for _ in range(BOOTSTRAP_TRIALS):
            trials += 1
            z = floors + (rng.random(instance.n_cols) < fracs)
            sums = np.add.reduceat(z, instance.offsets)  # exact: z is integral
            if (np.all(instance.loads(z) <= row_cap) and np.all(np.abs(sums - scale) <= sum_slack)
                    and np.all(sums > 0.0)):
                accepted = z
                break
        result.iterations.append(BootstrapIteration(
            t=t, y_star=y_star, case=case, scale=scale, trials=trials,
            accepted=accepted is not None,
        ))
        if accepted is None:
            result.stop_reason = "trial budget exhausted"
            return result
        x_next = accepted / np.repeat(sums, instance.group_sizes)
        a_next, t_next = _support_stats(instance, x_next)
        y_next = float(instance.loads(x_next).max())
        result.t_trace.append(t_next)
        result.y_trace.append(y_next)
        if t_next >= t:
            result.stop_reason = "t stopped decreasing"
            return result
        x, a, t, y_star = x_next, a_next, t_next, y_next
        result.x, result.a, result.t, result.y_star = x, a, t, y_star
    result.stop_reason = "outer iteration cap"
    return result


def full_mip_pipeline(
    instance: MipInstance, x_star, rng_seed=0, max_tries: int = 10_000
) -> tuple[LasVegasReport, dict]:
    """Bootstrap support reduction of the fractional point x_star, followed
    by the Las Vegas rounding loop at the reduced point.

    Returns the rounding report plus a JSON-ready summary comparing the
    achieved value against the slack target at the final interaction width
    and against the sparsity-based target (which needs a >= 2 and a positive
    load to be finite; otherwise the width-based target is reported there too).
    """
    boot = bootstrap_reduce(instance, x_star, rng_seed)
    report = las_vegas_mip(instance, boot, max_tries, rng_seed)
    y0 = boot.y_trace[0]
    mu = min(y0, float(instance.m))
    if boot.a >= 2 and mu > 0.0:
        target_t44 = y0 + 1.0 + mu * deviation_for_budget(mu, 1.0 / boot.a)
    else:
        target_t44 = report.target.target
    summary = {
        "value": report.value,
        "target_t42": report.target.target,
        "target_t44": target_t44,
        "trials_used": report.trials_used,
        "t_trace": [int(v) for v in boot.t_trace],
        "success": bool(report.success),
    }
    return report, summary
