"""Minimax rounding: pick one slot per group so the worst row load stays
near the fractional optimum.

Two layers.  `las_vegas_mip` retries independent categorical roundings until
one meets the additive slack target (the slack follows from the tail-kernel
inverse at failure budget 1/(e*t)).  `bootstrap_reduce` shrinks the support
of a fractional solution first — scale up, round coordinates independently,
accept only trials whose row loads and group sums stay inside explicit
envelopes, renormalize, repeat while the group/row interaction width t keeps
falling — so the retry layer faces a much smaller t.

Logarithms in the bootstrap scalings are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import FractionalSolution, MipInstance, _widths
from .tailbounds import deviation_for_budget

__all__ = [
    "MipTarget",
    "BootstrapConfig",
    "BootstrapResult",
    "LasVegasReport",
    "mip_target",
    "group_round",
    "las_vegas_mip",
    "bootstrap_reduce",
    "full_mip_pipeline",
]

GROUP_SUM_TOL = 1e-6
RENORM_TOL = 1e-12


@dataclass(frozen=True)
class MipTarget:
    """Additive-slack target for one rounding attempt: best fractional max
    load y_star plus the smallest integer slack the tail kernel certifies at
    failure budget 1/(e*t)."""

    y_star: float
    t: int
    k: int
    target: float

    def met_by(self, value: float) -> bool:
        return value <= math.ceil(self.target) + 1e-9


@dataclass(frozen=True)
class BootstrapConfig:
    """Envelope and budget constants for the support-reduction loop.  All of
    them are knobs: the underlying guarantees are asymptotic and leave the
    constants free."""

    k0: float = 2.0
    k1: float = 4.0
    trials_per_iter: int = 200
    max_outer_iters: int | None = None  # None → ceil(log2 log2 max(t,4)) + 2

    def __post_init__(self):
        if self.k0 <= 0 or self.k1 <= 0:
            raise ValueError("envelope constants must be positive")
        if self.trials_per_iter < 1:
            raise ValueError("need at least one trial per iteration")
        if self.max_outer_iters is not None and self.max_outer_iters < 1:
            raise ValueError("need at least one outer iteration")

    def outer_cap(self, t: int) -> int:
        if self.max_outer_iters is not None:
            return self.max_outer_iters
        return math.ceil(math.log2(math.log2(max(t, 4)))) + 2


@dataclass
class BootstrapIteration:
    t: int
    y_star: float
    case: str  # "large" (y* >= 1) or "small" (t^(-1/7) < y* < 1)
    scale: float
    trials: int
    accepted: bool
    max_support: int


@dataclass
class BootstrapResult:
    x: np.ndarray
    t_trace: list[int]
    y_trace: list[float]
    iterations: list[BootstrapIteration] = field(default_factory=list)
    exhausted: bool = False
    stop_reason: str = ""

    @property
    def solution(self) -> FractionalSolution:
        return FractionalSolution(
            x=self.x, objective_values=(self.y_trace[-1],), feasibility_slack=0.0
        )


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
    a, t = _widths(instance, x[instance.cols] > 0.0)
    return max(a, 1), max(t, 1)


def mip_target(y_star: float, m: int, t: int) -> MipTarget:
    """Slack k = ceil(min(y*, m) * H(min(y*, m), 1/(e*t))), target y* + k."""
    if y_star <= 0.0:
        raise ValueError(f"fractional value must be positive, got {y_star}")
    if t < 1 or m < 1:
        raise ValueError("need at least one row and interaction width 1")
    mu = min(y_star, float(m))
    budget = 1.0 / (math.e * t)
    k = math.ceil(mu * deviation_for_budget(mu, budget))
    k = max(k, 1)
    return MipTarget(y_star=float(y_star), t=int(t), k=k, target=float(y_star) + k)


def group_round(instance: MipInstance, x_star, rng_seed) -> np.ndarray:
    """One categorical draw per group guided by the fractional weights;
    returns a 0/1 vector with exactly one 1 per group."""
    x = np.asarray(x_star, dtype=float)
    if x.shape != (instance.n_cols,):
        raise ValueError(f"expected {instance.n_cols} values, got shape {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("slot weights must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    draws = rng.random(instance.n_groups)
    z = np.zeros(instance.n_cols)
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        weights = x[sl]
        total = weights.sum()
        if abs(total - 1.0) > GROUP_SUM_TOL:
            raise ValueError(f"group {g} weights sum to {total}, not 1")
        edges = np.cumsum(weights / total)
        slot = int(np.searchsorted(edges, draws[g], side="right"))
        slot = min(slot, sl.stop - sl.start - 1)  # guard the u == 1.0 corner
        z[sl.start + slot] = 1.0
    return z


def las_vegas_mip(
    instance: MipInstance,
    x_star,
    max_tries: int,
    rng_seed,
    t: int | None = None,
) -> LasVegasReport:
    """Retry group rounding until the max row load meets the slack target.

    Trials are seeded independently as (rng_seed, trial) so any prefix of
    the trial stream is reproducible; the best value and the earliest trial
    achieving it are tracked, and the loop stops early once the target is
    met.  Failure to meet the target within max_tries is reported in the
    success flag, not raised.
    """
    x = np.asarray(x_star, dtype=float)
    if t is None:
        _, t = _support_stats(instance, x)
    y_star = float(instance.loads(x).max())
    target = mip_target(y_star, instance.m, t)
    best_value = math.inf
    best_z: np.ndarray | None = None
    best_trial = -1
    trials_used = 0
    for trial in range(max_tries):
        trials_used = trial + 1
        z = group_round(instance, x, [rng_seed, trial])
        value = float(instance.loads(z).max())
        if value < best_value - 1e-9:
            best_value = value
            best_z = z
            best_trial = trial
        if target.met_by(best_value):
            break
    assert best_z is not None
    return LasVegasReport(
        z=best_z,
        value=best_value,
        success=target.met_by(best_value),
        target=target,
        best_trial=best_trial,
        trials_used=trials_used,
    )


def _easy_regime(y_star: float, t: int, a: int, k0: float) -> bool:
    return y_star >= t ** (1.0 / 7.0) or t <= max(k0, 2.0) or t <= a**4


def bootstrap_reduce(
    instance: MipInstance, x_star, config: BootstrapConfig, rng_seed
) -> BootstrapResult:
    """Shrink the support of a fractional solution while roughly preserving
    row loads, by repeated scale-up / independent-round / renormalize steps.

    Each iteration scales the current point (by y*^2 * log^5 t when y* >= 1,
    by log^5 t / y* when t^(-1/7) < y* < 1), rounds every coordinate to
    floor or ceiling independently, and accepts the trial only when all row
    loads sit inside a multiplicative envelope and all group sums inside an
    additive one (constants from the config).  Accepted trials renormalize
    each group to sum exactly 1.  The loop stops when the interaction width
    t reaches the easy regime, stops decreasing, or y* drops to t^(-1/7);
    exhausting the per-iteration trial budget returns the current point
    flagged as exhausted.
    """
    x = np.asarray(x_star, dtype=float).copy()
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        total = x[sl].sum()
        if abs(total - 1.0) > GROUP_SUM_TOL:
            raise ValueError(f"group {g} weights sum to {total}, not 1")
        x[sl] /= total
    a, t = _support_stats(instance, x)
    y_star = float(instance.loads(x).max())
    result = BootstrapResult(x=x, t_trace=[t], y_trace=[y_star])
    outer_cap = config.outer_cap(t)
    rng = np.random.default_rng([rng_seed, 0xB007])
    for outer in range(outer_cap):
        if _easy_regime(y_star, t, a, config.k0):
            result.stop_reason = "easy regime"
            return result
        if y_star <= t ** (-1.0 / 7.0):
            result.stop_reason = "tiny fractional value"
            return result
        log_t = math.log2(t)
        if y_star >= 1.0:
            case = "large"
            scale = y_star**2 * log_t**5
            row_cap = y_star**3 * log_t**5 * (1.0 + config.k1 / (y_star**1.5 * log_t**2))
            sum_slack = config.k1 * y_star * log_t**3
        else:
            case = "small"
            scale = log_t**5 / y_star
            row_cap = log_t**5 * (1.0 + config.k1 / log_t**2)
            sum_slack = config.k1 * log_t**3 / math.sqrt(y_star)
        scaled = scale * x
        floors = np.floor(scaled)
        fracs = scaled - floors
        accepted = None
        trials = 0
        for _ in range(config.trials_per_iter):
            trials += 1
            bits = rng.random(instance.n_cols) < fracs
            z = floors + bits
            loads = instance.loads(z)
            if np.any(loads > row_cap):
                continue
            sums_ok = True
            for g in range(instance.n_groups):
                sl = instance.group_slice(g)
                if abs(z[sl].sum() - scale) > sum_slack:
                    sums_ok = False
                    break
            if sums_ok and np.all([z[instance.group_slice(g)].sum() > 0 for g in range(instance.n_groups)]):
                accepted = z
                break
        it = BootstrapIteration(
            t=t, y_star=y_star, case=case, scale=scale, trials=trials,
            accepted=accepted is not None, max_support=0,
        )
        if accepted is None:
            result.iterations.append(it)
            result.exhausted = True
            result.stop_reason = "trial budget exhausted"
            return result
        new_x = np.zeros_like(x)
        max_support = 0
        for g in range(instance.n_groups):
            sl = instance.group_slice(g)
            seg = accepted[sl]
            seg_sum = seg.sum()
            new_x[sl] = seg / seg_sum
            max_support = max(max_support, int(np.count_nonzero(seg)))
            if abs(new_x[sl].sum() - 1.0) > RENORM_TOL:
                raise AssertionError("renormalized group sum drifted from 1")
        it.max_support = max_support
        result.iterations.append(it)
        x = new_x
        a, new_t = _support_stats(instance, x)
        y_star = float(instance.loads(x).max())
        result.y_trace.append(y_star)
        if new_t >= t:
            result.t_trace.append(new_t)
            result.x = x
            result.stop_reason = "t stopped decreasing"
            return result
        t = new_t
        result.t_trace.append(t)
        result.x = x
    result.x = x
    result.stop_reason = "outer iteration cap"
    return result


def full_mip_pipeline(
    instance: MipInstance,
    config: BootstrapConfig | None = None,
    rng_seed=0,
    x_star=None,
    max_tries: int = 10_000,
) -> tuple[LasVegasReport, dict]:
    """Bootstrap support reduction followed by the Las Vegas rounding loop.

    Solves the fractional relaxation internally when no starting point is
    given.  Returns the rounding report plus a JSON-ready summary comparing
    the achieved value against the slack target at the final interaction
    width and against the sparsity-based target (which needs a >= 2 to be
    finite; otherwise the width-based target is reported there too).
    """
    config = config or BootstrapConfig()
    if x_star is None:
        from .lp import InfeasibleError, solve_mip_lp

        lp = solve_mip_lp(instance)
        if lp.status != "optimal" or lp.solution is None:
            raise InfeasibleError(f"relaxation is {lp.status}")
        x_star = lp.solution.x
    boot = bootstrap_reduce(instance, x_star, config, rng_seed)
    a, t = _support_stats(instance, boot.x)
    report = las_vegas_mip(instance, boot.x, max_tries, rng_seed, t=t)
    y0 = boot.y_trace[0]
    mu = min(y0, float(instance.m))
    if a >= 2:
        target_t44 = y0 + 1.0 + mu * deviation_for_budget(mu, 1.0 / a)
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
