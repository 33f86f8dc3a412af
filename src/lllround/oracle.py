"""Exhaustive ground truth on tiny instances.

Everything here recomputes, by brute force and independently of the rounding
code paths, the quantities the fast code only bounds: exact failure
probabilities by weighted enumeration of all bit vectors, exact integer
optima by box search, and direct checks of every inequality the estimator
and the dependency-based existence argument rely on.  Verifiers return
reports rather than raising, and a failed report carries a replayable
counterexample fixture.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cip import EstimatorState, RoundingScheme
from .model import CipInstance, MipInstance, serialize_instance

__all__ = [
    "EnumerationBudget",
    "BudgetExceeded",
    "ExactProbs",
    "VerifyReport",
    "exact_event_probs",
    "exact_ilp",
    "verify_phi_domination",
    "verify_branch_inequality",
    "verify_fkg_and_antifkg",
    "verify_extended_lll",
    "lp_vertex_optimum",
]

HARD_BIT_CAP = 26
PARTITION_TOL = 1e-10
INEQ_TOL = 1e-9
_CHUNK_BITS = 16
BUDGET_ENV_VAR = "LLLROUND_BUDGET_BITS"


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class OracleError(RuntimeError):
    """Internal sanity check failed (e.g. probabilities not summing to 1)."""


@dataclass(frozen=True)
class EnumerationBudget:
    max_bits: int = 22
    max_box: int = 6

    def __post_init__(self):
        if not 1 <= self.max_bits <= HARD_BIT_CAP:
            raise ValueError(f"max_bits must be in [1, {HARD_BIT_CAP}], got {self.max_bits}")
        if self.max_box < 1:
            raise ValueError("max_box must be at least 1")

    @classmethod
    def from_env(cls) -> "EnumerationBudget":
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None:
            return cls()
        try:
            bits = int(raw)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
        return cls(max_bits=bits)

    def check_bits(self, n: int) -> None:
        if n > self.max_bits:
            raise BudgetExceeded(f"enumerating 2^{n} outcomes exceeds the {self.max_bits}-bit budget")


@dataclass(frozen=True)
class ExactProbs:
    row_fail: np.ndarray  # exact Pr(row i misses its residual demand)
    all_clear: float  # exact Pr(every row holds)
    success: float | None  # exact Pr(rows hold and increments fit), if budgets given


@dataclass
class VerifyReport:
    claim: str
    passed: bool
    lhs: float
    rhs: float
    status: str = "checked"  # "checked" or "hypothesis unmet"
    counterexample: dict | None = field(default=None, repr=False)


def _fixture(instance, p, claim: str, lhs: float, rhs: float) -> dict:
    doc = json.loads(serialize_instance(instance))
    doc.update(
        {"p": [float(v) for v in np.asarray(p, dtype=float)], "claim": claim,
         "lhs": float(lhs), "rhs": float(rhs)}
    )
    return doc


def _estimator_fixture(state: EstimatorState, claim: str, lhs: float, rhs: float) -> dict:
    """A fixture that also records the estimator, so a replay rebuilds it."""
    return dict(_fixture(state.scheme.instance, state.p, claim, lhs, rhs),
                alpha=float(state.scheme.alpha), lambdas=[float(v) for v in state.lambdas],
                ks=[int(k) for k in state.ks])


def _bit_chunks(n: int):
    """Yield (bits, index_range) chunks covering all 2^n outcomes, each chunk
    a (rows, n) 0/1 float matrix; bit j of the outcome index drives column j."""
    total = 1 << n
    step = 1 << min(_CHUNK_BITS, n)
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint64)
        bits = ((idx[:, None] >> shifts) & 1).astype(float)
        yield bits


def _chunk_weights(bits: np.ndarray, p: np.ndarray) -> np.ndarray:
    w = np.ones(bits.shape[0])
    for j in range(bits.shape[1]):
        w *= np.where(bits[:, j] > 0.5, p[j], 1.0 - p[j])
    return w


def exact_event_probs(
    scheme: RoundingScheme,
    p,
    lambdas=None,
    budget: EnumerationBudget | None = None,
) -> ExactProbs:
    """Exact per-row failure probabilities, the probability every row holds,
    and (with budgets) the probability of full success, by enumerating all
    bit vectors.  Chunk sums are combined with exact accumulation, and the
    total outcome mass is checked to be 1."""
    budget = budget or EnumerationBudget.from_env()
    instance = scheme.instance
    n = instance.n
    budget.check_bits(n)
    p = np.asarray(p, dtype=float)
    if p.shape != (n,) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("need a probability per bit")
    lam = None if lambdas is None else np.asarray(lambdas, dtype=float)
    a_t = instance.a_matrix.T
    cost_rows = np.array(instance.costs)
    fail_parts: list[list[float]] = [[] for _ in range(instance.m)]
    clear_parts: list[float] = []
    success_parts: list[float] = []
    mass_parts: list[float] = []
    for bits in _bit_chunks(n):
        w = _chunk_weights(bits, p)
        mass_parts.append(float(w.sum()))
        loads = bits @ a_t  # (rows, m)
        failing = loads < scheme.residual[None, :]
        for i in range(instance.m):
            fail_parts[i].append(float(w[failing[:, i]].sum()))
        clear = ~failing.any(axis=1)
        clear_parts.append(float(w[clear].sum()))
        if lam is not None:
            increments = bits @ cost_rows.T  # (rows, ell)
            fits = (increments <= lam[None, :]).all(axis=1)
            success_parts.append(float(w[clear & fits].sum()))
    mass = math.fsum(mass_parts)
    if abs(mass - 1.0) > PARTITION_TOL:
        raise OracleError(f"outcome probabilities sum to {mass}, not 1")
    row_fail = np.array([math.fsum(parts) for parts in fail_parts])
    all_clear = math.fsum(clear_parts)
    success = math.fsum(success_parts) if lam is not None else None
    return ExactProbs(row_fail=row_fail, all_clear=all_clear, success=success)


def exact_ilp(
    instance: CipInstance,
    objective_index: int = 0,
    budget: EnumerationBudget | None = None,
) -> tuple[np.ndarray, float]:
    """Brute-force integer optimum over a per-variable box, returning the
    lexicographically smallest optimizer (objective ties at 1e-12)."""
    budget = budget or EnumerationBudget.from_env()
    a = instance.a_matrix
    box = int(math.ceil(instance.demands.max() / instance.vals.min()))
    box = min(box, budget.max_box)
    radix = box + 1
    total = radix**instance.n
    if total > (1 << budget.max_bits):
        raise BudgetExceeded(
            f"box search of {total} points exceeds the {budget.max_bits}-bit budget"
        )
    cost = np.asarray(instance.costs[objective_index])
    place = radix ** np.arange(instance.n, dtype=np.int64)  # index digit j = variable j

    def digits_of(idx: np.ndarray) -> np.ndarray:
        return (idx[:, None] // place[None, :]) % radix

    step = 1 << _CHUNK_BITS
    best = math.inf
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        z = digits_of(idx).astype(float)
        feasible = (z @ a.T >= instance.demands[None, :] - 1e-12).all(axis=1)
        if feasible.any():
            best = min(best, float((z[feasible] @ cost).min()))
    if not math.isfinite(best):
        raise OracleError("box search found no feasible point; box too small?")
    # second pass: earliest index within tolerance of the optimum is the
    # lexicographically smallest because index order is positional on digits
    # ... with digit 0 least significant, so flip to most-significant-first.
    flip = radix ** np.arange(instance.n - 1, -1, -1, dtype=np.int64)
    best_z: np.ndarray | None = None
    best_key: tuple | None = None
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        z = digits_of(idx).astype(float)
        feasible = (z @ a.T >= instance.demands[None, :] - 1e-12).all(axis=1)
        near = feasible & (z @ cost <= best + 1e-12)
        if near.any():
            zn = z[near].astype(np.int64)
            keys = zn @ flip
            pick = int(np.argmin(keys))
            if best_key is None or keys[pick] < best_key:
                best_key = int(keys[pick])
                best_z = zn[pick]
    assert best_z is not None
    return best_z.astype(float), best


def verify_phi_domination(
    state: EstimatorState, budget: EnumerationBudget | None = None
) -> VerifyReport:
    """Exact success probability must dominate the estimator value."""
    from .cip import success_lower_bound

    phi = success_lower_bound(state)
    probs = exact_event_probs(state.scheme, state.p, lambdas=state.lambdas, budget=budget)
    assert probs.success is not None
    passed = probs.success >= phi - INEQ_TOL
    report = VerifyReport(
        claim="exact success probability >= estimator value",
        passed=passed,
        lhs=probs.success,
        rhs=phi,
    )
    if not passed:
        report.counterexample = _estimator_fixture(state, report.claim, probs.success, phi)
    return report


def verify_branch_inequality(
    state: EstimatorState, j: int, tol: float = INEQ_TOL
) -> VerifyReport:
    """The estimator at p must not exceed its expectation over branching
    bit j to 0 or 1."""
    pj = float(state.p[j])
    if pj in (0.0, 1.0):
        return VerifyReport(
            claim="branch mixture dominates the estimator", passed=True, lhs=0.0, rhs=0.0,
            status="bit already integral",
        )
    values = {}
    for setting in (0.0, 1.0):
        q = state.p.copy()
        q[j] = setting
        branch = state.at(q)
        values[setting] = state.tables.value(branch.p, branch.chp)
    mixture = pj * values[1.0] + (1.0 - pj) * values[0.0]
    phi = state.tables.value(state.p, state.chp)
    passed = phi <= mixture + tol
    report = VerifyReport(
        claim="branch mixture dominates the estimator", passed=passed, lhs=phi, rhs=mixture
    )
    if not passed:
        report.counterexample = _estimator_fixture(state, report.claim, phi, mixture)
    return report


def verify_fkg_and_antifkg(
    scheme: RoundingScheme,
    p,
    row_block,
    cond_rows,
    cond_cols,
    anti_cols,
    budget: EnumerationBudget | None = None,
) -> list[VerifyReport]:
    """Two exact correlation checks on one instance.

    Positive correlation: conditioning on other rows holding and on some
    bits forced to 1 must not hurt the chance that `row_block` rows hold,
    relative to the product of their unconditional probabilities.  Reverse
    direction: conditioned on every row holding, the chance that all
    `anti_cols` bits are 1 is at most the unconditional product inflated by
    the rows those bits touch.
    """
    budget = budget or EnumerationBudget.from_env()
    instance = scheme.instance
    n = instance.n
    budget.check_bits(n)
    p = np.asarray(p, dtype=float)
    row_block = list(row_block)
    cond_rows = list(cond_rows)
    cond_cols = list(cond_cols)
    anti_cols = list(anti_cols)
    a_t = instance.a_matrix.T
    sums = {key: [] for key in ("mass", "cond", "joint", "clear", "anti")}
    for bits in _bit_chunks(n):
        w = _chunk_weights(bits, p)
        sums["mass"].append(float(w.sum()))
        loads = bits @ a_t
        holding = loads >= scheme.residual[None, :]
        cond = np.ones(bits.shape[0], dtype=bool)
        if cond_rows:
            cond &= holding[:, cond_rows].all(axis=1)
        if cond_cols:
            cond &= (bits[:, cond_cols] > 0.5).all(axis=1)
        block = holding[:, row_block].all(axis=1) if row_block else np.ones(bits.shape[0], bool)
        sums["cond"].append(float(w[cond].sum()))
        sums["joint"].append(float(w[cond & block].sum()))
        clear = holding.all(axis=1)
        sums["clear"].append(float(w[clear].sum()))
        anti = (bits[:, anti_cols] > 0.5).all(axis=1) if anti_cols else np.ones(bits.shape[0], bool)
        sums["anti"].append(float(w[clear & anti].sum()))
    mass = math.fsum(sums["mass"])
    if abs(mass - 1.0) > PARTITION_TOL:
        raise OracleError(f"outcome probabilities sum to {mass}, not 1")
    probs = exact_event_probs(scheme, p, budget=budget)
    reports = []

    cond_mass = math.fsum(sums["cond"])
    if cond_mass <= 0.0:
        raise ValueError("conditioning event has zero probability")
    lhs = math.fsum(sums["joint"]) / cond_mass
    rhs = float(np.prod([1.0 - probs.row_fail[i] for i in row_block])) if row_block else 1.0
    rep = VerifyReport(
        claim="conditional block survival >= product of marginals",
        passed=lhs >= rhs - INEQ_TOL, lhs=lhs, rhs=rhs,
    )
    if not rep.passed:
        rep.counterexample = _fixture(instance, p, rep.claim, lhs, rhs)
    reports.append(rep)

    clear_mass = math.fsum(sums["clear"])
    if clear_mass <= 0.0:
        raise ValueError("all-rows-hold event has zero probability")
    touched = sorted({int(r) for j in anti_cols for r in instance.col_rows[j]})
    if any(probs.row_fail[i] >= 1.0 for i in touched):
        raise ValueError("a touched row fails almost surely; bound undefined")
    lhs2 = math.fsum(sums["anti"]) / clear_mass
    rhs2 = float(np.prod([p[j] for j in anti_cols])) if anti_cols else 1.0
    rhs2 /= float(np.prod([1.0 - probs.row_fail[i] for i in touched])) if touched else 1.0
    rep2 = VerifyReport(
        claim="conditional all-ones probability <= inflated product",
        passed=lhs2 <= rhs2 + INEQ_TOL, lhs=lhs2, rhs=rhs2,
    )
    if not rep2.passed:
        rep2.counterexample = _fixture(instance, p, rep2.claim, lhs2, rhs2)
    reports.append(rep2)
    return reports


def _group_chunks(instance: MipInstance, budget: EnumerationBudget):
    """Yield (choices, rows) chunks over all slot assignments, mixed radix
    over groups; choices[r, g] is the slot picked in group g."""
    sizes = instance.group_sizes
    total = math.prod(sizes)
    if total > (1 << budget.max_bits):
        raise BudgetExceeded(
            f"enumerating {total} assignments exceeds the {budget.max_bits}-bit budget"
        )
    place = np.ones(instance.n_groups, dtype=np.int64)
    for g in range(instance.n_groups - 1):
        place[g + 1] = place[g] * sizes[g]
    sizes_arr = np.array(sizes, dtype=np.int64)
    step = 1 << _CHUNK_BITS
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        choices = (idx[:, None] // place[None, :]) % sizes_arr[None, :]
        yield choices


def verify_extended_lll(
    instance: MipInstance, x_star, k: int, budget: EnumerationBudget | None = None
) -> VerifyReport:
    """Dependency-based existence check for group rounding.

    Bad events are rows whose load exceeds its mean by k or more.  Each
    event's probability is bounded through the order-k symmetric-polynomial
    moment of its per-group mean contributions; the dependency degree is
    d = k * (t - 1) with t the interaction width.  When the premise
    e * p_i * (d + 1) <= 1 holds for every row, the exact probability that
    no event occurs must be at least (d / (d + 1))^m.  An unmet premise is
    reported as such, never as a failure.
    """
    from .tailbounds import binomial_real, elementary_symmetric

    budget = budget or EnumerationBudget.from_env()
    if k < 1:
        raise ValueError("slack must be at least 1")
    x = np.asarray(x_star, dtype=float)
    a = instance.a_matrix
    mu = a @ x
    # per-row, per-group mean contributions
    contrib = np.zeros((instance.m, instance.n_groups))
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        contrib[:, g] = a[:, sl] @ x[sl]
    p_bounds = np.empty(instance.m)
    for i in range(instance.m):
        denom = binomial_real(float(mu[i] + k), k)
        p_bounds[i] = elementary_symmetric(contrib[i], k) / denom
    from .mip import _support_stats

    _, t = _support_stats(instance, x)
    d = k * (t - 1)
    premise = math.e * p_bounds * (d + 1)
    if np.any(premise > 1.0):
        worst = int(np.argmax(premise))
        return VerifyReport(
            claim="no-bad-event probability >= (d/(d+1))^m",
            passed=True,
            lhs=float(premise[worst]),
            rhs=1.0,
            status="hypothesis unmet",
        )
    mass_parts: list[float] = []
    good_parts: list[float] = []
    for choices in _group_chunks(instance, budget):
        w = np.ones(choices.shape[0])
        loads = np.zeros((choices.shape[0], instance.m))
        for g in range(instance.n_groups):
            sl = instance.group_slice(g)
            w *= x[sl.start + choices[:, g]]
            loads += a[:, sl.start + choices[:, g]].T
        mass_parts.append(float(w.sum()))
        good = (loads < mu[None, :] + k).all(axis=1)
        good_parts.append(float(w[good].sum()))
    mass = math.fsum(mass_parts)
    if abs(mass - 1.0) > PARTITION_TOL:
        raise OracleError(f"assignment probabilities sum to {mass}, not 1")
    lhs = math.fsum(good_parts)
    rhs = (d / (d + 1)) ** instance.m if d > 0 else 0.0
    passed = lhs >= rhs - INEQ_TOL
    report = VerifyReport(
        claim="no-bad-event probability >= (d/(d+1))^m", passed=passed, lhs=lhs, rhs=rhs
    )
    if not passed:
        report.counterexample = dict(_fixture(instance, x, report.claim, lhs, rhs), k=int(k))
    return report


def lp_vertex_optimum(costs, a_ub, b_ub) -> tuple[np.ndarray, float]:
    """Brute-force LP minimum of c.x subject to a_ub x >= b_ub, x >= 0, by
    enumerating basic feasible points (all n-subsets of the constraint set).

    Independent of the simplex code path; only for tiny systems.
    """
    import itertools

    costs = np.asarray(costs, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    m, n = a_ub.shape
    # constraint stack: A x >= b and x >= 0
    stacked = np.vstack([a_ub, np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best_x = None
    best = math.inf
    for rows in itertools.combinations(range(m + n), n):
        sub = stacked[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(rows)])
        if np.any(x < -1e-9) or np.any(stacked @ x < rhs - 1e-9):
            continue
        val = float(costs @ x)
        if val < best - 1e-12:
            best = val
            best_x = x
    if best_x is None:
        raise OracleError("no feasible vertex found")
    return best_x, best
