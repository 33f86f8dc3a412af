"""Exhaustive ground truth on tiny instances.

Everything here recomputes, by brute force and independently of the rounding
code paths, the quantities the fast code only bounds: exact failure
probabilities by weighted enumeration of the bits that are still random,
exact integer optima by box search, and direct checks of every inequality
the estimator and the dependency-based existence argument rely on.
Verifiers return reports rather than raising, and a failed report carries a
counterexample fixture that `replay_fixture` turns back into the same check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cip import EstimatorState, RoundingScheme, make_estimator, make_scheme
from .lp import ingest_solution
from .model import CipInstance, MipInstance, serialize_instance

__all__ = [
    "EnumerationBudget",
    "BudgetExceeded",
    "ExactProbs",
    "OracleError",
    "VerifyReport",
    "exact_event_probs",
    "exact_ilp",
    "verify_phi_domination",
    "verify_branch_inequality",
    "verify_fkg_and_antifkg",
    "verify_extended_lll",
    "is_fixture",
    "replay_fixture",
    "lp_vertex_optimum",
]

HARD_BIT_CAP = 26
MAX_BOX = 6  # per-variable upper end of exact_ilp's box search
PARTITION_TOL = 1e-10
INEQ_TOL = 1e-9
# Entries (outcomes x array width) per enumeration chunk: about 32 MB per
# float array, whatever the instance's width.
_CHUNK_ENTRIES = 1 << 22
BUDGET_ENV_VAR = "LLLROUND_BUDGET_BITS"


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class OracleError(RuntimeError):
    """Internal sanity check failed (e.g. probabilities not summing to 1)."""


@dataclass(frozen=True)
class EnumerationBudget:
    max_bits: int = 22

    def __post_init__(self):
        if not 1 <= self.max_bits <= HARD_BIT_CAP:
            raise ValueError(f"max_bits must be in [1, {HARD_BIT_CAP}], got {self.max_bits}")

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


def _with_fixture(report: VerifyReport, check: str, instance, p, **args) -> VerifyReport:
    """Attach to a failed report the fixture `replay_fixture` turns back into
    the same call: the instance, the check, the arguments it was called with
    and the point `p`, plus the claim and both sides."""
    if not report.passed:
        doc = json.loads(serialize_instance(instance))
        doc.update(args, check=check, p=[float(v) for v in np.asarray(p, dtype=float)],
                   claim=report.claim, lhs=float(report.lhs), rhs=float(report.rhs))
        report.counterexample = doc
    return report


def _estimator_args(state: EstimatorState) -> dict:
    return {"alpha": float(state.scheme.alpha), "lambdas": [float(v) for v in state.lambdas],
            "ks": [int(k) for k in state.ks]}


def _check_mass(parts: list[float], what: str) -> None:
    mass = math.fsum(parts)
    if abs(mass - 1.0) > PARTITION_TOL:
        raise OracleError(f"{what} probabilities sum to {mass}, not 1")


def _chunk_ranges(total: int, width: int):
    """Yield (start, stop) ranges covering range(total) in order, each with at
    most _CHUNK_ENTRIES // width members (at least one)."""
    step = max(1, _CHUNK_ENTRIES // width)
    for start in range(0, total, step):
        yield start, min(start + step, total)


def _random_bit_chunks(p: np.ndarray, columns: np.ndarray, budget: EnumerationBudget):
    """Yield (sums, w) chunks over every outcome z of the bits with
    0 < p < 1, the other bits held at their values: sums[r] = z @ columns
    for the chunk's r-th outcome and w[r] its probability.  Only the random
    bits count against the budget; bit c of the outcome index drives the
    c-th random column, and weights multiply over the random columns in
    ascending order.  The total outcome mass is checked to be 1."""
    if p.shape != columns.shape[:1] or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("need a probability per bit")
    live = np.flatnonzero((p > 0.0) & (p < 1.0))
    budget.check_bits(live.size)
    held = (p == 1.0).astype(float) @ columns
    shifts = np.arange(live.size, dtype=np.uint64)
    mass_parts: list[float] = []
    for start, stop in _chunk_ranges(1 << live.size, live.size + columns.shape[1]):
        idx = np.arange(start, stop, dtype=np.uint64)
        bits = ((idx[:, None] >> shifts) & 1).astype(float)
        w = np.ones(idx.size)
        for c, j in enumerate(live):
            w *= np.where(bits[:, c] > 0.5, p[j], 1.0 - p[j])
        mass_parts.append(float(w.sum()))
        yield held + bits @ columns[live], w
    _check_mass(mass_parts, "outcome")


def exact_event_probs(
    scheme: RoundingScheme,
    p,
    lambdas=None,
    budget: EnumerationBudget | None = None,
) -> ExactProbs:
    """Exact per-row failure probabilities, the probability every row holds,
    and (with budgets) the probability of full success, by enumerating every
    outcome of the bits that are still random.  Chunk sums are combined with
    exact accumulation."""
    budget = budget or EnumerationBudget.from_env()
    instance = scheme.instance
    m = instance.m
    lam = None if lambdas is None else np.asarray(lambdas, dtype=float)
    columns = np.vstack([instance.a_matrix, *instance.costs]).T  # loads, then increments
    fail_parts: list[list[float]] = [[] for _ in range(m)]
    clear_parts: list[float] = []
    success_parts: list[float] = []
    for sums, w in _random_bit_chunks(np.asarray(p, dtype=float), columns, budget):
        failing = sums[:, :m] < scheme.residual[None, :]
        for i in range(m):
            fail_parts[i].append(float(w[failing[:, i]].sum()))
        clear = ~failing.any(axis=1)
        clear_parts.append(float(w[clear].sum()))
        if lam is not None:
            fits = (sums[:, m:] <= lam[None, :]).all(axis=1)
            success_parts.append(float(w[clear & fits].sum()))
    row_fail = np.array([math.fsum(parts) for parts in fail_parts])
    all_clear = math.fsum(clear_parts)
    success = math.fsum(success_parts) if lam is not None else None
    return ExactProbs(row_fail=row_fail, all_clear=all_clear, success=success)


def exact_ilp(
    instance: CipInstance, budget: EnumerationBudget | None = None
) -> tuple[np.ndarray, float]:
    """Brute-force optimum of the first cost over a per-variable box,
    returning the lexicographically smallest optimizer (objective ties at
    1e-12)."""
    budget = budget or EnumerationBudget.from_env()
    a = instance.a_matrix
    box = min(int(math.ceil(instance.demands.max() / instance.vals.min())), MAX_BOX)
    radix = box + 1
    total = radix**instance.n
    if total > (1 << budget.max_bits):
        raise BudgetExceeded(
            f"box search of {total} points exceeds the {budget.max_bits}-bit budget"
        )
    cost = np.asarray(instance.costs[0])
    place = radix ** np.arange(instance.n, dtype=np.int64)  # index digit j = variable j

    def feasible_points():
        """Yield (z, z @ cost) over the feasible points of the box, in index order."""
        for start, stop in _chunk_ranges(total, instance.n + instance.m):
            idx = np.arange(start, stop, dtype=np.int64)
            z = ((idx[:, None] // place[None, :]) % radix).astype(float)
            z = z[(z @ a.T >= instance.demands[None, :] - 1e-12).all(axis=1)]
            yield z, z @ cost

    best = min((float(values.min()) for _, values in feasible_points() if values.size),
               default=math.inf)
    if not math.isfinite(best):
        raise OracleError("box search found no feasible point; box too small?")
    # second pass: earliest index within tolerance of the optimum is the
    # lexicographically smallest because index order is positional on digits
    # ... with digit 0 least significant, so flip to most-significant-first.
    flip = radix ** np.arange(instance.n - 1, -1, -1, dtype=np.int64)
    best_z: np.ndarray | None = None
    best_key: tuple | None = None
    for z, values in feasible_points():
        near = values <= best + 1e-12
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
    report = VerifyReport(claim="exact success probability >= estimator value",
                          passed=probs.success >= phi - INEQ_TOL, lhs=probs.success, rhs=phi)
    return _with_fixture(report, "phi", state.scheme.instance, state.p, **_estimator_args(state))


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
    from .cip import success_lower_bound

    values = {}
    for setting in (0.0, 1.0):
        q = state.p.copy()
        q[j] = setting
        values[setting] = success_lower_bound(state.at(q))
    mixture = pj * values[1.0] + (1.0 - pj) * values[0.0]
    phi = success_lower_bound(state)
    report = VerifyReport(
        claim="branch mixture dominates the estimator", passed=phi <= mixture + tol,
        lhs=phi, rhs=mixture,
    )
    return _with_fixture(report, "branch", state.scheme.instance, state.p, j=int(j),
                         **_estimator_args(state))


def verify_fkg_and_antifkg(
    scheme: RoundingScheme,
    p,
    row_block,
    cond_rows,
    cond_cols,
    anti_cols,
    budget: EnumerationBudget | None = None,
) -> list[VerifyReport]:
    """Two exact correlation checks on one instance, from one enumeration.

    Positive correlation: conditioning on other rows holding and on some
    bits forced to 1 must not hurt the chance that `row_block` rows hold,
    relative to the product of their unconditional probabilities.  Reverse
    direction: conditioned on every row holding, the chance that all
    `anti_cols` bits are 1 is at most the unconditional product inflated by
    the rows those bits touch.
    """
    budget = budget or EnumerationBudget.from_env()
    instance = scheme.instance
    m = instance.m
    p = np.asarray(p, dtype=float)
    row_block, cond_rows, cond_cols, anti_cols = (
        [int(v) for v in arg] for arg in (row_block, cond_rows, cond_cols, anti_cols))
    touched = sorted({int(r) for j in anti_cols for r in instance.col_rows[j]})
    # two indicator columns count the ones among cond_cols and anti_cols
    marks = np.zeros((instance.n, 2))
    marks[cond_cols, 0] = 1.0
    marks[anti_cols, 1] = 1.0
    need = marks.sum(axis=0)
    fail_parts: dict[int, list[float]] = {i: [] for i in set(row_block) | set(touched)}
    event_parts = {key: [] for key in ("cond", "joint", "clear", "anti")}
    for sums, w in _random_bit_chunks(p, np.hstack([instance.a_matrix.T, marks]), budget):
        holding = sums[:, :m] >= scheme.residual[None, :]
        for i, parts in fail_parts.items():
            parts.append(float(w[~holding[:, i]].sum()))
        cond = holding[:, cond_rows].all(axis=1) & (sums[:, m] == need[0])
        clear = holding.all(axis=1)
        event_parts["cond"].append(float(w[cond].sum()))
        event_parts["joint"].append(float(w[cond & holding[:, row_block].all(axis=1)].sum()))
        event_parts["clear"].append(float(w[clear].sum()))
        event_parts["anti"].append(float(w[clear & (sums[:, m + 1] == need[1])].sum()))
    row_fail = {i: math.fsum(parts) for i, parts in fail_parts.items()}

    cond_mass = math.fsum(event_parts["cond"])
    if cond_mass <= 0.0:
        raise ValueError("conditioning event has zero probability")
    lhs = math.fsum(event_parts["joint"]) / cond_mass
    rhs = float(np.prod([1.0 - row_fail[i] for i in row_block]))
    rep = VerifyReport(
        claim="conditional block survival >= product of marginals",
        passed=lhs >= rhs - INEQ_TOL, lhs=lhs, rhs=rhs,
    )

    clear_mass = math.fsum(event_parts["clear"])
    if clear_mass <= 0.0:
        raise ValueError("all-rows-hold event has zero probability")
    if any(row_fail[i] >= 1.0 for i in touched):
        raise ValueError("a touched row fails almost surely; bound undefined")
    lhs2 = math.fsum(event_parts["anti"]) / clear_mass
    rhs2 = float(np.prod(p[anti_cols])) / float(np.prod([1.0 - row_fail[i] for i in touched]))
    rep2 = VerifyReport(
        claim="conditional all-ones probability <= inflated product",
        passed=lhs2 <= rhs2 + INEQ_TOL, lhs=lhs2, rhs=rhs2,
    )
    args = dict(alpha=float(scheme.alpha), row_block=row_block, cond_rows=cond_rows,
                cond_cols=cond_cols, anti_cols=anti_cols)
    return [_with_fixture(r, "fkg", instance, p, **args) for r in (rep, rep2)]


def _assignment_chunks(instance: MipInstance, x: np.ndarray, budget: EnumerationBudget):
    """Yield (loads, w) chunks over every assignment of the groups to their
    live slots (x > 0), mixed radix over the groups with two or more: loads[r]
    are the row loads of the chunk's r-th assignment and w[r] its
    probability.  A group with one live slot is fixed, so its load and
    weight enter every assignment once.  The total mass is checked to be 1."""
    a_t = instance.a_matrix.T
    held_loads = np.zeros(instance.m)
    held_weight = 1.0
    live = []
    for g in range(instance.n_groups):
        sl = instance.group_slice(g)
        slots = sl.start + np.flatnonzero(x[sl] > 0.0)
        if slots.size == 0:
            raise OracleError(f"group {g} has no slot with positive mass")
        if slots.size == 1:
            held_loads += a_t[slots[0]]
            held_weight *= x[slots[0]]
        else:
            live.append(slots)
    total = math.prod(slots.size for slots in live)
    if total > (1 << budget.max_bits):
        raise BudgetExceeded(
            f"enumerating {total} assignments exceeds the {budget.max_bits}-bit budget"
        )
    mass_parts: list[float] = []
    for start, stop in _chunk_ranges(total, instance.m + 1):
        idx = np.arange(start, stop, dtype=np.int64)
        w = np.full(idx.size, held_weight)
        loads = np.tile(held_loads, (idx.size, 1))
        for slots in live:
            pick = slots[idx % slots.size]
            idx = idx // slots.size
            w *= x[pick]
            loads += a_t[pick]
        mass_parts.append(float(w.sum()))
        yield loads, w
    _check_mass(mass_parts, "assignment")


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
    contrib = np.add.reduceat(a * x, instance.offsets, axis=1)
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
        return VerifyReport(claim="no-bad-event probability >= (d/(d+1))^m", passed=True,
                            lhs=float(premise[worst]), rhs=1.0, status="hypothesis unmet")
    good_parts = [float(w[(loads < mu[None, :] + k).all(axis=1)].sum())
                  for loads, w in _assignment_chunks(instance, x, budget)]
    lhs = math.fsum(good_parts)
    rhs = (d / (d + 1)) ** instance.m if d > 0 else 0.0
    report = VerifyReport(
        claim="no-bad-event probability >= (d/(d+1))^m", passed=lhs >= rhs - INEQ_TOL,
        lhs=lhs, rhs=rhs,
    )
    return _with_fixture(report, "lll", instance, x, k=int(k))


def is_fixture(doc: dict) -> bool:
    """Whether a parsed instance document is a counterexample fixture."""
    return "p" in doc and "claim" in doc


_CHECK_KINDS = {"phi": CipInstance, "branch": CipInstance, "fkg": CipInstance, "lll": MipInstance}


def _recorded_integer(doc: dict, key: str) -> int:
    """A fixture's integer argument, as written: JSON true, 4.7 or "3" is
    no integer, and truncating it would replay another check."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def replay_fixture(doc: dict, instance, relaxation) -> list[VerifyReport]:
    """Rerun the check a counterexample fixture records, with the arguments
    it records.  A covering check rebuilds its scheme from `relaxation()`,
    the fractional point the recorded alpha scales; the dependency check
    runs at the fixture's own point and never calls it."""
    check = doc["check"]
    if not isinstance(instance, _CHECK_KINDS.get(check, ())):
        raise ValueError(f"no {check!r} check runs on a {type(instance).__name__}")
    if check == "lll":
        return [verify_extended_lll(instance, ingest_solution(instance, doc["p"]).x,
                                    _recorded_integer(doc, "k"))]
    p = np.asarray(doc["p"], dtype=float)
    if p.shape != (instance.n,) or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be {instance.n} probabilities in [0, 1]")
    scheme = make_scheme(instance, relaxation(), float(doc["alpha"]))
    if check == "fkg":
        return verify_fkg_and_antifkg(scheme, p, doc["row_block"], doc["cond_rows"],
                                      doc["cond_cols"], doc["anti_cols"])
    state = make_estimator(scheme, doc["lambdas"], doc["ks"]).at(p)
    if check == "phi":
        return [verify_phi_domination(state)]
    j = _recorded_integer(doc, "j")
    if not 0 <= j < instance.n:
        raise ValueError(f"bit {j} lies outside [0, {instance.n})")
    return [verify_branch_inequality(state, j)]


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
