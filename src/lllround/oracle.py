"""Exhaustive ground truth on tiny instances.

Everything here recomputes, by brute force and independently of the rounding
code paths, the quantities the fast code only bounds: exact failure
probabilities by weighted enumeration of the bits that are still random,
and direct checks of every inequality the estimator and the dependency-based
existence argument rely on.
Verifiers return reports rather than raising, and a failed report carries a
counterexample fixture that `replay_fixture` turns back into the same check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cip import EstimatorState, RoundingScheme, make_estimator, make_scheme, success_lower_bound
from .lp import ingest_solution
from .mip import _support_stats
from .model import CipInstance, MipInstance, serialize_instance
from .tailbounds import binomial_real, elementary_symmetric

__all__ = [
    "BudgetExceeded",
    "ExactProbs",
    "OracleError",
    "VerifyReport",
    "exact_event_probs",
    "verify_phi_domination",
    "verify_branch_inequality",
    "verify_fkg_and_antifkg",
    "verify_extended_lll",
    "is_fixture",
    "replay_fixture",
]

HARD_BIT_CAP = 26
PARTITION_TOL = 1e-10
INEQ_TOL = 1e-9
# Entries (outcomes x array width) per enumeration chunk: about 32 MB per
# float array, whatever the instance's width.
_CHUNK_ENTRIES = 1 << 22
BUDGET_ENV_VAR = "LLLROUND_BUDGET_BITS"
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares exactly with any int


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class OracleError(RuntimeError):
    """Internal sanity check failed (e.g. probabilities not summing to 1)."""


def _budget_bits() -> int:
    """The enumeration budget in bits: LLLROUND_BUDGET_BITS, an integer in
    [1, HARD_BIT_CAP], 22 when unset."""
    raw = os.environ.get(BUDGET_ENV_VAR, "22")
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 1 <= bits <= HARD_BIT_CAP:
        raise ValueError(f"{BUDGET_ENV_VAR} must be in [1, {HARD_BIT_CAP}], got {bits}")
    return bits


def _check_budget(outcomes: int, what: str) -> None:
    """Raise BudgetExceeded if enumerating `outcomes` cases (`what`) goes
    past the budget."""
    bits = _budget_bits()
    if outcomes > 1 << bits:
        raise BudgetExceeded(f"{what} exceeds the {bits}-bit budget")


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


def _random_bit_chunks(p: np.ndarray, columns: np.ndarray):
    """Yield (sums, w) chunks over every outcome z of the bits with
    0 < p < 1, the other bits held at their values: sums[r] = z @ columns
    for the chunk's r-th outcome and w[r] its probability.  Only the random
    bits count against the budget; bit c of the outcome index drives the
    c-th random column, and weights multiply over the random columns in
    ascending order.  The total outcome mass is checked to be 1."""
    if p.shape != columns.shape[:1] or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("need a probability per bit")
    live = np.flatnonzero((p > 0.0) & (p < 1.0))
    _check_budget(1 << live.size, f"enumerating 2^{live.size} outcomes")
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


def exact_event_probs(scheme: RoundingScheme, p, lambdas=None) -> ExactProbs:
    """Exact per-row failure probabilities, the probability every row holds,
    and (with budgets) the probability of full success, by enumerating every
    outcome of the bits that are still random.  Chunk sums are combined with
    exact accumulation."""
    instance = scheme.instance
    m = instance.m
    lam = None if lambdas is None else np.asarray(lambdas, dtype=float)
    columns = np.vstack([instance.a_matrix, *instance.costs]).T  # loads, then increments
    fail_parts: list[list[float]] = [[] for _ in range(m)]
    clear_parts: list[float] = []
    success_parts: list[float] = []
    for sums, w in _random_bit_chunks(np.asarray(p, dtype=float), columns):
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


def verify_phi_domination(state: EstimatorState) -> VerifyReport:
    """Exact success probability must dominate the estimator value."""
    phi = success_lower_bound(state)
    probs = exact_event_probs(state.scheme, state.p, lambdas=state.lambdas)
    assert probs.success is not None
    report = VerifyReport(claim="exact success probability >= estimator value",
                          passed=probs.success >= phi - INEQ_TOL, lhs=probs.success, rhs=phi)
    return _with_fixture(report, "phi", state.scheme.instance, state.p, **_estimator_args(state))


def verify_branch_inequality(state: EstimatorState, j: int) -> VerifyReport:
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
        values[setting] = success_lower_bound(state.at(q))
    mixture = pj * values[1.0] + (1.0 - pj) * values[0.0]
    phi = success_lower_bound(state)
    report = VerifyReport(
        claim="branch mixture dominates the estimator", passed=phi <= mixture + INEQ_TOL,
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
) -> list[VerifyReport]:
    """Two exact correlation checks on one instance, from one enumeration.

    Positive correlation: conditioning on other rows holding and on some
    bits forced to 1 must not hurt the chance that `row_block` rows hold,
    relative to the product of their unconditional probabilities.  Reverse
    direction: conditioned on every row holding, the chance that all
    `anti_cols` bits are 1 is at most the unconditional product inflated by
    the rows those bits touch.
    """
    instance = scheme.instance
    m = instance.m
    p = np.asarray(p, dtype=float)
    row_block, cond_rows, cond_cols, anti_cols = (
        [int(v) for v in arg] for arg in (row_block, cond_rows, cond_cols, anti_cols))
    # the rows anti_cols touch, once each; a plain np.unique would import numpy.ma
    rows = np.sort(instance.rows[np.isin(instance.cols, anti_cols)])
    touched = rows[np.diff(rows, prepend=-1) != 0].tolist()
    # two indicator columns count the ones among cond_cols and anti_cols
    marks = np.zeros((instance.n, 2))
    marks[cond_cols, 0] = 1.0
    marks[anti_cols, 1] = 1.0
    need = marks.sum(axis=0)
    fail_parts: dict[int, list[float]] = {i: [] for i in set(row_block) | set(touched)}
    event_parts = {key: [] for key in ("cond", "joint", "clear", "anti")}
    for sums, w in _random_bit_chunks(p, np.hstack([instance.a_matrix.T, marks])):
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


def _assignment_chunks(instance: MipInstance, x: np.ndarray):
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
    _check_budget(total, f"enumerating {total} assignments")
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


def verify_extended_lll(instance: MipInstance, x_star, k: int) -> VerifyReport:
    """Dependency-based existence check for group rounding.

    Bad events are rows whose load exceeds its mean by k or more.  Each
    event's probability is bounded through the order-k symmetric-polynomial
    moment of its per-group mean contributions; the dependency degree is
    d = k * (t - 1) with t the interaction width.  When the premise
    e * p_i * (d + 1) <= 1 holds for every row, the exact probability that
    no event occurs must be at least (d / (d + 1))^m.  An unmet premise is
    reported as such, never as a failure.
    """
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
    _, t = _support_stats(instance, x)
    d = k * (t - 1)
    premise = math.e * p_bounds * (d + 1)
    if np.any(premise > 1.0):
        worst = int(np.argmax(premise))
        return VerifyReport(claim="no-bad-event probability >= (d/(d+1))^m", passed=True,
                            lhs=float(premise[worst]), rhs=1.0, status="hypothesis unmet")
    good_parts = [float(w[(loads < mu[None, :] + k).all(axis=1)].sum())
                  for loads, w in _assignment_chunks(instance, x)]
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


def _is_recorded(value, integer: bool) -> bool:
    if integer:
        return type(value) is int
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX  # NaN compares false


def _recorded(doc: dict, key: str, integer: bool = False):
    """A fixture's scalar argument, as written: an integer must be a JSON
    integer and any other number a finite JSON number.  JSON true, 4.7 or
    "3" is no integer, and converting it would replay another check."""
    value = doc[key]
    if not _is_recorded(value, integer):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return value


def _recorded_list(doc: dict, key: str, below: int | None = None) -> list:
    """A fixture's list argument, as written: finite JSON numbers, or with
    `below` JSON integers in [0, below)."""
    values = doc[key]
    integer = below is not None
    if type(values) is not list or not all(_is_recorded(v, integer) for v in values):
        kind = "integers" if integer else "finite numbers"
        raise ValueError(f"{key} must be a list of {kind}, got {values!r}")
    if integer and not all(0 <= v < below for v in values):
        raise ValueError(f"{key} must lie in [0, {below}), got {values!r}")
    return values


def replay_fixture(doc: dict, instance, relaxation) -> list[VerifyReport]:
    """Rerun the check a counterexample fixture records, with the arguments
    it records.  A covering check rebuilds its scheme from `relaxation()`,
    the fractional point the recorded alpha scales; the dependency check
    runs at the fixture's own point and never calls it."""
    check = doc["check"]
    if not isinstance(instance, _CHECK_KINDS.get(check, ())):
        raise ValueError(f"no {check!r} check runs on a {type(instance).__name__}")
    p = np.array(_recorded_list(doc, "p"), dtype=float)
    if check == "lll":
        return [verify_extended_lll(instance, ingest_solution(instance, p).x,
                                    _recorded(doc, "k", integer=True))]
    if p.shape != (instance.n,) or not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be {instance.n} probabilities in [0, 1]")
    scheme = make_scheme(instance, relaxation(), _recorded(doc, "alpha"))
    if check == "fkg":
        m, n = instance.shape
        return verify_fkg_and_antifkg(scheme, p, *(
            _recorded_list(doc, key, below=size)
            for key, size in (("row_block", m), ("cond_rows", m), ("cond_cols", n),
                              ("anti_cols", n))))
    state = make_estimator(scheme, _recorded_list(doc, "lambdas"),
                           _recorded_list(doc, "ks", below=instance.n + 1)).at(p)
    if check == "phi":
        return [verify_phi_domination(state)]
    j = _recorded(doc, "j", integer=True)
    if not 0 <= j < instance.n:
        raise ValueError(f"bit {j} lies outside [0, {instance.n})")
    return [verify_branch_inequality(state, j)]
