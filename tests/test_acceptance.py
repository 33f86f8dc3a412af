"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single PASS line with its measured runtime; tolerances and
time limits are asserted inline.  Everything is seeded, so failures replay.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

from lllround import (
    CipInstance,
    binomial_real,
    choose_alpha_beta,
    deviation_for_budget,
    elementary_symmetric,
    gen_facility_location,
    gen_hypergraph_partition,
    gen_set_cover,
    ingest_solution,
    las_vegas_mip,
    lp_vertex_optimum,
    make_estimator,
    make_scheme,
    round_cip,
    solve_cip_lp,
    solve_mip_lp,
    sparsity_stats,
    standard_certificate,
    upper_tail_bound,
    verify_extended_lll,
    verify_fkg_and_antifkg,
    verify_phi_domination,
)
from lllround.cli import BENCH_COLUMNS, main as cli_main
from lllround.model import MipInstance
from _builders import lp_point, random_cip, random_mip, uniform_group_weights
from test_tailbounds import exact_upper_tail


def finish(number, detail, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"PASS criterion {number}: {detail} ({elapsed:.2f}s)")


def test_criterion_01_tail_kernel_and_inverse():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        mu = float(rng.uniform(1e-3, 30.0))
        delta = float(rng.uniform(1e-3, 10.0))
        closed = math.exp(min(0.0, mu * (delta - (1.0 + delta) * math.log1p(delta))))
        assert abs(upper_tail_bound(mu, delta) - closed) <= 1e-12
    for _ in range(50):
        mu = float(rng.uniform(0.5, 40.0))
        budget = float(rng.uniform(1e-6, 0.5))
        delta = deviation_for_budget(mu, budget)
        assert math.ceil(mu * delta) * upper_tail_bound(mu, delta) <= budget * (1 + 1e-12)
    for mu2 in np.linspace(1.0, 30.0, 20):
        for frac in np.linspace(0.05, 1.0, 20):
            mu1 = float(frac * mu2)
            for delta in np.linspace(0.05, 3.0, 10):
                lhs = upper_tail_bound(mu1, mu2 * delta / mu1)
                assert lhs <= upper_tail_bound(mu2, float(delta)) * (1 + 1e-9)
    finish(1, "kernel closed form, inverse re-satisfaction, mean rescaling grid",
           started, 1.0)


def test_criterion_02_moment_bound_between_exact_tail_and_kernel():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(50):
        n = int(rng.integers(5, 21))
        probs = rng.uniform(0.15, 0.5, size=n)
        mu = float(probs.sum())
        delta = float(rng.uniform(0.2, 1.0))
        threshold = mu * (1.0 + delta)
        if threshold > n:  # the tail is empty and the chain is vacuous
            delta = (n / mu - 1.0) * 0.9
            threshold = mu * (1.0 + delta)
        k = math.ceil(mu * delta)
        exact = exact_upper_tail(probs, threshold)
        moment = elementary_symmetric(probs, k) / binomial_real(threshold, k)
        kernel = upper_tail_bound(mu, delta)
        assert exact <= moment + 1e-9
        assert moment <= kernel + 1e-9
    finish(2, "exact tail <= symmetric-moment bound <= kernel on 50 Bernoulli sums",
           started, 30.0)


def test_criterion_03_estimator_never_exceeds_exact_success():
    started = time.perf_counter()
    checked = 0
    for seed in range(100):
        ell = 1 + seed % 2
        inst = random_cip(seed, n_max=12, m_max=10, ell=ell)
        x = lp_point(inst)
        rng = np.random.default_rng(10_000 + seed)
        scheme = make_scheme(inst, x, float(rng.uniform(1.3, 2.0)))
        ks = [int(rng.integers(1, 3)) for _ in range(ell)]
        lambdas = [k + float(rng.uniform(0.5, 3.0)) for k in ks]
        state = make_estimator(scheme, lambdas, ks)
        points = [scheme.frac]
        for _ in range(5):
            p = rng.uniform(0.0, 1.0, inst.n)
            if rng.random() < 0.5:  # mix in partially fixed bits
                fixed = rng.random(inst.n) < 0.4
                p[fixed] = np.round(rng.random(fixed.sum()))
            points.append(p)
        for p in points:
            report = verify_phi_domination(state.at(p))
            assert report.passed, f"seed {seed}: {report.lhs} < {report.rhs}"
            checked += 1
    assert checked == 600
    finish(3, "exact success probability dominates the estimator at 600 points",
           started, 300.0)


def test_criterion_04_derandomization_contract_on_generated_covers():
    started = time.perf_counter()
    instances = []
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        n_elems = int(rng.integers(8, 21))
        mss = int(rng.integers(3, 7))
        demand = int(rng.integers(1, 4))
        n_sets = min(40, math.ceil(n_elems * (demand + 1) / mss) + 8)
        instances.append(gen_set_cover(n_elems, n_sets, mss, demand, seed))
    for seed in range(50):
        rng = np.random.default_rng(30_000 + seed)
        demand = int(rng.integers(1, 4))
        degree = int(rng.integers(max(demand, 2), 6))
        n_nodes = int(rng.integers(10, 31))
        instances.append(gen_facility_location(n_nodes, degree, demand, seed))
    for inst in instances:
        stats = sparsity_stats(inst)
        assert stats.a <= 6 and inst.n <= 40 and inst.m <= 30
        x = lp_point(inst)
        y_star = float(inst.costs[0] @ x)
        alpha, beta = choose_alpha_beta(stats.a, float(inst.demands.min()))
        scheme = make_scheme(inst, x, alpha)
        lam = alpha * beta * y_star - scheme.floor_costs[0]
        positive, _, _ = standard_certificate(scheme, [lam], [1])
        assert positive  # every generated instance qualifies
        solution, info = round_cip(inst, x, alpha=alpha, beta=beta)
        # the start, both branches of a bit whose column meets an
        # unsatisfied row, and the 0-branch of every other bit
        random = scheme.frac > 0.0
        branched = int(np.count_nonzero(random & np.any(inst.a_matrix[~scheme.satisfied] > 0.0,
                                                        axis=0)))
        assert info["evaluations"] == 1 + 2 * branched + (int(random.sum()) - branched)
        diffs = np.diff(solution.trace)
        assert np.all(diffs >= -1e-9)
        assert solution.feasible
        assert np.all(inst.a_matrix @ solution.z >= inst.demands - 1e-9)
        assert solution.objective_values[0] <= alpha * beta * y_star + 1e-9
    finish(4, "evaluation count, monotone trace, and budget hold on 100 covers",
           started, 120.0)


def test_criterion_05_approximation_envelope_across_demands(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--sizes", "1,2,3,4,5,6,7,8", "--seeds", "0,1,2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 8 * 3
    cols = {name: idx for idx, name in enumerate(BENCH_COLUMNS)}
    for line in lines[1:]:
        fields = line.split(",")
        a = int(fields[cols["a"]])
        b = int(fields[cols["B"]])
        eps = math.log(a + 1.0) / b
        envelope = 1.0 + 6.0 * max(eps, math.sqrt(eps))
        assert float(fields[cols["envelope"]]) == pytest.approx(envelope, rel=1e-6)
        assert float(fields[cols["ratio"]]) <= envelope + 1e-9
    finish(5, "rounding ratio within the demand-scaled envelope on all 24 runs",
           started, 300.0)


def test_criterion_06_simultaneous_budget_caps():
    started = time.perf_counter()
    count = 0
    for ell in (2, 4, 8):
        for i in range(10):
            seed = 100 * ell + i
            base = gen_set_cover(12, 30, 5, 8, seed)
            rng = np.random.default_rng(seed)
            # the first cost is what the relaxation minimizes; keeping it
            # strictly positive keeps every scaled mean above the cap threshold
            costs = [rng.uniform(0.6, 1.0, base.n)]
            for _ in range(ell - 1):
                c = rng.uniform(0.6, 1.0, base.n)
                c[rng.random(base.n) < 0.1] = 0.0
                costs.append(c)
            inst = CipInstance.create(base.a_matrix, base.demands, costs)
            x = lp_point(inst)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loose-cap warnings fail the run
                solution, info = round_cip(inst, x)
            assert max(info["ks"]) <= 4
            assert solution.trace[0] > 0.0  # start bound is strictly positive
            assert solution.feasible
            for value, budget in zip(solution.objective_values, info["total_budgets"]):
                assert value <= budget + 1e-9
            for y, budget in zip(info["y_star"], info["total_budgets"]):
                assert budget == pytest.approx(3.0 * info["alpha"] * y)
            count += 1
    assert count == 30
    finish(6, "every cost stays within 3x its scaled mean on 30 multi-cost covers",
           started, 600.0)


def test_criterion_07_correlation_and_dependency_checks():
    started = time.perf_counter()
    fkg_reports = 0
    for seed in range(100):
        inst = random_cip(seed, n_max=10, m_max=5)
        rng = np.random.default_rng(40_000 + seed)
        scheme = make_scheme(inst, lp_point(inst), float(rng.uniform(1.4, 1.8)))
        p = rng.uniform(0.15, 0.85, inst.n)
        rows = list(rng.permutation(inst.m))
        cut = max(1, inst.m // 2)
        cols = list(rng.permutation(inst.n))
        reports = verify_fkg_and_antifkg(
            scheme, p, sorted(rows[:cut]), sorted(rows[cut:]),
            [int(cols[0])], sorted(int(c) for c in cols[1:3]),
        )
        for report in reports:
            assert report.passed, f"seed {seed}: {report.claim}"
            assert report.counterexample is None
            fkg_reports += 1
    assert fkg_reports == 200

    lll_checked = 0
    for seed in range(100):
        kind = seed % 4
        if kind == 0:  # sparse partitions, order-3 moments: premise met
            inst = gen_hypergraph_partition(8, 4, 1, 2, seed)
            x, k = uniform_group_weights(inst), 3
        elif kind == 1:  # designed two-row overlap with varying slot layout
            rng = np.random.default_rng(seed)
            slots = rng.integers(0, 5, size=12)
            a = np.zeros((2, 30))
            for g in range(4):
                a[0, 5 * g + slots[g]] = 1.0
            for g in range(2, 6):
                other = slots[6 + g]
                if other == slots[g] and g < 4:
                    other = (other + 1) % 5
                a[1, 5 * g + other] = 1.0
            inst = MipInstance.create(a, [5] * 6)
            x, k = np.full(30, 0.2), 2
        else:  # dense random instances: premise usually unmet, reported
            inst = random_mip(seed)
            x, k = uniform_group_weights(inst), 1 + seed % 2
        report = verify_extended_lll(inst, x, k=k)
        assert report.passed, f"seed {seed}: {report.lhs} < {report.rhs}"
        assert report.counterexample is None
        if report.status == "checked":
            lll_checked += 1
    assert lll_checked >= 50  # the sparse and designed families actually enumerate
    finish(7, "zero counterexamples across 200 correlation and 100 dependency checks",
           started, 300.0)


def test_criterion_08_las_vegas_meets_the_slack_target():
    started = time.perf_counter()
    successes = 0
    failures = []
    for seed in range(40):
        inst = gen_hypergraph_partition(12, 10, 4, 2, seed)
        lp = solve_mip_lp(inst)
        assert lp.status == "optimal"
        report = las_vegas_mip(inst, lp.solution.x, 10_000, rng_seed=seed)
        value = float((inst.a_matrix @ report.z).max())
        assert report.value == pytest.approx(value)
        if report.success:
            assert value <= math.ceil(report.target.target) + 1e-9
            successes += 1
        else:
            failures.append(seed)  # reported through the flag, never silent
    assert successes >= 38, f"only {successes}/40 met the target; failed seeds {failures}"
    finish(8, f"{successes}/40 partition instances met the slack target", started, 180.0)


def test_criterion_09_simplex_matches_vertex_enumeration():
    started = time.perf_counter()
    for seed in range(50):
        inst = random_cip(seed, n_max=6, m_max=4)
        report = solve_cip_lp(inst)
        assert report.status == "optimal"
        _, reference = lp_vertex_optimum(inst.costs[0], inst.a_matrix, inst.demands)
        assert report.solution.objective_values[0] == pytest.approx(reference, abs=1e-6)
        validated = ingest_solution(inst, report.solution.x)
        assert validated.feasibility_slack <= 1e-9
    finish(9, "simplex value equals brute-force vertex optimum on 50 relaxations",
           started, 60.0)


def test_criterion_10_manifest_replay_is_byte_identical(tmp_path):
    started = time.perf_counter()
    outputs = {}

    cover = tmp_path / "cover.json"
    assert cli_main(["gen", "--kind", "set-cover", "--seed", "4", "--out", str(cover)]) == 0
    graph = tmp_path / "graph.json"
    assert cli_main(["gen", "--kind", "hypergraph", "--seed", "4", "--out", str(graph)]) == 0
    rounded = tmp_path / "rounded.json"
    assert cli_main(["round", str(cover), "--out", str(rounded)]) == 0
    assigned = tmp_path / "assigned.json"
    assert cli_main(["round", str(graph), "--mode", "mip", "--seed", "2",
                     "--out", str(assigned)]) == 0
    bench = tmp_path / "bench.csv"
    assert cli_main(["bench", "--sizes", "1,2", "--seeds", "0,1", "--out", str(bench)]) == 0

    for path in (cover, graph, rounded, assigned, bench):
        outputs[path] = path.read_bytes()
        path.unlink()
    for path in outputs:
        manifest = path.with_name(path.name + ".manifest.json")
        assert cli_main(["replay", str(manifest)]) == 0
        assert path.read_bytes() == outputs[path], f"replay drifted for {path.name}"
    finish(10, "all five manifests replayed to byte-identical outputs", started, 120.0)
