"""Simplex relaxation solver against closed-form cases, brute-force
reference optima, HiGHS, and the scalar Bland simplex it replaced."""

import math

import numpy as np
import pytest

import lllround.lp as lp
from lllround import (
    CipInstance,
    InfeasibleError,
    MipInstance,
    gen_hypergraph_partition,
    gen_set_cover,
    ingest_solution,
    lp_vertex_optimum,
    solve_cip_lp,
    solve_mip_lp,
)

from _builders import random_cip, random_mip


class TestCoveringRelaxation:
    def test_identity_decouples(self):
        inst = CipInstance.create(np.eye(4), np.ones(4), [np.ones(4)])
        report = solve_cip_lp(inst)
        assert report.status == "optimal"
        np.testing.assert_allclose(report.solution.x, 1.0, atol=1e-9)
        assert report.objective == pytest.approx(4.0, abs=1e-9)

    def test_single_row_prefers_cheap_column(self):
        inst = CipInstance.create(
            np.array([[1.0, 1.0]]), [2.0], [np.array([1.0, 0.5])]
        )
        report = solve_cip_lp(inst)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(1.0, abs=1e-9)
        assert report.solution.x[0] == pytest.approx(0.0, abs=1e-9)
        assert report.solution.x[1] == pytest.approx(2.0, abs=1e-9)

    def test_matches_vertex_enumeration(self):
        for seed in range(12):
            inst = random_cip(seed + 300, n_max=8, m_max=6)
            report = solve_cip_lp(inst)
            assert report.status == "optimal"
            _, best = lp_vertex_optimum(
                inst.costs[0], inst.a_matrix, inst.demands
            )
            assert report.objective == pytest.approx(best, abs=1e-6)

    def test_solution_revalidates(self):
        inst = random_cip(seed=41)
        report = solve_cip_lp(inst)
        again = ingest_solution(inst, report.solution.x)
        assert again.feasibility_slack <= 1e-9
        np.testing.assert_allclose(again.x, report.solution.x)


def _grid_minimax(instance, steps):
    """Reference optimum for two-group, two-slot instances by scanning the
    full product of simplices on a lattice that contains every vertex."""
    thetas = np.linspace(0.0, 1.0, steps + 1)
    t1, t2 = np.meshgrid(thetas, thetas, indexing="ij")
    best = np.inf
    a = instance.a_matrix
    loads = (
        a[:, 0] * t1[..., None]
        + a[:, 1] * (1.0 - t1[..., None])
        + a[:, 2] * t2[..., None]
        + a[:, 3] * (1.0 - t2[..., None])
    )
    return float(loads.max(axis=-1).min())


class TestMinimaxRelaxation:
    def test_two_slots_balance(self):
        inst = MipInstance.create(np.eye(2), [2])
        report = solve_mip_lp(inst)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(0.5, abs=1e-9)

    def test_single_triangle_edge_split(self):
        # one 3-vertex edge, two parts: the balanced split loads each part
        # with 1.5
        a = np.zeros((2, 6))
        for v in range(3):
            a[0, 2 * v] = 1.0
            a[1, 2 * v + 1] = 1.0
        inst = MipInstance.create(a, [2, 2, 2])
        report = solve_mip_lp(inst)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(1.5, abs=1e-9)

    def test_matches_lattice_scan(self):
        # 0/1 coefficients on two 2-slot groups keep every vertex of the
        # feasible region on the 1/840 lattice, so the scan is exact
        rng = np.random.default_rng(55)
        found = 0
        for _ in range(10):
            m = int(rng.integers(2, 5))
            a = rng.integers(0, 2, size=(m, 4)).astype(float)
            if not a.any(axis=1).all():
                continue
            inst = MipInstance.create(a, [2, 2])
            report = solve_mip_lp(inst)
            assert report.status == "optimal"
            assert report.objective == pytest.approx(
                _grid_minimax(inst, 840), abs=1e-6
            )
            found += 1
        assert found >= 6

    def test_vertex_solution_fractional_support(self):
        # a vertex of the reformulated program keeps at most m assignment
        # entries strictly fractional
        for seed in range(8):
            inst = random_mip(seed + 40)
            report = solve_mip_lp(inst)
            assert report.status == "optimal"
            x = report.solution.x
            fractional = np.sum((x > 1e-9) & (x < 1.0 - 1e-9))
            assert fractional <= inst.m

    def test_group_sums_are_one(self):
        inst = random_mip(seed=3)
        report = solve_mip_lp(inst)
        for g in range(inst.n_groups):
            sl = inst.group_slice(g)
            assert report.solution.x[sl].sum() == pytest.approx(1.0, abs=1e-9)


class TestIngestSolution:
    def test_feasible_vector_accepted(self):
        inst = CipInstance.create(np.eye(2), np.ones(2), [np.ones(2)])
        sol = ingest_solution(inst, [1.0, 1.5])
        assert sol.objective_values[0] == pytest.approx(2.5)
        assert sol.feasibility_slack == 0.0

    def test_dimension_mismatch(self):
        inst = CipInstance.create(np.eye(2), np.ones(2), [np.ones(2)])
        with pytest.raises(InfeasibleError, match="expected 2"):
            ingest_solution(inst, [1.0])

    def test_violation_names_worst_row(self):
        inst = CipInstance.create(np.eye(3), np.ones(3), [np.ones(3)])
        with pytest.raises(InfeasibleError, match="row 1"):
            ingest_solution(inst, [1.0, 0.2, 1.0])

    def test_minimax_group_sum_checked(self):
        inst = MipInstance.create(np.eye(2), [2])
        with pytest.raises(InfeasibleError, match="group 0"):
            ingest_solution(inst, [0.9, 0.4])
        sol = ingest_solution(inst, [0.25, 0.75])
        assert sol.objective_values[0] == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        for inst in (CipInstance.create(np.eye(2), np.ones(2), [np.ones(2)]),
                     MipInstance.create(np.eye(2), [2])):
            with pytest.raises(InfeasibleError, match="non-finite"):
                ingest_solution(inst, [bad, 1.0])

    def test_objectives_are_those_of_the_clipped_point(self):
        # the simplex vertex of this cover has entries a few ulps below 0
        inst = gen_set_cover(12, 20, 5, 2, 0)
        sol = solve_cip_lp(inst).solution
        assert np.all(sol.x >= 0.0)
        assert sol.objective_values == (float(inst.costs[0] @ sol.x),)
        again = ingest_solution(inst, np.where(sol.x == 0.0, -1e-9, sol.x))
        np.testing.assert_array_equal(again.x, sol.x)
        assert again.objective_values == sol.objective_values


def _reference_pivot(tableau, row, col):
    """Row-by-row elimination: the pivot before it became one rank-1 update."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def _reference_run_simplex(tableau, basis, budget):
    """Bland's rule scanning every column and every row one scalar at a time."""
    iterations = 0
    n_cols = tableau.shape[1] - 1
    while iterations < budget:
        entering = -1
        for j in range(n_cols):
            if tableau[-1, j] < -lp.PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return iterations, "optimal"
        best_ratio = math.inf
        leaving = -1
        for i in range(tableau.shape[0] - 1):
            coeff = tableau[i, entering]
            if coeff > lp.PIVOT_TOL:
                ratio = tableau[i, -1] / coeff
                if ratio < best_ratio - lp.PIVOT_TOL or (
                    abs(ratio - best_ratio) <= lp.PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("objective unbounded")
        _reference_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
    return iterations, "iteration-limit"


def _with_reference_simplex(monkeypatch, solve, instance):
    with monkeypatch.context() as patched:
        patched.setattr(lp, "_pivot", _reference_pivot)
        patched.setattr(lp, "_run_simplex", _reference_run_simplex)
        return solve(instance)


EQUIVALENCE_CASES = (
    [("cip", lambda s=s: random_cip(s + 500, n_max=30, m_max=20)) for s in range(8)]
    + [("mip", lambda s=s: random_mip(s + 500, max_groups=8, max_slots=4, m_max=10))
       for s in range(8)]
    + [("cip", lambda s=s: gen_set_cover(60, 60, 5, 2, s)) for s in range(2)]
    + [("mip", lambda s=s: gen_hypergraph_partition(20, 20, 4, 2, s)) for s in range(2)]
)


class TestSameAsTheScalarSimplex:
    @pytest.mark.parametrize("kind, build", EQUIVALENCE_CASES)
    def test_status_pivots_and_vertex_bits_match(self, monkeypatch, kind, build):
        instance = build()
        solve = solve_cip_lp if kind == "cip" else solve_mip_lp
        new = solve(instance)
        reference = _with_reference_simplex(monkeypatch, solve, instance)
        assert (new.status, new.iterations) == (reference.status, reference.iterations)
        assert new.status == "optimal"
        assert new.solution.x.tobytes() == reference.solution.x.tobytes()
        assert new.objective == reference.objective

    def test_degenerate_systems_that_drive_artificials_out(self, monkeypatch):
        # Zero right-hand sides leave artificials basic at level 0 after
        # phase 1.  Each pivot that drives one out must take the first
        # structural column with a nonzero entry, as the scalar scan did.
        rng = np.random.default_rng(0)
        real_pivot, real_run = lp._pivot, lp._run_simplex
        state = {"in_simplex": False, "n": 0, "drive_outs": 0}

        def run(*args):
            state["in_simplex"] = True
            try:
                return real_run(*args)
            finally:
                state["in_simplex"] = False

        def pivot(tableau, row, col):
            if not state["in_simplex"]:
                state["drive_outs"] += 1
                row_values = tableau[row, : state["n"]]
                assert col == next(j for j, v in enumerate(row_values) if abs(v) > lp.PIVOT_TOL)
            real_pivot(tableau, row, col)

        for _ in range(300):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
            lhs = rng.integers(-1, 2, size=(m, n)).astype(float)
            rhs = rng.integers(0, 3, size=m).astype(float)
            costs = rng.integers(-1, 3, size=n).astype(float)
            with monkeypatch.context() as patched:
                patched.setattr(lp, "_pivot", _reference_pivot)
                patched.setattr(lp, "_run_simplex", _reference_run_simplex)
                try:
                    reference = lp._two_phase(costs, lhs, rhs, 100)
                except RuntimeError:  # unbounded
                    continue
            with monkeypatch.context() as patched:
                patched.setattr(lp, "_pivot", pivot)
                patched.setattr(lp, "_run_simplex", run)
                state["n"] = n
                x, iterations, status = lp._two_phase(costs, lhs, rhs, 100)
            assert (iterations, status) == reference[1:]
            assert (x is None) == (reference[0] is None)
            if x is not None:
                # equal values; a zero may differ in sign until
                # ingest_solution clips the point
                np.testing.assert_array_equal(x, reference[0])
        assert state["drive_outs"] >= 10

    def test_run_cut_off_by_the_iteration_limit_leaves_the_same_tableau(self, monkeypatch):
        instance = gen_set_cover(60, 60, 5, 2, 0)
        real_two_phase, real_run = lp._two_phase, lp._run_simplex
        monkeypatch.setattr(lp, "_two_phase", lambda costs, lhs, rhs, limit:
                            real_two_phase(costs, lhs, rhs, 40))
        states = []

        def recording(run):
            def run_and_record(tableau, basis, budget):
                result = run(tableau, basis, budget)
                states.append((tableau.copy(), list(basis), result))
                return result
            return run_and_record

        monkeypatch.setattr(lp, "_run_simplex", recording(real_run))
        new = solve_cip_lp(instance)
        monkeypatch.setattr(lp, "_run_simplex", recording(_reference_run_simplex))
        reference = solve_cip_lp(instance)
        assert (new.status, new.iterations) == (reference.status, reference.iterations)
        assert (new.status, new.iterations, new.solution) == ("iteration-limit", 40, None)
        (tableau, basis, result), (ref_tableau, ref_basis, ref_result) = states
        assert (basis, result) == (ref_basis, ref_result)
        # equal values; only the sign of a zero entry may differ
        assert np.array_equal(tableau, ref_tableau)


class TestTwoPhaseInputs:
    @pytest.mark.parametrize("kind, build", [
        ("cip", lambda: gen_set_cover(60, 60, 5, 2, 0)),
        ("mip", lambda: gen_hypergraph_partition(20, 20, 4, 2, 0)),
    ])
    def test_phase_two_runs_without_the_artificial_columns(self, monkeypatch, kind, build):
        real_two_phase, real_run = lp._two_phase, lp._run_simplex
        systems, shapes = [], []

        def two_phase(costs, lhs, rhs, limit):
            systems.append(lhs.shape)
            return real_two_phase(costs, lhs, rhs, limit)

        def run(tableau, basis, budget):
            shapes.append(tableau.shape)
            return real_run(tableau, basis, budget)

        monkeypatch.setattr(lp, "_two_phase", two_phase)
        monkeypatch.setattr(lp, "_run_simplex", run)
        report = (solve_cip_lp if kind == "cip" else solve_mip_lp)(build())
        assert report.status == "optimal"
        [(m, n)] = systems
        assert shapes == [(m + 1, n + m + 1), (m + 1, n + 1)]

    @pytest.mark.parametrize("kind, build", EQUIVALENCE_CASES)
    def test_builders_give_a_nonnegative_right_hand_side(self, monkeypatch, kind, build):
        real_two_phase = lp._two_phase
        right_hand_sides = []

        def two_phase(costs, lhs, rhs, limit):
            right_hand_sides.append(np.array(rhs))
            return real_two_phase(costs, lhs, rhs, limit)

        monkeypatch.setattr(lp, "_two_phase", two_phase)
        (solve_cip_lp if kind == "cip" else solve_mip_lp)(build())
        [rhs] = right_hand_sides
        assert np.all(rhs >= 0.0)


class TestAgainstHighs:
    """Optima against scipy's HiGHS, a test-only dependency."""

    @pytest.mark.parametrize("build", [
        lambda: gen_set_cover(40, 40, 5, 2, 1),
        lambda: gen_set_cover(100, 100, 5, 2, 2),
        lambda: gen_set_cover(60, 90, 5, 3, 3),
        lambda: random_cip(77, n_max=30, m_max=20),
    ])
    def test_cover_optimum_and_feasibility(self, build):
        linprog = pytest.importorskip("scipy.optimize").linprog
        instance = build()
        report = solve_cip_lp(instance)
        highs = linprog(instance.costs[0], A_ub=-instance.a_matrix, b_ub=-instance.demands,
                        bounds=(0, None), method="highs")
        assert report.status == "optimal" and highs.status == 0
        assert report.objective == pytest.approx(highs.fun, rel=1e-6)
        assert report.solution.feasibility_slack <= lp.FEASIBILITY_TOL

    @pytest.mark.parametrize("edges, seed", [(15, 4), (20, 5), (30, 6)])
    def test_partition_optimum(self, edges, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        instance = gen_hypergraph_partition(edges, edges, 4, 2, seed)
        m, n = instance.m, instance.n_cols
        assert m <= 60
        report = solve_mip_lp(instance)
        # variables: the assignment x, then W; rows A x - W <= 0, group sums = 1
        a_ub = np.hstack([instance.a_matrix, -np.ones((m, 1))])
        a_eq = np.zeros((instance.n_groups, n + 1))
        for g in range(instance.n_groups):
            a_eq[g, instance.group_slice(g)] = 1.0
        highs = linprog(np.eye(n + 1)[n], A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq,
                        b_eq=np.ones(instance.n_groups), bounds=(0, None), method="highs")
        assert report.status == "optimal" and highs.status == 0
        assert report.objective == pytest.approx(highs.fun, rel=1e-6)
