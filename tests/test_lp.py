"""Simplex relaxation solver against closed-form cases and brute-force
reference optima."""

import numpy as np
import pytest

from lllround import (
    CipInstance,
    InfeasibleError,
    MipInstance,
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

    def test_secondary_objective_index(self):
        inst = random_cip(seed=7, ell=2)
        report = solve_cip_lp(inst, objective_index=1)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(
            float(inst.costs[1] @ report.solution.x), abs=1e-9
        )
        with pytest.raises(ValueError):
            solve_cip_lp(inst, objective_index=2)


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
