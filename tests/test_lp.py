"""Simplex relaxation solver against closed-form cases, brute-force
reference optima, HiGHS, the full-tableau simplex, and a cycling LP."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lllround.lp as lp
from lllround import (
    CipInstance,
    InfeasibleError,
    MipInstance,
    bootstrap_reduce,
    gen_hypergraph_partition,
    gen_set_cover,
    ingest_solution,
    make_scheme,
    solve_cip_lp,
    solve_mip_lp,
)

from _builders import STRADDLING_GROUP, highs_optimum, point_violation, random_cip, random_mip
from _reference_lp import (
    cover_tableau,
    dense_pivot,
    dense_run_simplex,
    minimax_tableau,
    reference_solve,
    scalar_pivot,
    scalar_run_simplex,
)
from _reference_mip import reference_crash_slots
from _reference_optima import lp_vertex_optimum

# largest demand shortfall an optimal relaxation may leave
FEASIBILITY_TOL = 1e-9


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
        assert point_violation(inst, again.x) <= 1e-9
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
        assert point_violation(inst, sol.x) == 0.0

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

    @given(sizes=st.lists(st.integers(8, 16), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1),
           off=st.one_of(st.floats(-2e-6, 2e-6), st.sampled_from([-1e-6, 1e-6])))
    @example(sizes=[9], seed=0, off=None)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_ingest_accepts_a_point_exactly_when_rounding_does(self, sizes, seed, off):
        # groups of 8 or more slots, where a `reduceat` segment and the
        # group's own sum can round apart, with totals near 1 +- 1e-6
        inst = MipInstance.create(np.eye(sum(sizes)), sizes)
        if off is None:
            x = np.array(STRADDLING_GROUP)
        else:
            rng = np.random.default_rng(seed)
            x = np.concatenate([w / w.sum() * (1.0 + off) for w in map(rng.random, sizes)])
        feasible = all(abs(x[inst.group_slice(g)].sum() - 1.0) <= 1e-6
                       for g in range(inst.n_groups))
        try:
            ingest_solution(inst, x)
        except InfeasibleError as exc:
            assert not feasible
            with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
                bootstrap_reduce(inst, x, 0)
        else:
            assert feasible
            bootstrap_reduce(inst, x, 0)
        # a cover point short of a demand: the same error from both
        cover = CipInstance.create(np.eye(2), np.ones(2), [np.ones(2)])
        with pytest.raises(InfeasibleError) as ingested:
            ingest_solution(cover, [1.0, 0.5])
        with pytest.raises(InfeasibleError, match=f"^{re.escape(str(ingested.value))}$"):
            make_scheme(cover, [1.0, 0.5], 2.0)
        assert str(ingested.value) == "row 1 short by 5.000e-01"

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


def _cover_with_first_cost(rows, seed, costs):
    """The square unit cover of `seed` under a first cost with zeros, whose
    dual starts from degenerate rows, or with coarse values that tie."""
    base = gen_set_cover(rows, rows, 5, 2, seed)
    rng = np.random.default_rng(seed)
    first = (np.where(rng.random(rows) < 0.2, 0.0, rng.uniform(0.5, 1.0, rows)) if costs == "zeros"
             else rng.choice([0.5, 1.0, 2.0], rows))
    return CipInstance.create(base.a_matrix, base.demands, [first])


EQUIVALENCE_CASES = (
    [("cip", lambda s=s: random_cip(s + 500, n_max=30, m_max=20)) for s in range(8)]
    + [("mip", lambda s=s: random_mip(s + 500, max_groups=8, max_slots=4, m_max=10))
       for s in range(8)]
    + [("cip", lambda s=s: gen_set_cover(60, 60, 5, 2, s)) for s in range(2)]
    + [("mip", lambda s=s: gen_hypergraph_partition(20, 20, 4, 2, s)) for s in range(2)]
    # the benchmark's shapes: its largest square covers, its fixed cover and
    # its largest partitions (100 rows)
    + [("cip", lambda s=s: gen_set_cover(150, 150, 5, 2, s)) for s in (4, 1000)]
    + [("cip", lambda: gen_set_cover(200, 128, 5, 2, 0))]
    + [("mip", lambda s=s: gen_hypergraph_partition(50, 50, 4, 2, s)) for s in (1, 1010)]
    + [("cip", lambda s=s, c=c: _cover_with_first_cost(60, s, c))
       for c in ("zeros", "coarse") for s in range(3)]
)


def _assert_is_the_full_tableau(tableau, basis, nonbasic, full, full_basis, exact=True):
    """The condensed tableau holds the full one's nonbasic columns and its
    right-hand side, and the full one's basic columns are unit vectors; bit
    for bit, or only in value (the sign of a zero may differ) without
    `exact`."""
    assert list(basis) == list(full_basis)
    assert sorted([*basis, *nonbasic]) == list(range(full.shape[1] - 1))
    unit = np.eye(full.shape[0], len(basis))
    pairs = [(tableau, full[:, [*nonbasic, -1]]), (unit, full[:, basis])]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes() if exact else np.array_equal(got, want)


class TestSameAsTheScalarSimplex:
    """The simplex on nonbasic columns against the full tableau's dense and
    scalar forms (`_reference_lp`)."""

    @pytest.mark.parametrize("kind, build", EQUIVALENCE_CASES)
    def test_status_pivots_and_vertex_bits_match(self, kind, build):
        instance = build()
        new = (solve_cip_lp if kind == "cip" else solve_mip_lp)(instance)
        assert new.status == "optimal"
        for scalar in (False, True):
            reference = reference_solve(instance, scalar=scalar)
            assert (new.status, new.iterations) == (reference.status, reference.iterations)
            assert new.solution.x.tobytes() == reference.solution.x.tobytes()
            assert new.objective == reference.objective

    def test_run_cut_off_by_the_iteration_limit_leaves_the_same_tableau(self, monkeypatch):
        # a cover, a cover whose dual starts from degenerate rows, a minimax LP
        cases = [(gen_set_cover(60, 60, 5, 2, 0), 40), (_cover_with_first_cost(60, 0, "zeros"), 20),
                 (gen_hypergraph_partition(50, 50, 4, 2, 1), 20)]
        real_run = lp._run_simplex
        for instance, budget in cases:
            states = []
            monkeypatch.setattr(lp, "_run_simplex", lambda tableau, basis, nonbasic, _, stall_limit: (
                states.append((tableau, basis, nonbasic))
                or real_run(tableau, basis, nonbasic, budget, stall_limit)))
            cover = isinstance(instance, CipInstance)
            new = (solve_cip_lp if cover else solve_mip_lp)(instance)
            assert (new.status, new.iterations, new.solution) == ("iteration-limit", budget, None)
            [(tableau, basis, nonbasic)] = states
            for scalar in (False, True):
                full, full_basis = (cover_tableau(instance) if cover else
                                    minimax_tableau(instance, scalar_pivot if scalar else dense_pivot))
                run = scalar_run_simplex if scalar else dense_run_simplex
                assert run(full, full_basis, budget, 50 if cover else 0) == (budget, "iteration-limit")
                _assert_is_the_full_tableau(tableau, basis, nonbasic, full, full_basis, exact=not scalar)


def _negative_zeros(tableau):
    return int(np.count_nonzero((tableau == 0.0) & np.signbit(tableau)))


def _condensed_and_full(rng, w_pivot):
    """A condensed tableau with its basis and nonbasic labels, and the full
    tableau it stands for; the pivot (row, col) is positive, or -1 at the
    max-load row in the minimax W pivot's form, whose right-hand side holds
    the -0 of unloaded rows."""
    rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 10))
    labels = rng.permutation(rows + cols)
    basis, nonbasic = labels[:rows].tolist(), labels[rows:].copy()
    # coarse values cancel exactly and many zeros meet negative factors;
    # none is -0
    coarse = rng.choice([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0], (rows + 1, cols + 1))
    tableau = np.where(rng.random(coarse.shape) < 0.3, rng.uniform(-2.0, 2.0, coarse.shape), coarse)
    col = int(rng.integers(cols))
    if w_pivot:
        loads = rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)], rows)
        groups = int(rng.integers(0, rows))
        loads[:groups] = 0.0
        row = groups + int(np.argmax(loads[groups:]))
        tableau[:groups, -1] = 1.0
        tableau[groups:-1, -1] = -loads[groups:]
        tableau[:, col] = 0.0
        tableau[groups:-1, col] = -1.0
        tableau[-1, col] = 1.0
        tableau[-1, :-1] = np.where(np.arange(cols) == col, 1.0, 0.0)
        tableau[-1, -1] = 0.0
    else:
        row = int(rng.integers(rows))
        tableau[row, col] = rng.choice([0.25, 1.0, 3.0, rng.uniform(1e-9, 5.0)])
    full = np.zeros((rows + 1, rows + cols + 1))
    full[:, nonbasic] = tableau[:, :-1]
    full[:, -1] = tableau[:, -1]
    full[np.arange(rows), basis] = 1.0
    return tableau, basis, nonbasic, full, row, col


class TestRankOneUpdate:
    """The pivot's BLAS product against `np.outer`, and the absence of -0
    that makes their zero terms interchangeable."""

    @given(seed=st.integers(0, 2**32 - 1), w_pivot=st.booleans())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_pivot_is_the_dense_pivot_bit_for_bit(self, seed, w_pivot):
        tableau, basis, nonbasic, full, row, col = _condensed_and_full(np.random.default_rng(seed),
                                                                       w_pivot)
        entering = int(nonbasic[col])
        lp._pivot(tableau, basis, nonbasic, row, col)
        dense_pivot(full, row, entering)
        _assert_is_the_full_tableau(tableau, basis, nonbasic, full, basis)
        assert _negative_zeros(tableau) == 0

    @pytest.mark.parametrize("kind, build", EQUIVALENCE_CASES)
    def test_no_pivot_leaves_a_negative_zero(self, monkeypatch, kind, build):
        # the crash's W pivot included, so the sign of a zero term never counts
        real_pivot = lp._pivot
        left = []

        def pivot(tableau, *args):
            real_pivot(tableau, *args)
            left.append(_negative_zeros(tableau))

        monkeypatch.setattr(lp, "_pivot", pivot)
        report = (solve_cip_lp if kind == "cip" else solve_mip_lp)(build())
        assert len(left) == report.iterations + (kind == "mip") > 0
        assert not any(left)

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_blas_product_rounds_each_term_as_the_outer_product(self, seed, size):
        # subnormal to 1e300, so the terms underflow, overflow or fall between;
        # a BLAS that flushed subnormals or fused otherwise would move vertices
        rng = np.random.default_rng(seed)

        def vector():
            v = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1074, 997, size))
            return np.where(rng.random(size) < 0.1, 0.0, v * rng.choice([-1.0, 1.0], size))

        column, row = vector(), vector()
        with np.errstate(over="ignore", under="ignore"):
            got = np.dot(-column[:, None], row[None, :])
            want = -np.outer(column, row)
        nonzero = (got != 0.0) | (want != 0.0)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()


class TestSelectionRules:
    """One pivot of `_run_simplex` on a condensed tableau whose columns are
    in shuffled variable order, against the rules stated plainly."""

    @given(seed=st.integers(0, 2**32 - 1), bland=st.booleans())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_one_pivot_enters_and_leaves_by_the_stated_rules(self, seed, bland):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        labels = rng.permutation(rows + cols)
        basis, nonbasic = labels[:rows].tolist(), labels[rows:].copy()
        tableau = rng.choice([-0.5, 0.0, 1e-10, 0.25, 1.0, 2.0], (rows + 1, cols + 1))
        # coarse reduced costs tie exactly; -PIVOT_TOL and above never enter
        tableau[-1, :-1] = rng.choice([-3.0, -2.0, -1.0, -lp.PIVOT_TOL, 0.0, 1.0], cols)
        tableau[-1, rng.integers(cols)] = rng.choice([-3.0, -2.0])
        costs = tableau[-1, :-1]
        negative = [j for j in range(cols) if costs[j] < -lp.PIVOT_TOL]
        if not bland:
            negative = [j for j in negative if costs[j] == costs.min()]
        entering = min(negative, key=lambda j: nonbasic[j])
        # ratios clustered 0.3 to 1.5 PIVOT_TOL apart, in shuffled row order
        column = rng.uniform(0.1, 2.0, rows)
        column[rng.random(rows) < 0.2] = rng.choice([-1.0, 0.0, lp.PIVOT_TOL])
        column[rng.integers(rows)] = 1.0
        gaps = rng.uniform(0.3, 1.5, rows) * lp.PIVOT_TOL
        ratios = rng.choice([0.0, 0.5, 3.0]) + rng.permutation(np.cumsum(gaps) - gaps[0])
        tableau[:-1, entering] = column
        tableau[:-1, -1] = ratios * column
        best, leaving = math.inf, -1
        for i in range(rows):
            if column[i] > lp.PIVOT_TOL:
                ratio = tableau[i, -1] / column[i]
                if ratio < best - lp.PIVOT_TOL or (
                        abs(ratio - best) <= lp.PIVOT_TOL and (leaving < 0 or basis[i] < basis[leaving])):
                    best, leaving = ratio, i
        want_basis, want_nonbasic = list(basis), nonbasic.copy()
        want_basis[leaving], want_nonbasic[entering] = int(nonbasic[entering]), basis[leaving]
        assert lp._run_simplex(tableau, basis, nonbasic, 1, 0 if bland else 10**9) == (
            1, "iteration-limit")
        assert basis == want_basis
        np.testing.assert_array_equal(nonbasic, want_nonbasic)


def _beale():
    """Beale's (1955) cycling LP as a condensed tableau: min -3/4 x4 + 150 x5
    - 1/50 x6 + 6 x7 from the degenerate basis {x1, x2, x3}, whose columns
    are not stored; the optimum is -1/20.  Also returns the full tableau."""
    full = np.array([
        [1.0, 0.0, 0.0, 1 / 4, -60.0, -1 / 25, 9.0, 0.0],
        [0.0, 1.0, 0.0, 1 / 2, -90.0, -1 / 50, 3.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, -3 / 4, 150.0, -1 / 50, 6.0, 0.0],
    ])
    return full[:, 3:].copy(), [0, 1, 2], np.arange(3, 7), full, [0, 1, 2]


class TestAntiCycling:
    def test_dantzig_alone_cycles_on_beales_lp(self):
        tableau, basis, nonbasic, full, full_basis = _beale()
        assert lp._run_simplex(tableau, basis, nonbasic, 1000, 1001) == (1000, "iteration-limit")
        assert tableau[-1, -1] == 0.0
        assert dense_run_simplex(full, full_basis, 1000, 1001) == (1000, "iteration-limit")
        _assert_is_the_full_tableau(tableau, basis, nonbasic, full, full_basis)

    @pytest.mark.parametrize("stall_limit, pivots", [(50, 54), (0, 6)])
    def test_bland_fallback_reaches_the_optimum(self, stall_limit, pivots):
        # 50 is the covers' stall limit; 0 is Bland's rule throughout
        tableau, basis, nonbasic, full, full_basis = _beale()
        assert lp._run_simplex(tableau, basis, nonbasic, 1000, stall_limit) == (pivots, "optimal")
        assert tableau[-1, -1] == pytest.approx(1 / 20, rel=1e-12)
        assert dense_run_simplex(full, full_basis, 1000, stall_limit) == (pivots, "optimal")
        _assert_is_the_full_tableau(tableau, basis, nonbasic, full, full_basis)


class TestStartingBases:
    @pytest.mark.parametrize("kind, build", EQUIVALENCE_CASES)
    def test_simplex_starts_from_a_feasible_priced_basis(self, monkeypatch, kind, build):
        real_run = lp._run_simplex
        starts = []

        def run(tableau, basis, nonbasic, budget, stall_limit):
            starts.append((tableau.copy(), list(basis), nonbasic.copy()))
            return real_run(tableau, basis, nonbasic, budget, stall_limit)

        monkeypatch.setattr(lp, "_run_simplex", run)
        instance = build()
        (solve_cip_lp if kind == "cip" else solve_mip_lp)(instance)
        [(tableau, basis, nonbasic)] = starts
        assert np.all(tableau[:-1, -1] >= 0.0)
        full, full_basis = (cover_tableau if kind == "cip" else minimax_tableau)(instance)
        _assert_is_the_full_tableau(tableau, basis, nonbasic, full, full_basis)
        assert np.all(full[-1, basis] == 0.0)
        if kind == "cip":  # the dual from its slack basis, every y nonbasic
            m, n = instance.m, instance.n
            assert tableau.shape == (n + 1, m + 1)
            assert basis == list(range(m, m + n))
            assert nonbasic.tolist() == list(range(m))
        else:
            assert tableau.shape == (instance.n_groups + instance.m + 1,
                                     instance.n_cols - instance.n_groups + 2)

    def test_crash_takes_the_slot_that_raises_the_max_load_least(self):
        a = np.array([[1.0, 0.5, 0.0, 0.0, 0.3],
                      [0.0, 0.0, 1.0, 0.6, 0.3]])
        instance = MipInstance.create(a, [2, 2, 1])
        slots, loads = lp._crash_slots(instance)
        # group 0 takes slot 1 (max load 0.5, not 1); group 1 then takes
        # slot 3 (max 0.6, not 1); group 2 has one slot
        assert slots == [1, 3, 4]
        np.testing.assert_allclose(loads, [0.8, 0.9])

    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 12), min_size=1, max_size=12),
           entries=st.sampled_from(["fractional", "coarse"]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_crash_is_the_dense_crash(self, seed, sizes, entries):
        # coarse entries make many slots tie on their max load
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        a = (rng.uniform(0.01, 1.0, (m, sum(sizes))) if entries == "fractional"
             else rng.choice([0.25, 0.5, 1.0], (m, sum(sizes))))
        a[rng.random(a.shape) < rng.uniform(0.2, 0.9)] = 0.0
        instance = MipInstance.create(a, sizes)
        slots, loads = lp._crash_slots(instance)
        want_slots, want_loads = reference_crash_slots(instance)
        assert slots == want_slots
        assert np.array_equal(loads, want_loads)

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_pivots_are_not_iterations(self, monkeypatch, seed):
        instance = random_mip(seed + 500, max_groups=8, max_slots=4, m_max=10)
        real_pivot = lp._pivot
        pivots = []
        monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(1) or real_pivot(*args))
        report = solve_mip_lp(instance)
        assert len(pivots) == report.iterations + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_crash_tableau_is_the_slots_and_w_pivoted_in(self, monkeypatch, seed):
        # the one-write crash holds the columns of pivoting each group's
        # slot, then W, into the uncrashed full tableau with rank-1 pivots,
        # sign bits included
        instance = random_mip(seed + 500, max_groups=8, max_slots=4, m_max=10)
        m, n, n_groups = instance.m, instance.n_cols, instance.n_groups
        starts = []
        monkeypatch.setattr(lp, "_run_simplex", lambda tableau, basis, nonbasic, *_: (
            starts.append((tableau.copy(), list(basis), nonbasic.copy())) or (0, "iteration-limit")))
        solve_mip_lp(instance)
        [(tableau, basis, nonbasic)] = starts
        expected = np.zeros((n_groups + m + 1, n + m + 2))
        for g in range(n_groups):
            expected[g, instance.group_slice(g)] = 1.0
        expected[:n_groups, -1] = 1.0
        expected[n_groups:-1, :n] = instance.a_matrix
        expected[n_groups:-1, n] = -1.0
        expected[n_groups:-1, n + 1 : -1] = np.eye(m)
        expected[-1, n] = 1.0
        top = basis.index(n)
        for row in [*range(n_groups), top]:
            dense_pivot(expected, row, basis[row])
        _assert_is_the_full_tableau(tableau, basis, nonbasic, expected, basis)


class TestAgainstHighs:
    """Optima against scipy's HiGHS, a test-only dependency."""

    @pytest.mark.parametrize("build", [
        lambda: gen_set_cover(40, 40, 5, 2, 1),
        lambda: gen_set_cover(100, 100, 5, 2, 2),
        lambda: gen_set_cover(60, 90, 5, 3, 3),
        lambda: random_cip(77, n_max=30, m_max=20),
        # the benchmark's fixed cover, 426 pivots (939 under Bland's rule alone)
        lambda: gen_set_cover(200, 128, 5, 2, 0),
        # 4,896 pivots under Bland's rule alone
        lambda: gen_set_cover(300, 300, 5, 2, 0),
    ])
    def test_cover_optimum_and_feasibility(self, build):
        instance = build()
        report = solve_cip_lp(instance)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(highs_optimum(instance), rel=1e-6)
        assert point_violation(instance, report.solution.x) <= FEASIBILITY_TOL

    @pytest.mark.parametrize("args", [
        (15, 15, 4, 2, 4), (20, 20, 4, 2, 5), (30, 30, 4, 2, 6),
        # 120 and 140 rows at W = 2, 71 and 141 pivots from the crash basis
        (60, 60, 4, 2, 5287266), (70, 70, 4, 2, 9),
    ])
    def test_partition_optimum(self, args):
        instance = gen_hypergraph_partition(*args)
        report = solve_mip_lp(instance)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(highs_optimum(instance), rel=1e-6)

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["cip", "mip"]))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_random_instances_reach_the_highs_optimum_at_a_vertex(self, seed, kind):
        if kind == "cip":
            instance = random_cip(seed, n_max=30, m_max=20)
            report, basis_size = solve_cip_lp(instance), instance.m
        else:
            instance = random_mip(seed, max_groups=8, max_slots=4, m_max=10)
            report, basis_size = solve_mip_lp(instance), instance.n_groups + instance.m
        assert report.status == "optimal"
        assert report.objective == pytest.approx(highs_optimum(instance), rel=1e-9)
        assert point_violation(instance, report.solution.x) <= FEASIBILITY_TOL
        assert np.count_nonzero(report.solution.x > 0.0) <= basis_size

