"""Ground-truth enumeration and the inequality verifiers."""

import itertools
import json
import math

import numpy as np
import pytest

import lllround.cip as cip_module
import lllround.oracle as oracle_module
from lllround import (
    BudgetExceeded,
    CipInstance,
    MipInstance,
    choose_alpha_beta,
    column_sparsity,
    exact_event_probs,
    make_estimator,
    make_scheme,
    parse_instance,
    solve_cip_lp,
    verify_branch_inequality,
    verify_extended_lll,
    verify_fkg_and_antifkg,
    verify_phi_domination,
)
from _builders import col_rows, lp_point, random_cip, random_mip, uniform_group_weights
from _reference_optima import exact_ilp, lp_vertex_optimum


def pair_row_scheme():
    """One row x1 + x2 >= 1 at the half/half point, scaled by 1.5."""
    inst = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
    return make_scheme(inst, [0.5, 0.5], 1.5)


def qualified_state(seed, n_max=10, m_max=5):
    inst = random_cip(seed, n_max=n_max, m_max=m_max)
    x = lp_point(inst)
    alpha, beta = choose_alpha_beta(column_sparsity(inst), float(inst.demands.min()))
    scheme = make_scheme(inst, x, alpha)
    lam = alpha * beta * float(inst.costs[0] @ x) - scheme.floor_costs[0]
    return make_estimator(scheme, [lam], [1])


class TestExactEventProbs:
    def test_fair_coin_pair(self):
        probs = exact_event_probs(pair_row_scheme(), [0.5, 0.5], lambdas=[1.0])
        assert probs.row_fail[0] == 0.25
        assert probs.all_clear == 0.75
        # success additionally needs the cost increment within budget 1,
        # which rules out the both-bits outcome
        assert probs.success == 0.5

    def test_without_budgets_success_is_none(self):
        probs = exact_event_probs(pair_row_scheme(), [0.5, 0.5])
        assert probs.success is None

    def test_deterministic_bits(self):
        probs = exact_event_probs(pair_row_scheme(), [0.0, 0.0])
        assert probs.row_fail[0] == 1.0
        assert probs.all_clear == 0.0
        probs = exact_event_probs(pair_row_scheme(), [1.0, 0.0])
        assert probs.row_fail[0] == 0.0

    def test_matches_monte_carlo(self):
        inst = random_cip(1, n_max=10, m_max=5)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        rng = np.random.default_rng(99)
        p = rng.uniform(0.1, 0.9, inst.n)
        probs = exact_event_probs(scheme, p)
        trials = 200_000
        bits = rng.random((trials, inst.n)) < p
        loads = bits @ inst.a_matrix.T
        clear = (loads >= scheme.residual[None, :]).all(axis=1)
        estimate = float(np.mean(clear))
        sigma = math.sqrt(max(probs.all_clear * (1 - probs.all_clear), 1e-12) / trials)
        assert abs(estimate - probs.all_clear) < 4 * sigma

    def test_bit_budget_enforced(self):
        inst = CipInstance.create(np.ones((1, 23)), [1.0], [np.ones(23)])
        scheme = make_scheme(inst, np.full(23, 1 / 23), 1.5)
        with pytest.raises(BudgetExceeded, match="22-bit budget"):
            exact_event_probs(scheme, np.full(23, 0.5))

    def test_probability_vector_validation(self):
        scheme = pair_row_scheme()
        with pytest.raises(ValueError, match="probability per bit"):
            exact_event_probs(scheme, [0.5])
        with pytest.raises(ValueError, match="probability per bit"):
            exact_event_probs(scheme, [0.5, 1.2])


class TestExactIlp:
    def test_identity_optimum(self):
        cost = np.array([0.8, 0.5, 1.0])
        inst = CipInstance.create(np.eye(3), [1.0, 2.0, 3.0], [cost])
        z, value = exact_ilp(inst)
        assert np.array_equal(z, [1.0, 2.0, 3.0])
        assert value == pytest.approx(float(cost @ [1, 2, 3] / cost.max()))

    def test_full_set_beats_singletons(self):
        a = np.hstack([np.eye(4), np.ones((4, 1))])
        inst = CipInstance.create(a, np.ones(4), [np.ones(5)])
        z, value = exact_ilp(inst)
        assert value == pytest.approx(1.0)
        assert np.array_equal(z, [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_ties_break_lexicographically(self):
        inst = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
        z, value = exact_ilp(inst)
        assert value == pytest.approx(1.0)
        assert np.array_equal(z, [0.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_never_beats_the_relaxation_and_stays_feasible(self, seed):
        inst = random_cip(seed, n_max=7, m_max=5)
        report = solve_cip_lp(inst)
        z, value = exact_ilp(inst)
        assert value >= report.solution.objective_values[0] - 1e-9
        assert np.all(inst.a_matrix @ z >= inst.demands - 1e-12)

    def test_box_budget_enforced(self, monkeypatch):
        inst = CipInstance.create(np.full((1, 3), 0.5), [2.0], [np.ones(3)])
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "4")
        with pytest.raises(BudgetExceeded, match="box search"):
            exact_ilp(inst)


class TestPhiDomination:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_states_pass_at_standard_and_moved_points(self, seed):
        state = qualified_state(seed)
        report = verify_phi_domination(state)
        assert report.passed
        assert report.status == "checked"
        assert report.counterexample is None
        assert report.lhs >= report.rhs - 1e-9
        rng = np.random.default_rng(seed)
        moved = state.at(rng.uniform(0.0, 1.0, state.scheme.instance.n))
        assert verify_phi_domination(moved).passed

    def test_injected_fault_produces_a_replayable_counterexample(self, monkeypatch):
        state = qualified_state(0)
        monkeypatch.setattr(cip_module, "success_lower_bound", lambda s: 2.0)
        report = verify_phi_domination(state)
        assert not report.passed
        fixture = report.counterexample
        assert fixture is not None
        assert {"p", "claim", "lhs", "rhs"} <= set(fixture)
        assert fixture["claim"] == report.claim
        replayed = parse_instance(json.dumps(fixture))
        assert isinstance(replayed, CipInstance)
        assert replayed.m == state.scheme.instance.m
        assert replayed.n == state.scheme.instance.n
        assert np.allclose(replayed.a_matrix, state.scheme.instance.a_matrix)


class TestBranchInequality:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_fractional_bit_passes(self, seed):
        state = qualified_state(seed, n_max=8)
        for j in range(state.scheme.instance.n):
            if state.p[j] in (0.0, 1.0):
                continue
            report = verify_branch_inequality(state, j)
            assert report.passed
            assert report.lhs <= report.rhs + 1e-9

    def test_integral_bit_short_circuits(self):
        state = qualified_state(1)
        p = state.p.copy()
        p[0] = 1.0
        state = state.at(p)
        report = verify_branch_inequality(state, 0)
        assert report.passed
        assert report.status == "bit already integral"


class TestFkgAndAntiFkg:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_split_passes_both_directions(self, seed):
        inst = random_cip(seed, n_max=8, m_max=4)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        rng = np.random.default_rng(seed + 7)
        p = rng.uniform(0.2, 0.8, inst.n)
        rows = list(range(inst.m))
        block = rows[: max(1, inst.m // 2)]
        cond_rows = rows[max(1, inst.m // 2) :]
        cols = rng.permutation(inst.n)
        first, second = verify_fkg_and_antifkg(
            scheme, p, block, cond_rows, [int(cols[0])], [int(cols[1])]
        )
        assert first.claim == "conditional block survival >= product of marginals"
        assert first.passed
        assert second.claim == "conditional all-ones probability <= inflated product"
        assert second.passed

    def test_empty_block_and_empty_anti_are_vacuous(self):
        scheme = pair_row_scheme()
        first, second = verify_fkg_and_antifkg(scheme, [0.5, 0.5], [], [0], [], [])
        assert first.passed and first.rhs == 1.0
        assert second.passed and second.rhs == 1.0

    def test_zero_probability_conditioning_rejected(self):
        scheme = pair_row_scheme()
        with pytest.raises(ValueError, match="zero probability"):
            verify_fkg_and_antifkg(scheme, [0.0, 0.5], [0], [], [0], [])

    def test_impossible_survival_conditioning_rejected(self):
        scheme = pair_row_scheme()
        with pytest.raises(ValueError, match="all-rows-hold"):
            verify_fkg_and_antifkg(scheme, [0.0, 0.0], [0], [], [], [1])


class TestExtendedLll:
    def test_disjoint_groups_have_no_dependencies(self):
        a = np.zeros((2, 4))
        a[0, 0] = a[0, 1] = 1.0
        a[1, 2] = a[1, 3] = 1.0
        inst = MipInstance.create(a, [2, 2])
        # each row has a single contributing group, so the order-2 moment of
        # its contribution list is 0 and the premise holds with room to spare
        report = verify_extended_lll(inst, [0.5, 0.5, 0.5, 0.5], k=2)
        assert report.passed
        assert report.status == "checked"
        assert report.lhs == pytest.approx(1.0)  # loads are always exactly the mean
        assert report.rhs == 0.0

    def test_met_premise_on_a_designed_overlap(self):
        # Six groups of five slots.  Rows 0 and 1 are each touched by four
        # groups (sharing groups 2 and 3), one slot per group, so each row
        # load is a sum of four independent 0.2-Bernoullis with mean 0.8.
        a = np.zeros((2, 30))
        for g in range(4):
            a[0, 5 * g + 0] = 1.0
        for g in range(2, 6):
            a[1, 5 * g + 1] = 1.0
        inst = MipInstance.create(a, [5] * 6)
        x = np.full(30, 0.2)
        report = verify_extended_lll(inst, x, k=2)
        assert report.status == "checked"
        assert report.passed
        assert report.rhs == pytest.approx((2 / 3) ** 2)

        # independent recomputation: per group, the relevant outcome is
        # which of the two special slots (if either) was picked
        group_outcomes = {
            0: [(1, 0, 0.2), (0, 0, 0.8)],
            1: [(1, 0, 0.2), (0, 0, 0.8)],
            2: [(1, 0, 0.2), (0, 1, 0.2), (0, 0, 0.6)],
            3: [(1, 0, 0.2), (0, 1, 0.2), (0, 0, 0.6)],
            4: [(0, 1, 0.2), (0, 0, 0.8)],
            5: [(0, 1, 0.2), (0, 0, 0.8)],
        }
        good = 0.0
        for combo in itertools.product(*group_outcomes.values()):
            load0 = sum(c[0] for c in combo)
            load1 = sum(c[1] for c in combo)
            if load0 < 0.8 + 2 and load1 < 0.8 + 2:
                good += math.prod(c[2] for c in combo)
        assert report.lhs == pytest.approx(good, abs=1e-12)

    def test_unmet_premise_is_reported_not_failed(self):
        inst = random_mip(5)
        report = verify_extended_lll(inst, uniform_group_weights(inst), k=1)
        assert report.status == "hypothesis unmet"
        assert report.passed
        assert report.counterexample is None
        assert report.lhs > 1.0  # the violating premise value is surfaced

    def test_slack_validation(self):
        inst = random_mip(0)
        with pytest.raises(ValueError, match="slack must be at least 1"):
            verify_extended_lll(inst, uniform_group_weights(inst), k=0)

    def test_assignment_budget_enforced(self, monkeypatch):
        # met premise (see the disjoint test) so the check reaches the
        # enumeration stage, where four assignments exceed a 1-bit budget
        a = np.zeros((2, 4))
        a[0, 0] = a[0, 1] = 1.0
        a[1, 2] = a[1, 3] = 1.0
        inst = MipInstance.create(a, [2, 2])
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "1")
        with pytest.raises(BudgetExceeded, match="assignments"):
            verify_extended_lll(inst, [0.5, 0.5, 0.5, 0.5], k=2)


class TestEnumerationBudget:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "8")
        assert oracle_module._budget_bits() == 8
        monkeypatch.delenv("LLLROUND_BUDGET_BITS")
        assert oracle_module._budget_bits() == 22

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "lots")
        with pytest.raises(ValueError, match="must be an integer"):
            oracle_module._budget_bits()

    def test_hard_caps(self, monkeypatch):
        for bits in ("0", "27"):
            monkeypatch.setenv("LLLROUND_BUDGET_BITS", bits)
            with pytest.raises(ValueError, match=r"must be in \[1, 26\]"):
                oracle_module._budget_bits()
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "3")
        oracle_module._check_budget(1 << 3, "eight outcomes")
        with pytest.raises(BudgetExceeded, match="sixteen outcomes exceeds the 3-bit budget"):
            oracle_module._check_budget(1 << 4, "sixteen outcomes")


class TestLpVertexOptimum:
    def test_single_constraint(self):
        x, value = lp_vertex_optimum([1.0, 2.0], [[1.0, 1.0]], [1.0])
        assert value == pytest.approx(1.0)
        assert x == pytest.approx([1.0, 0.0])

    def test_two_constraints(self):
        x, value = lp_vertex_optimum(
            [2.0, 1.0], [[1.0, 0.0], [1.0, 1.0]], [0.5, 2.0]
        )
        # x1 >= 0.5 is forced; the rest is cheapest on x2
        assert value == pytest.approx(2.0 * 0.5 + 1.5)
        assert x == pytest.approx([0.5, 1.5])

    def test_matches_the_simplex_on_a_random_instance(self):
        inst = random_cip(6, n_max=6, m_max=4)
        report = solve_cip_lp(inst)
        _, value = lp_vertex_optimum(inst.costs[0], inst.a_matrix, inst.demands)
        assert value == pytest.approx(report.solution.objective_values[0], abs=1e-6)


def cover_by_brute_force(scheme, p, lam, row_block, cond_rows, cond_cols, anti_cols):
    """Every quantity the cover enumerations report, from a loop over all 2^n
    bit vectors, frozen bits included."""
    inst = scheme.instance
    a, costs = inst.a_matrix, np.array(inst.costs)
    fail = np.zeros(inst.m)
    clear = success = cond = joint = anti = 0.0
    for z in itertools.product((0.0, 1.0), repeat=inst.n):
        z = np.array(z)
        w = math.prod(p[j] if z[j] else 1.0 - p[j] for j in range(inst.n))
        holding = a @ z >= scheme.residual
        fail += w * ~holding
        clear += w * holding.all()
        success += w * (holding.all() and np.all(costs @ z <= lam))
        given = holding[cond_rows].all() and z[cond_cols].all()
        cond += w * given
        joint += w * (given and holding[row_block].all())
        anti += w * (holding.all() and z[anti_cols].all())
    touched = sorted({int(r) for j in anti_cols for r in col_rows(inst, j)})
    ratios = (joint / cond, np.prod(1.0 - fail[row_block]),
              anti / clear, np.prod(p[anti_cols]) / np.prod(1.0 - fail[touched]))
    return fail, clear, success, ratios


class TestEnumerationOfRandomBitsOnly:
    @pytest.mark.parametrize("seed", range(8))
    def test_covers_with_frozen_bits_match_the_full_loop(self, seed):
        # a flat feasible point leaves most rows to the random bits
        inst = random_cip(seed, n_max=10, m_max=5, ell=2)
        flat = np.full(inst.n, float(np.max(inst.demands / inst.a_matrix.sum(axis=1))))
        scheme = make_scheme(inst, flat, 1.05)
        rng = np.random.default_rng(seed + 40)
        p = rng.uniform(0.3, 0.9, inst.n)
        frozen = rng.choice(inst.n, size=inst.n // 3 + 1, replace=False)
        p[frozen] = rng.integers(0, 2, size=frozen.size)
        lam = 1.2 * np.array(inst.costs) @ p
        rows = list(rng.permutation(inst.m))
        row_block, cond_rows = sorted(rows[: inst.m // 2]), sorted(rows[inst.m // 2 :])
        live = [int(j) for j in rng.permutation(np.flatnonzero(p > 0.0))]
        cond_cols, anti_cols = sorted(live[:1]), sorted(live[1:3])
        fail, clear, success, ratios = cover_by_brute_force(
            scheme, p, lam, row_block, cond_rows, cond_cols, anti_cols)

        probs = exact_event_probs(scheme, p, lambdas=lam)
        assert np.allclose(probs.row_fail, fail, rtol=0.0, atol=1e-12)
        assert probs.all_clear == pytest.approx(clear, rel=0.0, abs=1e-12)
        assert probs.success == pytest.approx(success, rel=0.0, abs=1e-12)
        first, second = verify_fkg_and_antifkg(
            scheme, p, row_block, cond_rows, cond_cols, anti_cols)
        got = (first.lhs, first.rhs, second.lhs, second.rhs)
        assert got == pytest.approx(ratios, rel=0.0, abs=1e-12)

    def test_budget_counts_only_the_random_bits(self, monkeypatch):
        inst = CipInstance.create(np.ones((1, 30)), [1.0], [np.ones(30)])
        scheme = make_scheme(inst, np.full(30, 1 / 30), 1.5)
        p = np.zeros(30)
        p[:4] = 0.5
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "4")
        probs = exact_event_probs(scheme, p)
        assert probs.all_clear == pytest.approx(1.0 - 0.5**4, abs=1e-15)
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "3")
        with pytest.raises(BudgetExceeded, match="2\\^4 outcomes exceeds the 3-bit budget"):
            exact_event_probs(scheme, p)

    @pytest.mark.parametrize("q", [0.2, 0.25])
    def test_minimax_with_single_slot_groups_matches_the_full_loop(self, q):
        # Rows 0 and 1 each take one slot of weight q from four of six
        # three-slot groups; group 6 puts all its mass on one slot (fixed),
        # group 7 splits it over two slots and leaves one empty.
        a = np.zeros((2, 24))
        for g in range(4):
            a[0, 3 * g] = 1.0
        for g in range(2, 6):
            a[1, 3 * g + 1] = 1.0
        a[0, 18], a[0, 19], a[1, 21] = 0.5, 0.3, 0.25
        inst = MipInstance.create(a, [3] * 8)
        x = np.zeros(24)
        for g in range(6):
            x[3 * g] = q if g < 4 else (1 - q) / 2
            x[3 * g + 1] = q if g >= 2 else (1 - q) / 2
            x[3 * g + 2] = 1.0 - x[3 * g] - x[3 * g + 1]
        x[18:24] = [1.0, 0.0, 0.0, 0.5, 0.0, 0.5]
        k = 3
        report = verify_extended_lll(inst, x, k)
        assert report.status == "checked"

        mu = a @ x
        good = 0.0
        for slots in itertools.product(range(3), repeat=8):
            picks = [3 * g + s for g, s in enumerate(slots)]
            w = math.prod(x[j] for j in picks)
            good += w * bool(np.all(a[:, picks].sum(axis=1) < mu + k))
        assert 0.0 < good < 1.0
        assert report.lhs == pytest.approx(good, rel=0.0, abs=1e-12)

    def test_single_slot_groups_leave_the_assignment_budget(self, monkeypatch):
        # 30 two-slot groups, 29 of them fixed: two assignments, not 2^30
        inst = MipInstance.create(0.1 * np.eye(60), [2] * 30)
        x = np.tile([1.0, 0.0], 30)
        x[:2] = 0.5
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "1")
        report = verify_extended_lll(inst, x, k=1)
        assert report.status == "checked" and report.lhs == pytest.approx(1.0)

    def test_correlation_checks_enumerate_once(self, monkeypatch):
        calls = []
        real = oracle_module._random_bit_chunks
        monkeypatch.setattr(oracle_module, "_random_bit_chunks",
                            lambda *args: calls.append(args) or real(*args))
        inst = random_cip(3, n_max=8, m_max=4)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        verify_fkg_and_antifkg(scheme, np.full(inst.n, 0.5), [0], [1], [0], [1])
        assert len(calls) == 1


class TestChunkSize:
    def test_chunks_tile_the_outcomes_within_the_entry_cap(self):
        from lllround.oracle import _CHUNK_ENTRIES, _chunk_ranges

        for total, width in ((1 << 20, 1000), (1 << 16, 12), (5, 1 << 23), (1, 3)):
            ranges = list(_chunk_ranges(total, width))
            assert ranges[0][0] == 0 and ranges[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            sizes = [stop - start for start, stop in ranges]
            assert max(sizes) * width <= _CHUNK_ENTRIES or max(sizes) == 1

    def test_one_outcome_chunks_give_the_same_results(self, monkeypatch):
        inst = random_cip(5, n_max=10, m_max=5, ell=2)
        scheme = make_scheme(inst, lp_point(inst), 1.5)
        p = np.random.default_rng(5).uniform(0.2, 0.8, inst.n)  # 2^9 outcomes
        lam = 1.2 * np.array(inst.costs) @ p
        tie = CipInstance.create([[1.0, 1.0]], [1.0], [np.ones(2)])
        graph = random_mip(5)
        x = uniform_group_weights(graph)

        def run():
            probs = exact_event_probs(scheme, p, lambdas=lam)
            chunks = list(oracle_module._assignment_chunks(graph, x))
            return probs, exact_ilp(tie), chunks

        probs, ilp, chunks = run()
        monkeypatch.setattr(oracle_module, "_CHUNK_ENTRIES", 1)
        probs1, ilp1, chunks1 = run()
        assert len(chunks) == 1 and all(w.size == 1 for _, w in chunks1) and len(chunks1) > 1
        assert np.allclose(probs1.row_fail, probs.row_fail, rtol=0.0, atol=1e-12)
        assert probs1.all_clear == pytest.approx(probs.all_clear, rel=0.0, abs=1e-12)
        assert probs1.success == pytest.approx(probs.success, rel=0.0, abs=1e-12)
        assert np.array_equal(ilp1[0], ilp[0]) and ilp1[0].tolist() == [0.0, 1.0]
        assert ilp1[1] == ilp[1]
        assert np.allclose(np.vstack([l for l, _ in chunks1]), chunks[0][0], rtol=0.0, atol=1e-12)
        assert np.allclose(np.concatenate([w for _, w in chunks1]), chunks[0][1],
                           rtol=0.0, atol=1e-12)
