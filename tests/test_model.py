"""Instance model: validation, sparsity statistics, generators, and the JSON
round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllround import (
    CipInstance,
    GenerationError,
    InstanceError,
    MipInstance,
    ParseError,
    gen_facility_location,
    gen_hypergraph_partition,
    gen_set_cover,
    full_mip_pipeline,
    ingest_solution,
    parse_instance,
    round_cip,
    serialize_instance,
    sparsity_stats,
)

import _reference_generators
from _builders import lp_point, random_cip, random_mip, two_cost_cover, uniform_group_weights


class TestCipInstance:
    def test_create_normalizes_costs(self):
        inst = CipInstance.create(
            np.array([[0.5, 1.0]]), [1.0], [np.array([2.0, 4.0])]
        )
        np.testing.assert_allclose(inst.costs[0], [0.5, 1.0])
        assert inst.cost_scales == (4.0,)

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(InstanceError, match=r"\[0, 1\]"):
            CipInstance.create(np.array([[1.5]]), [1.0], [np.ones(1)])

    def test_rejects_demand_below_one(self):
        with pytest.raises(InstanceError, match="at least 1"):
            CipInstance.create(np.array([[1.0]]), [0.5], [np.ones(1)])

    def test_zero_one_matrix_needs_integral_demands(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InstanceError, match="integral"):
            CipInstance.create(a, [1.5, 1.0], [np.ones(2)])
        # within tolerance of an integer: silently rounded
        inst = CipInstance.create(a, [2.0 + 1e-12, 1.0], [np.ones(2)])
        np.testing.assert_array_equal(inst.demands, [2.0, 1.0])

    def test_rejects_empty_rows(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InstanceError, match="positive entry"):
            CipInstance.create(a, [1.0, 1.0], [np.ones(2)])

    @pytest.mark.parametrize("a, demands, costs", [
        ([[np.nan, 1.0]], [1.0], [[1.0, 1.0]]),
        ([[1.0, 1.0]], [np.inf], [[1.0, 1.0]]),
        ([[1.0, 1.0]], [np.nan], [[1.0, 1.0]]),
        ([[1.0, 1.0]], [1.0], [[np.nan, 1.0]]),
        ([[1.0, 1.0]], [1.0], [[np.inf, 1.0]]),
    ])
    def test_rejects_non_finite_input(self, a, demands, costs):
        with pytest.raises(InstanceError):
            CipInstance.create(a, demands, costs)

    def test_adjacency_matches_dense_scan(self):
        inst = random_cip(seed=4, ell=2)
        for j in range(inst.n):
            np.testing.assert_array_equal(
                inst.col_rows[j], np.nonzero(inst.a_matrix[:, j])[0]
            )
        for i in range(inst.m):
            np.testing.assert_array_equal(
                inst.row_cols[i], np.nonzero(inst.a_matrix[i])[0]
            )


class TestMipInstance:
    def test_group_slices_partition_columns(self):
        inst = random_mip(seed=2)
        seen = []
        for g in range(inst.n_groups):
            sl = inst.group_slice(g)
            seen.extend(range(sl.start, sl.stop))
        assert seen == list(range(inst.n_cols))

    def test_rejects_bad_group_sizes(self):
        with pytest.raises(InstanceError):
            MipInstance.create(np.ones((1, 2)), [2, 0])
        with pytest.raises(InstanceError, match="at least one group"):
            MipInstance.create(np.ones((1, 0)), [])

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(InstanceError):
            MipInstance.create(np.array([[0.5, 1.2]]), [2])


class TestStorage:
    @pytest.mark.parametrize("inst", [gen_set_cover(12, 20, 5, 2, 0),
                                      gen_hypergraph_partition(10, 8, 4, 2, 0)])
    def test_no_attribute_is_a_dense_matrix(self, inst):
        m, n = inst.shape
        for name, value in vars(inst).items():
            for array in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(array, np.ndarray):
                    assert array.ndim == 1 and array.size < m * n, name

    def test_triplets_loads_and_dense_view_agree(self):
        for inst in (random_cip(seed=5, ell=2), random_mip(seed=5)):
            dense = inst.a_matrix
            rows, cols = np.nonzero(dense)
            np.testing.assert_array_equal(inst.rows, rows)
            np.testing.assert_array_equal(inst.cols, cols)
            np.testing.assert_array_equal(inst.vals, dense[rows, cols])
            x = np.random.default_rng(5).uniform(0.0, 2.0, inst.shape[1])
            np.testing.assert_allclose(inst.loads(x), dense @ x, rtol=1e-15)
            assert not dense.flags.writeable

    def test_rounding_paths_build_no_dense_matrix(self, monkeypatch):
        covers = [gen_set_cover(30, 24, 5, 2, 1), two_cost_cover()]
        points = [lp_point(inst) for inst in covers]  # the simplex tableau is dense
        texts = [serialize_instance(inst) for inst in covers]
        partition = gen_hypergraph_partition(10, 8, 4, 2, 1)
        weights, partition_text = uniform_group_weights(partition), serialize_instance(partition)
        for cls in (CipInstance, MipInstance):
            monkeypatch.setattr(cls, "a_matrix", property(lambda self: pytest.fail("dense view built")))
        for text, x in zip(texts, points):
            inst = parse_instance(text)
            solution, _ = round_cip(inst, ingest_solution(inst, x).x)
            assert solution.feasible
        inst = parse_instance(partition_text)
        report, _ = full_mip_pipeline(inst, x_star=ingest_solution(inst, weights).x)
        assert report.success

    def test_from_triplets_checks_the_triplets(self):
        demands, costs = [1.0, 1.0], [np.ones(2)]
        inst = CipInstance.from_triplets((2, 2), [0, 1], [1, 0], [0.5, 1.0], demands, costs)
        np.testing.assert_array_equal(inst.a_matrix, [[0.0, 0.5], [1.0, 0.0]])
        for rows, cols, vals, match in [
            ([1, 0], [0, 1], [1.0, 1.0], "sorted"),
            ([0, 0, 1], [1, 1, 0], [1.0, 1.0, 1.0], "duplicates"),
            ([0, 1], [1, 2], [1.0, 1.0], "outside the 2 x 2 matrix"),
            ([0, 1], [1, 0], [1.0], "one value per triplet"),
        ]:
            with pytest.raises(InstanceError, match=match):
                CipInstance.from_triplets((2, 2), rows, cols, vals, demands, costs)


class TestSparsityStats:
    def test_identity(self):
        inst = CipInstance.create(np.eye(3), np.ones(3), [np.ones(3)])
        stats = sparsity_stats(inst)
        assert (stats.a, stats.g, stats.t) == (1, 1.0, 1)

    def test_all_ones_single_group(self):
        inst = MipInstance.create(np.ones((2, 3)), [3])
        stats = sparsity_stats(inst)
        assert stats.a == 2
        assert stats.g == pytest.approx(2.0)
        assert stats.t == 2

    def test_chain_on_random_minimax_instances(self):
        for seed in range(25):
            inst = random_mip(seed)
            stats = sparsity_stats(inst)
            max_group = max(
                inst.group_slice(g).stop - inst.group_slice(g).start
                for g in range(inst.n_groups)
            )
            assert stats.g <= stats.a + 1e-12
            assert stats.a <= stats.t
            assert stats.t <= min(inst.m, stats.a * max_group)

    def test_matches_dense_recount(self):
        for seed in range(10):
            inst = random_cip(seed)
            stats = sparsity_stats(inst)
            dense_a = int(np.max(np.count_nonzero(inst.a_matrix, axis=0)))
            dense_g = float(np.max(inst.a_matrix.sum(axis=0)))
            assert stats.a == dense_a
            assert stats.g == pytest.approx(dense_g)
            assert stats.t == dense_a  # covering instances report the column stat


class TestSetCoverGenerator:
    def test_singletons_plus_full_set_cover(self):
        # the classic hand construction: one column per element plus one
        # column holding everything; the wide column dominates the sparsity
        a = np.hstack([np.eye(4), np.ones((4, 1))])
        inst = CipInstance.create(a, np.ones(4), [np.ones(5)])
        assert sparsity_stats(inst).a == 4

    def test_capped_set_size_caps_sparsity(self):
        inst = gen_set_cover(4, 5, 2, 1, seed=0)
        assert sparsity_stats(inst).a <= 2

    def test_deterministic_for_fixed_seed(self):
        one = gen_set_cover(8, 12, 4, 2, seed=9)
        two = gen_set_cover(8, 12, 4, 2, seed=9)
        assert serialize_instance(one) == serialize_instance(two)

    def test_coverage_margin_and_invariants(self):
        for seed in range(6):
            inst = gen_set_cover(10, 16, 5, 3, seed=seed)
            # every element appears in at least demand+1 sets
            assert np.all(np.count_nonzero(inst.a_matrix, axis=1) >= 4)
            assert np.all((inst.a_matrix == 0) | (inst.a_matrix == 1))
            assert np.all(inst.demands == 3.0)
            assert sparsity_stats(inst).a <= 5

    def test_rejects_impossible_parameters(self):
        with pytest.raises(GenerationError):
            gen_set_cover(10, 2, 5, 3, seed=0)  # fewer sets than demand+1
        with pytest.raises(GenerationError):
            gen_set_cover(50, 5, 2, 1, seed=0)  # capacity cannot cover


class TestFacilityGenerator:
    def test_complete_digraph_rows(self):
        # complete out-neighborhoods (with self-loops) mean every row sums
        # to the node count
        inst = CipInstance.create(np.ones((3, 3)), np.ones(3), [np.ones(3)])
        np.testing.assert_allclose(inst.a_matrix.sum(axis=1), 3.0)

    def test_sparsity_within_degree_budget(self):
        for seed in range(6):
            inst = gen_facility_location(12, 4, 2, seed=seed)
            assert sparsity_stats(inst).a <= 5  # max_in_degree + self-loop
            assert np.all(inst.a_matrix.sum(axis=1) >= 2.0)

    def test_deterministic_for_fixed_seed(self):
        one = gen_facility_location(9, 3, 1, seed=5)
        two = gen_facility_location(9, 3, 1, seed=5)
        assert serialize_instance(one) == serialize_instance(two)

    def test_rejects_degree_below_demand(self):
        with pytest.raises(GenerationError):
            gen_facility_location(6, 1, 2, seed=0)


class TestHypergraphGenerator:
    def test_single_edge_two_parts_shape(self):
        # one 3-vertex edge split into 2 parts: one row per (edge, part)
        a = np.zeros((2, 6))
        for v in range(3):
            a[0, 2 * v] = 1.0  # part 0 slot of vertex v
            a[1, 2 * v + 1] = 1.0  # part 1 slot
        inst = MipInstance.create(a, [2, 2, 2])
        assert inst.m == 2
        assert inst.n_groups == 3

    def test_generated_degree_statistics(self):
        for seed in range(8):
            inst = gen_hypergraph_partition(12, 10, 4, 2, seed=seed)
            stats = sparsity_stats(inst)
            # vertex degree = number of rows a single slot column touches
            degree = int(np.max(np.count_nonzero(inst.a_matrix, axis=0)))
            assert stats.a == degree
            assert stats.g == pytest.approx(float(degree))
            assert degree <= 4

    def test_deterministic_for_fixed_seed(self):
        one = gen_hypergraph_partition(10, 8, 3, 2, seed=21)
        two = gen_hypergraph_partition(10, 8, 3, 2, seed=21)
        assert serialize_instance(one) == serialize_instance(two)

    def test_row_count_is_edges_times_parts(self):
        inst = gen_hypergraph_partition(9, 7, 4, 3, seed=2)
        assert inst.m == 7 * 3
        assert inst.n_groups == 9


def _triplets_are_sorted_and_distinct(inst) -> bool:
    keys = inst.rows * inst.shape[1] + inst.cols
    return bool(np.all(np.diff(keys) > 0))


class TestGeneratorsAtScale:
    """Structural invariants at sizes the loop-by-loop reference generators
    take 1 to 12 s to build."""

    def test_set_cover_2000_by_3600(self):
        inst = gen_set_cover(2000, 3600, 5, 2, 0)
        assert np.diff(inst.row_ptr).min() >= 3  # demand + 1 sets per element
        assert np.bincount(inst.cols, minlength=3600).max() <= 5
        assert _triplets_are_sorted_and_distinct(inst)

    def test_facility_location_3000_nodes(self):
        inst = gen_facility_location(3000, 4, 2, 0)
        assert np.diff(inst.row_ptr).min() >= 2
        # in-degree at most 4, plus a self-loop
        assert np.bincount(inst.cols, minlength=3000).max() <= 5
        assert _triplets_are_sorted_and_distinct(inst)

    def test_hypergraph_partition_2000_edges(self):
        inst = gen_hypergraph_partition(2000, 2000, 4, 2, 0)
        assert np.bincount(inst.cols, minlength=4000).max() <= 4  # vertex degree
        assert np.all(np.diff(inst.row_ptr) >= 2)  # every edge has 2 to 4 vertices
        assert np.all(np.diff(inst.row_ptr) <= 4)
        assert _triplets_are_sorted_and_distinct(inst)


REFERENCE_PAIRS = {
    "set_cover": (gen_set_cover, _reference_generators.reference_set_cover),
    "facility_location": (gen_facility_location, _reference_generators.reference_facility_location),
    "hypergraph_partition": (gen_hypergraph_partition,
                             _reference_generators.reference_hypergraph_partition),
}
GENERATOR_CALLS = st.one_of(
    st.tuples(st.just("set_cover"), st.integers(1, 30), st.integers(1, 40),
              st.integers(1, 8), st.integers(1, 4)),
    st.tuples(st.just("facility_location"), st.integers(1, 30), st.integers(1, 6),
              st.integers(1, 4)),
    st.tuples(st.just("hypergraph_partition"), st.integers(1, 20), st.integers(1, 30),
              st.integers(1, 5), st.integers(1, 4)),
)


class TestSameAsTheReferenceGenerators:
    @given(call=GENERATOR_CALLS, seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=700, deadline=None)
    def test_same_bytes_or_same_error(self, call, seed):
        name, *args = call
        outcomes = []
        for generate in REFERENCE_PAIRS[name]:
            try:
                outcomes.append(serialize_instance(generate(*args, seed)))
            except GenerationError as exc:
                outcomes.append(f"GenerationError: {exc}")
        assert outcomes[0] == outcomes[1]


class TestSerialization:
    def test_cip_round_trip(self):
        inst = random_cip(seed=31, ell=2)
        back = parse_instance(serialize_instance(inst))
        assert isinstance(back, CipInstance)
        np.testing.assert_allclose(back.a_matrix, inst.a_matrix)
        np.testing.assert_allclose(back.demands, inst.demands)
        for mine, theirs in zip(inst.costs, back.costs):
            np.testing.assert_allclose(mine, theirs)

    def test_mip_round_trip(self):
        inst = random_mip(seed=8)
        back = parse_instance(serialize_instance(inst))
        assert isinstance(back, MipInstance)
        np.testing.assert_allclose(back.a_matrix, inst.a_matrix)
        assert list(back.group_sizes) == list(inst.group_sizes)

    def test_missing_demands_named_in_error(self):
        doc = json.loads(serialize_instance(random_cip(seed=1)))
        del doc["b"]
        with pytest.raises(ParseError, match='"b"'):
            parse_instance(json.dumps(doc))

    def test_out_of_range_entry_rejected(self):
        doc = json.loads(serialize_instance(random_cip(seed=1)))
        doc["A"][0][2] = 1.5
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            parse_instance(json.dumps(doc))

    def test_unsorted_triplets_rejected(self):
        doc = json.loads(serialize_instance(random_cip(seed=1)))
        doc["A"][0], doc["A"][1] = doc["A"][1], doc["A"][0]
        with pytest.raises(ParseError, match="sorted"):
            parse_instance(json.dumps(doc))

    def test_duplicate_triplet_rejected(self):
        doc = json.loads(serialize_instance(random_cip(seed=1)))
        doc["A"].insert(1, list(doc["A"][0]))
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance(json.dumps(doc))

    def test_zero_valued_triplet_rejected(self):
        doc = json.loads(serialize_instance(random_cip(seed=1)))
        doc["A"][0][2] = 0.0
        with pytest.raises(ParseError, match="zero"):
            parse_instance(json.dumps(doc))

    def test_bad_kind_rejected(self):
        with pytest.raises(ParseError, match="kind"):
            parse_instance('{"kind": "lp", "m": 1}')

    @pytest.mark.parametrize("kind, where, bad", [
        ("cip", ("A", 0, 2), "x"),
        ("cip", ("A", 0, 2), True),
        ("cip", ("A", 0, 2), float("nan")),
        ("cip", ("A", 0, 1), True),
        ("cip", ("b", 0), "x"),
        ("cip", ("b", 0), True),
        ("cip", ("b", 0), float("inf")),
        ("cip", ("costs", 0, 0), "a"),
        ("cip", ("costs", 0, 0), float("nan")),
        pytest.param("cip", ("costs", 0, 0), 10**400, id="cip-where9-int-beyond-float"),
        ("cip", ("costs", 0), 1.0),
        ("mip", ("groups", 0), "a"),
        ("mip", ("groups", 0), True),
        ("mip", ("groups", 0), 2.0),
        ("mip", ("A", 0, 2), float("-inf")),
    ])
    def test_non_numeric_boolean_and_non_finite_values_rejected(self, kind, where, bad):
        doc = json.loads(serialize_instance(random_cip(seed=1) if kind == "cip" else random_mip(seed=1)))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = bad
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance("{not json")
