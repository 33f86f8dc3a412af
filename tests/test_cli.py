"""Command-line behaviour: exit codes, file outputs, manifests, and replay."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lllround
from lllround import (
    CipInstance,
    MipInstance,
    bootstrap_reduce,
    choose_parameters,
    gen_hypergraph_partition,
    gen_set_cover,
    las_vegas_mip,
    parse_instance,
    serialize_instance,
    solve_cip_lp,
    solve_mip_lp,
)
from lllround.cli import BENCH_COLUMNS, main
from _builders import STRADDLING_GROUP, highs_optimum, lp_point, two_cost_cover


def gen(tmp_path, *extra, kind="set-cover", seed=3, name="inst.json"):
    out = tmp_path / name
    code = main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def two_cost(tmp_path, name="two_cost.json"):
    out = tmp_path / name
    out.write_text(serialize_instance(two_cost_cover()))
    return out


FEWER_GROUPS_THAN_SLACK = ('{"A":[[0,0,0.62],[1,1,0.797],[2,0,0.839],[2,2,0.468],[3,0,0.258]],'
                           '"groups":[3],"kind":"mip","m":5}')
UNLOADED_SLOT = '{"A":[[0,0,0.5]],"groups":[2],"kind":"mip","m":1}'
# 10^15 rows: the row index alone would take 7.1 PiB, past a 47-bit address
# space, so numpy refuses it at once whatever the kernel's overcommit policy
TOO_MANY_ROWS = '{"A":[[0,0,1],[0,2,1],[1,1,1],[1,3,1]],"groups":[2,2],"kind":"mip","m":1000000000000000}'
MIP_CHECKS = [["round", "--mode", "mip"], ["verify", "--which", "lll"]]


def tiny_loads(value: str) -> str:
    """Two groups of two slots, each slot loading one of two rows by `value`."""
    return ('{"kind":"mip","m":2,"groups":[2,2],'
            f'"A":[[0,0,{value}],[0,2,{value}],[1,1,{value}],[1,3,{value}]]}}')


def run_and_list_modules(argv, run=None) -> list[str]:
    """Run the CLI on argv in a fresh interpreter, or, given `run`, that
    Python code instead (exit code None); its output lines, the last but
    one the lllround modules loaded, the last the exit code and whether
    numpy.random and numpy.ma loaded."""
    run = run or f"from lllround.cli import main\ncode = main({argv!r})"
    script = ("import sys\ncode = None\n" + run + "\n"
              "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'lllround'))\n"
              "print(code, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)")
    src = Path(lllround.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.stdout, proc.stderr
    return proc.stdout.splitlines()


class TestModuleLoading:
    """The package root loads a module on first use, so a run compiles only
    the modules it calls."""

    @pytest.mark.parametrize("run, loaded", [
        ("import lllround", "lllround"),
        ("import lllround\nlllround.model.gen_set_cover(12, 20, 5, 2, 0)",
         "lllround lllround.model"),
        # the README's quick start: the root searches its modules in
        # dependency order, so a model name loads the model alone
        ("from lllround import gen_set_cover\ngen_set_cover(12, 20, 5, 2, 0)",
         "lllround lllround.model"),
    ])
    def test_the_package_root_loads_no_module_until_asked(self, run, loaded):
        assert run_and_list_modules(None, run)[-2] == loaded

    def test_gen_loads_only_the_model(self, tmp_path):
        lines = run_and_list_modules(["gen", "--kind", "set-cover", "--out", str(tmp_path / "i.json")])
        assert lines[-1].startswith("0 ")
        assert lines[-2] == "lllround lllround.cli lllround.model"

    def test_verify_tail_loads_no_rounding_module(self, tmp_path):
        inst = gen(tmp_path)
        lines = run_and_list_modules(["verify", str(inst), "--which", "tail"])
        assert lines[-1].startswith("0 ")
        assert lines[-2] == ("lllround lllround.cli lllround.model lllround.oracle "
                             "lllround.tailbounds")

    @pytest.mark.parametrize("kind, mode, loaded", [
        ("set-cover", "derandomize", "cip lp model tailbounds"),
        ("hypergraph", "mip", "lp mip model tailbounds"),
    ])
    def test_round_loads_only_what_its_instance_needs(self, tmp_path, kind, mode, loaded):
        inst = gen(tmp_path, kind=kind)
        lines = run_and_list_modules(
            ["round", str(inst), "--mode", mode, "--out", str(tmp_path / "r.json")])
        assert lines[-1].startswith("0 ")
        assert lines[-2].split() == sorted(["lllround", "lllround.cli",
                                            *(f"lllround.{name}" for name in loaded.split())])


class TestGen:
    def test_writes_instance_and_manifest(self, tmp_path, capsys):
        out = gen(tmp_path)
        instance = parse_instance(out.read_text())
        assert instance.m > 0
        manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"][0] == "gen"
        assert manifest["outputs"] == [str(out)]
        assert "wrote covering instance" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a = gen(tmp_path, name="a.json")
        b = gen(tmp_path, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["facility", "hypergraph"])
    def test_other_kinds(self, tmp_path, kind):
        out = gen(tmp_path, kind=kind, name=f"{kind}.json")
        assert parse_instance(out.read_text()).m > 0

    def test_unknown_kind_is_usage_error(self, tmp_path):
        code = main(["gen", "--kind", "tsp", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_impossible_generation_is_usage_error(self, tmp_path, capsys):
        code = main([
            "gen", "--kind", "set-cover", "--n-elems", "12", "--n-sets", "2",
            "--max-set-size", "3", "--demand", "5", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "cannot generate" in capsys.readouterr().err


class TestRound:
    def test_derandomize_output_document(self, tmp_path, capsys):
        inst = gen(tmp_path)
        out = tmp_path / "rounded.json"
        code = main(["round", str(inst), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"z", "objectives", "lambda", "phi_trace", "feasible"}
        assert doc["feasible"] is True
        assert all(isinstance(v, int) for v in doc["z"])
        instance = parse_instance(inst.read_text())
        z = np.array(doc["z"], dtype=float)
        assert np.all(instance.a_matrix @ z >= instance.demands - 1e-9)
        assert doc["objectives"][0] == pytest.approx(float(instance.costs[0] @ z))
        trace = doc["phi_trace"]
        assert trace and all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        stdout = capsys.readouterr().out
        assert "ratio=" in stdout
        assert "feasible=True" in stdout

    def test_standard_mode_has_empty_trace(self, tmp_path):
        inst = gen(tmp_path)
        out = tmp_path / "std.json"
        code = main(["round", str(inst), "--mode", "standard", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["phi_trace"] == []

    @pytest.mark.parametrize("mode", ["standard", "derandomize"])
    def test_lambda_holds_the_total_budgets(self, tmp_path, mode):
        instance = two_cost_cover()
        out = tmp_path / f"{mode}.json"
        assert main(["round", str(two_cost(tmp_path)), "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        _, _, _, info = choose_parameters(instance, lp_point(instance))
        assert doc["lambda"] == info["total_budgets"]
        assert len(doc["lambda"]) == 2
        if mode == "derandomize":
            assert all(v <= b + 1e-9 for v, b in zip(doc["objectives"], doc["lambda"]))

    def test_budget_below_the_floor_cost_exits_2_in_both_modes(self, tmp_path, capsys):
        inst = gen(tmp_path)
        for mode in ("standard", "derandomize"):
            code = main(["round", str(inst), "--mode", mode, "--lambda", "0.5",
                         "--out", str(tmp_path / "r.json")])
            assert code == 2
            assert "below the floor cost" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["standard", "derandomize"])
    def test_a_zero_budget_with_no_costly_random_bit_rounds_at_cost_0(self, tmp_path, mode):
        inst = tmp_path / "inst.json"
        inst.write_text(ZERO_COST_COVER)
        out = tmp_path / "r.json"
        assert main(["round", str(inst), "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lambda"] == [0.0] and doc["objectives"] == [0.0]

    @pytest.mark.parametrize("mode", ["standard", "derandomize"])
    def test_a_rounding_that_costs_0_like_its_relaxation_has_ratio_1(self, tmp_path, capsys,
                                                                      mode):
        inst = tmp_path / "inst.json"
        inst.write_text(ZERO_COST_COVER)
        assert main(["round", str(inst), "--mode", mode, "--out", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out == (
            f"mode={mode}  value=0  target=0  ratio=1.0000  feasible=True\n")

    @pytest.mark.parametrize("mode", ["mip", "derandomize"])
    def test_a_run_that_draws_nothing_never_loads_numpy_random(self, tmp_path, mode):
        # the partition meets its target at trial 0, the estimator's
        # rounding, and a derandomized cover draws no bit; neither run
        # loads numpy.ma, which a plain np.unique imports
        inst = tmp_path / "inst.json"
        instance = (gen_hypergraph_partition(30, 30, 4, 3, 2) if mode == "mip"
                    else gen_set_cover(30, 40, 5, 2, 1))
        inst.write_text(serialize_instance(instance))
        lines = run_and_list_modules(
            ["round", str(inst), "--mode", mode, "--out", str(tmp_path / "r.json")])
        assert lines[-1] == "0 False False"
        assert mode != "mip" or "trials_used=1" in lines[0]

    @pytest.mark.parametrize("mode", ["standard", "derandomize"])
    def test_a_zero_budget_with_a_costly_random_bit_exits_2(self, tmp_path, capsys, mode):
        # at alpha 1.5 the vertex [0, 0, 1] has floor cost 1 and column 2
        # stays random at cost 1, so a total budget of 1 leaves it nothing
        inst = tmp_path / "inst.json"
        inst.write_text(ZERO_COST_COVER.replace("[1.0,1.0,0.0]", "[1.0,1.0,1.0]"))
        code = main(["round", str(inst), "--mode", mode, "--alpha", "1.5", "--lambda", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a total budget falls below the floor cost; raise the budget\n")

    # the interpreter's default filter, under which a warning reaches the user
    @pytest.mark.filterwarnings("always::UserWarning")
    def test_warning_prints_one_line_before_the_error(self, tmp_path, capsys):
        # 4 costs on 2 columns: the scaled means fall below the cap threshold,
        # and the subset order ceil(ln 8) = 3 exceeds the column count
        inst = tmp_path / "four_costs.json"
        inst.write_text(serialize_instance(CipInstance.create(
            [[1.0, 1.0], [1.0, 0.5], [0.5, 1.0]], [1.0, 1.0, 1.0],
            [np.ones(2), [1.0, 2.0], [2.0, 1.0], [1.0, 1.5]])))
        assert main(["round", str(inst), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "warning: scaled means fall below 9.00; budget caps may be loose\n"
            "error: subset order 3 out of range [1, 2]\n"
        )

    def test_zero_objective_at_the_relaxation_exits_2(self, tmp_path, capsys):
        # the second cost is 0 on the LP support, so no multi-criteria scale exists
        base = two_cost_cover()
        second = np.where(lp_point(base) > 0.0, 0.0, 1.0)
        inst = tmp_path / "zero.json"
        inst.write_text(serialize_instance(
            CipInstance.create(base.a_matrix, base.demands, [base.costs[0], second])))
        for argv in (["round", str(inst), "--out", str(tmp_path / "d.json")],
                     ["round", str(inst), "--mode", "standard", "--out", str(tmp_path / "s.json")],
                     ["verify", str(inst)]):
            assert main(argv) == 2
            assert "objective values must be positive" in capsys.readouterr().err

    def test_workers_option_is_gone(self, tmp_path):
        inst = gen(tmp_path)
        assert main(["round", str(inst), "--workers", "1", "--out", str(tmp_path / "r.json")]) == 2
        assert main(["bench", "--workers", "1", "--out", str(tmp_path / "b.csv")]) == 2

    def test_ingested_solution_is_used(self, tmp_path):
        inst_path = gen(tmp_path)
        instance = parse_instance(inst_path.read_text())
        x = np.full(instance.n, float(instance.demands.max()))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": x.tolist(), "objective": float(x.sum())}))
        out = tmp_path / "rounded.json"
        assert main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(out)]) == 0

    def test_infeasible_solution_exits_3(self, tmp_path):
        inst_path = gen(tmp_path)
        instance = parse_instance(inst_path.read_text())
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": [0.0] * instance.n, "objective": 0.0}))
        code = main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_a_group_sum_just_past_the_tolerance_exits_3_in_mip_mode(self, tmp_path, capsys):
        # ingest once summed the group by `reduceat` and accepted the point,
        # and rounding, summing it as one group, then raised a traceback
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({"kind": "mip", "m": 9, "groups": [9],
                                         "A": [[j, j, 1.0] for j in range(9)]}))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": STRADDLING_GROUP}))
        out = tmp_path / "r.json"
        code = main(["round", str(inst_path), "--mode", "mip", "--solution", str(point),
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "infeasible: group 0 weights sum to 1.0000010000000001, not 1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "point.json"]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_solution_exits_3(self, tmp_path, capsys, bad):
        inst_path = gen(tmp_path)
        n = parse_instance(inst_path.read_text()).n
        point = tmp_path / "point.json"
        point.write_text('{"x": [%s%s]}' % (bad, ", 1.0" * (n - 1)))
        code = main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == "infeasible: solution has non-finite entries\n"

    @pytest.mark.parametrize("where, bad", [
        (("A", 0, 2), "x"), (("A", 0, 2), float("nan")), (("b", 0), "x"),
        (("costs", 0, 0), float("nan")), (("costs", 0, 0), "a"),
    ])
    def test_non_numeric_or_non_finite_instance_values_exit_2(self, tmp_path, capsys, where, bad):
        inst_path = gen(tmp_path)
        doc = json.loads(inst_path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = bad
        inst_path.write_text(json.dumps(doc))
        assert main(["round", str(inst_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed instance") and err.count("\n") == 1

    def test_malformed_solution_exits_2(self, tmp_path, capsys):
        inst_path = gen(tmp_path)
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"y": [1, 2]}))
        code = main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--solution must be JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["strings", "bools", "nested", "scalar", "past-float-range"])
    def test_solution_of_anything_but_json_numbers_exits_2(self, tmp_path, capsys, case):
        # Each converts to a float array: strings and bools to another point,
        # which rounded and exited 0, a nested list or a scalar to the wrong
        # shape, which exited 3 as infeasible, and an integer past the float
        # range to a traceback.
        inst_path = gen(tmp_path)
        instance = parse_instance(inst_path.read_text())
        feasible = [float(instance.demands.max())] * instance.n
        x = {"strings": [str(v) for v in feasible], "bools": [True] * instance.n,
             "nested": [[v] for v in feasible], "scalar": 5,
             "past-float-range": [10**400] * instance.n}[case]
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": x}))
        code = main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --solution must be JSON") and err.count("\n") == 1
        point.write_text(json.dumps({"x": feasible[:-1]}))
        assert main(["round", str(inst_path), "--solution", str(point),
                     "--out", str(tmp_path / "r.json")]) == 3  # a number list of the wrong length

    def test_mode_instance_mismatch_exits_2(self, tmp_path):
        cover = gen(tmp_path)
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        assert main(["round", str(cover), "--mode", "mip",
                     "--out", str(tmp_path / "a.json")]) == 2
        assert main(["round", str(graph), "--out", str(tmp_path / "b.json")]) == 2

    def test_mip_mode_reports_trials(self, tmp_path, capsys):
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        out = tmp_path / "mip.json"
        code = main(["round", str(graph), "--mode", "mip", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "value", "target_t42", "target_t44", "trials_used", "t_trace", "success",
        }
        assert doc["success"] is True
        assert "trials_used=" in capsys.readouterr().out

    def test_mip_mode_rounds_a_wide_point_without_a_step(self, tmp_path):
        # Group 0 puts one slot on each of 16 rows; groups 1..15 each hold
        # one slot of weight 0.7 on rows 1..15.  The LP spreads group 0 over
        # all 16 rows (y* = 0.71875, t = 16, column sparsity 1), outside the
        # paper's easy regime.  No support-reduction step runs, so the trace
        # holds the input's width alone, trial 0 meets the target, and no
        # generator module loads.
        a = np.zeros((16, 31))
        for i in range(16):
            a[i, i] = 1.0
        for g in range(1, 16):
            a[g, 15 + g] = 0.7
        instance = MipInstance.create(a, [16] + [1] * 15)
        assert solve_mip_lp(instance).objective == pytest.approx(0.71875)
        path = tmp_path / "spread.json"
        path.write_text(serialize_instance(instance))
        out = tmp_path / "spread-round.json"
        lines = run_and_list_modules(["round", str(path), "--mode", "mip", "--out", str(out)])
        assert lines[-1] == "0 False False"
        doc = json.loads(out.read_text())
        assert doc["t_trace"] == [16]
        assert doc["value"] == 1.0
        assert doc["target_t42"] == 5.71875
        assert doc["trials_used"] == 1
        assert doc["success"] is True

    def test_bootstrap_mode_is_gone(self, tmp_path):
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        argv = ["round", str(graph), "--mode", "bootstrap", "--out", str(tmp_path / "boot.json")]
        assert main(argv) == 2
        manifest = tmp_path / "boot.json.manifest.json"
        manifest.write_text(json.dumps({"command": argv, "seed": 0, "outputs": []}))
        assert main(["replay", str(manifest)]) == 2

    def test_iteration_limit_is_not_reported_as_infeasible(self, tmp_path, capsys, monkeypatch):
        import lllround.lp as lp_module

        real = lp_module._run_simplex
        monkeypatch.setattr(lp_module, "_run_simplex",
                            lambda tableau, basis, nonbasic, limit, stall:
                            real(tableau, basis, nonbasic, 3, stall))
        cover = gen(tmp_path)
        # seed 4: the crash basis is 8 pivots from the optimum
        graph = gen(tmp_path, kind="hypergraph", name="graph.json", seed=4)
        for inst, mode in ((cover, "derandomize"), (graph, "mip")):
            code = main(["round", str(inst), "--mode", mode, "--out", str(tmp_path / "r.json")])
            assert code == 3
            assert capsys.readouterr().err == (
                "error: relaxation stopped at the iteration limit after 3 pivots"
                " (not a proof of infeasibility)\n"
            )

    def test_relaxation_of_zero_rounds_to_max_load_zero(self, tmp_path, capsys):
        # slot 1 loads no row, so the relaxation's optimum is 0
        inst = tmp_path / "unloaded.json"
        inst.write_text(UNLOADED_SLOT)
        out = tmp_path / "r.json"
        assert main(["round", str(inst), "--mode", "mip", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 0.0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", MIP_CHECKS)
    def test_a_tiny_relaxation_value_rounds_and_verifies(self, tmp_path, capsys, command):
        # loads of 1e-300: the bound at the deviation 1/y* = 1e300 meets the
        # budget, and the slack is 1
        inst = tmp_path / "tiny.json"
        inst.write_text(tiny_loads("1e-300"))
        out = tmp_path / "r.json"
        assert main([command[0], str(inst), *command[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command[0] == "round":
            doc = json.loads(out.read_text())
            assert (doc["value"], doc["target_t42"], doc["success"]) == (1e-300, 1.0, True)

    @pytest.mark.parametrize("value", ["1e-307", "1e-320"])
    @pytest.mark.parametrize("command", MIP_CHECKS)
    def test_a_value_past_the_grid_search_rounds_at_slack_1(self, tmp_path, capsys, command,
                                                            value):
        # the grid search would pass the float range at loads of 1e-307; the
        # bound at the deviation 1/y* certifies slack 1 without it, down to
        # subnormal loads
        inst = tmp_path / "tinier.json"
        inst.write_text(tiny_loads(value))
        out = tmp_path / "r.json"
        assert main([command[0], str(inst), *command[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command[0] == "round":
            doc = json.loads(out.read_text())
            assert (doc["value"], doc["target_t42"], doc["success"]) == (float(value), 1.0, True)

    def test_a_sparsity_target_past_the_grid_search_takes_slack_1(self, tmp_path, capsys):
        # slot 0 meets both rows (a = 2), so the sparsity-based target needs
        # a deviation at loads of 1e-307, where the grid search passes the
        # float range; the bound at the deviation 1/y* meets the budget 1/a
        inst = tmp_path / "sparse_tiny.json"
        inst.write_text('{"kind":"mip","m":2,"groups":[2,2],"A":[[0,0,1e-307],[0,2,1e-307],'
                        '[1,0,1e-307],[1,1,1e-307],[1,3,1e-307]]}')
        out = tmp_path / "r.json"
        assert main(["round", str(inst), "--mode", "mip", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert (len(captured.out.splitlines()), captured.err) == (1, "")
        doc = json.loads(out.read_text())
        assert (doc["target_t42"], doc["target_t44"], doc["success"]) == (1.0, 2.0, True)

    @pytest.mark.parametrize("command", MIP_CHECKS)
    def test_an_instance_too_large_to_allocate_exits_2(self, tmp_path, capsys, command):
        inst = tmp_path / "huge.json"
        inst.write_text(TOO_MANY_ROWS)
        assert main([command[0], str(inst), *command[1:], "--out", str(tmp_path / "r.json")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: instance too large: ")

    @pytest.mark.parametrize("tries", ["0", "-5"])
    def test_max_tries_below_one_exits_2(self, tmp_path, capsys, tries):
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        code = main(["round", str(graph), "--mode", "mip", "--max-tries", tries,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: --max-tries must be at least 1, got {tries}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("extra, message", [
        (["--alpha", "0.5"], "alpha must be finite and above 1, got 0.5"),
        (["--mode", "standard", "--alpha", "0.9"], "alpha must be finite and above 1, got 0.9"),
        (["--alpha", "nan"], "alpha must be finite and above 1, got nan"),
        (["--alpha", "inf"], "alpha must be finite and above 1, got inf"),
        (["--alpha", "1e308"], "alpha * x overflows the float range at alpha 1e+308"),
        (["--beta", "nan"], "beta must be finite, got nan"),
        (["--lambda", "nan"], "every total budget must be finite"),
        (["--lambda", "inf"], "every total budget must be finite"),
    ])
    def test_out_of_range_or_non_finite_parameters_exit_2(self, tmp_path, capsys, extra, message):
        inst = gen(tmp_path)
        code = main(["round", str(inst), *extra, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("case, extra, message", [
        ("cover", ["--lambda", "19"], "estimator must start positive, got -0.09026"),
        ("two-cost", ["--lambda", "10.5,6.66"], "budget 1.5 below subset order 2"),
        ("four-cost", [], "subset order 3 out of range [1, 2]"),
    ])
    @pytest.mark.filterwarnings("ignore:scaled means fall below")
    def test_tight_parameters_exit_2(self, tmp_path, capsys, case, extra, message):
        if case == "cover":  # floor cost 18, so 1 is left for the rounded bits
            inst = gen(tmp_path, seed=0)
        elif case == "two-cost":  # floor cost 9 under the first cost leaves 1.5
            inst = two_cost(tmp_path)
        else:  # four cost vectors need subset order ceil(ln 8) = 3 > 2 columns
            inst = tmp_path / "four.json"
            costs = [np.ones(2), np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([1.0, 3.0])]
            inst.write_text(serialize_instance(
                CipInstance.create([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [2.0, 1.0, 1.0], costs)))
        capsys.readouterr()
        code = main(["round", str(inst), *extra, "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode", ["derandomize", "standard"])
    def test_alpha_too_close_to_one_for_an_accepted_point_exits_2(self, tmp_path, capsys, mode):
        # the point is 5e-7 short of the demand, within what --solution
        # accepts, so this alpha leaves the row less random mass than it needs
        inst = tmp_path / "inst.json"
        inst.write_text(SHORT_COVER)
        solution = tmp_path / "x.json"
        solution.write_text(json.dumps({"x": SHORT_POINT}))
        code = main(["round", str(inst), "--mode", mode, "--solution", str(solution),
                     "--alpha", "1.0000001", "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 0 ") and "alpha 1.0000001" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_a_demand_with_no_valid_scale_pair_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "huge-demand.json"
        inst.write_text('{"kind":"cip","m":1,"n":2,"A":[[0,0,1.0],[0,1,0.5]],"b":[1e300],'
                        '"costs":[[1.0,1.0]]}')
        assert main(["round", str(inst), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "error: no valid scale pair in the searched grid\n"
        assert not (tmp_path / "r.json").exists()

    def test_a_scaled_point_that_overflows_exits_2(self, tmp_path, capsys):
        # one column of the vertex raised to 1e308: y* stays finite, alpha * x does not
        inst = gen(tmp_path, seed=0)
        x = lp_point(parse_instance(inst.read_text()))
        x[int(np.argmax(x))] = 1e308
        solution = tmp_path / "x.json"
        solution.write_text(json.dumps({"x": x.tolist()}))
        capsys.readouterr()
        code = main(["round", str(inst), "--solution", str(solution), "--lambda", "1e300",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: alpha * x overflows the float range at alpha ")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode", ["standard", "derandomize"])
    @pytest.mark.parametrize("entry, lambdas, message", [
        pytest.param(1e308, [], "alpha * x overflows the float range at alpha 3.1817108242704006",
                     id="1e308"),
        pytest.param(1e308, ["--lambda", "1e300"],
                     "alpha * x overflows the float range at alpha 3.1817108242704006",
                     id="1e308-lambda"),
        pytest.param(1e307, [], "every total budget must be finite", id="1e307"),
        pytest.param(1e307, ["--lambda", "1e300"],
                     "a total budget falls below the floor cost; raise the budget", id="1e307-lambda"),
    ])
    def test_a_point_whose_costs_overflow_exits_2_with_one_line(
            self, tmp_path, capsys, mode, entry, lambdas, message):
        # the objective c @ x, and at 1e307 with --lambda the floor cost,
        # pass the float range; that overflow is the error, not a warning
        # before it
        inst = gen(tmp_path, seed=0)
        solution = tmp_path / "x.json"
        solution.write_text(json.dumps({"x": [entry] * 20, "objective": 0}))
        capsys.readouterr()
        code = main(["round", str(inst), "--mode", mode, "--solution", str(solution), *lambdas,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_group_weights_that_overflow_exit_3_with_one_line(self, tmp_path, capsys):
        inst = gen(tmp_path, kind="hypergraph", seed=0)
        solution = tmp_path / "x.json"
        n_cols = parse_instance(inst.read_text()).n_cols
        solution.write_text(json.dumps({"x": [1e308] * n_cols}))
        capsys.readouterr()
        code = main(["round", str(inst), "--mode", "mip", "--solution", str(solution),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err == "infeasible: group 0 weights sum to inf, not 1\n"

    @pytest.mark.parametrize("document", [[1, 2], "x", None, 3])
    def test_a_solution_document_that_is_not_an_object_exits_2(self, tmp_path, capsys, document):
        inst = gen(tmp_path)
        solution = tmp_path / "x.json"
        solution.write_text(json.dumps(document))
        capsys.readouterr()
        code = main(["round", str(inst), "--solution", str(solution),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            'error: --solution must be JSON {"x": [...], "objective": ...}: '
            f"the document must be a JSON object, got {json.dumps(document)}\n")

    def test_kmax_option_is_gone(self, tmp_path):
        argv = ["round", str(gen(tmp_path)), "--kmax", "6", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        manifest = tmp_path / "r.json.manifest.json"
        manifest.write_text(json.dumps({"command": argv, "seed": 0, "outputs": []}))
        assert main(["replay", str(manifest)]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_missing_instance_file_exits_2(self, tmp_path):
        assert main(["round", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r.json")]) == 2


class TestSeed:
    @pytest.mark.parametrize("command", [
        ["gen", "--kind", "set-cover", "--seed", "-3"],
        ["round", "{cover}", "--mode", "standard", "--seed", "-1"],
        ["round", "{graph}", "--mode", "mip", "--seed", "-1"],
        ["verify", "{cover}", "--which", "fkg", "--seed", "-1"],
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        paths = {"cover": gen(tmp_path), "graph": gen(tmp_path, kind="hypergraph", name="g.json")}
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = [arg.format(**paths) for arg in command] + ["--out", str(out)]
        assert main(argv) == 2
        seed = command[command.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: --seed must be a non-negative integer, got {seed}\n"
        assert not out.exists()


class TestVerify:
    def test_verify_on_a_cover_never_loads_numpy_ma(self, tmp_path):
        # its checks draw shuffles, so numpy.random loads; numpy.ma must not
        inst = tmp_path / "inst.json"
        inst.write_text(serialize_instance(gen_set_cover(30, 40, 5, 2, 1)))
        lines = run_and_list_modules(["verify", str(inst)])
        assert any("conditional all-ones probability" in line for line in lines)
        assert lines[-1] == "0 True False"

    def test_tail_checks_pass(self, tmp_path, capsys):
        target = tmp_path / "anything.json"
        target.write_text("{}")
        assert main(["verify", str(target), "--which", "tail"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_covering_instance_passes_all_checks(self, tmp_path, capsys):
        inst = gen(tmp_path)
        assert main(["verify", str(inst)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 4  # domination, branch bits, both correlation directions

    def test_two_cost_cover_passes_all_checks(self, tmp_path, capsys):
        assert main(["verify", str(two_cost(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert len([l for l in out.splitlines() if l.startswith("PASS")]) >= 4

    def test_minimax_instance_lll_check(self, tmp_path, capsys):
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        assert main(["verify", str(graph), "--which", "lll"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["verify", str(graph)]) == 0  # --which all: the lll and tail checks
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert [l.split()[1] for l in out.splitlines()] == ["no-bad-event", "inverse", "kernel"]

    def test_which_kind_mismatch_exits_2(self, tmp_path):
        cover = gen(tmp_path)
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        assert main(["verify", str(cover), "--which", "lll"]) == 2
        assert main(["verify", str(graph), "--which", "phi"]) == 2

    def test_injected_fault_writes_fixture_and_fixture_replays_clean(
        self, tmp_path, capsys, monkeypatch
    ):
        import lllround.cip as cip_module

        real = cip_module.success_lower_bound
        for inst in (gen(tmp_path), two_cost(tmp_path)):
            fixture_path = tmp_path / f"bad-{inst.name}"
            monkeypatch.setattr(cip_module, "success_lower_bound", lambda state: 2.0)
            code = main(["verify", str(inst), "--which", "phi", "--out", str(fixture_path)])
            assert code == 1
            stdout = capsys.readouterr().out
            assert "FAIL" in stdout
            assert f"counterexample written to {fixture_path}" in stdout
            fixture = json.loads(fixture_path.read_text())
            instance = parse_instance(inst.read_text())
            _, lambdas, ks, info = choose_parameters(instance, lp_point(instance))
            assert fixture["alpha"] == info["alpha"]
            assert fixture["lambdas"] == lambdas
            assert fixture["ks"] == ks

            monkeypatch.setattr(cip_module, "success_lower_bound", real)
            assert main(["verify", str(fixture_path)]) == 0
            replay_out = capsys.readouterr().out
            assert "PASS" in replay_out and "FAIL" not in replay_out

        # a fixture that cannot be written exits 2 with one line
        monkeypatch.setattr(cip_module, "success_lower_bound", lambda state: 2.0)
        for out, reason in ((tmp_path / "absent" / "f.json", "No such file or directory"),
                            (tmp_path, "Is a directory")):
            assert main(["verify", str(inst), "--which", "phi", "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"

    def test_minimax_fixture_replays_at_its_recorded_point_and_slack(
        self, tmp_path, capsys, monkeypatch
    ):
        import lllround.cli as cli_module
        import lllround.oracle as oracle_module

        # light rows keep the dependency premise true at slack 1
        inst = tmp_path / "light.json"
        inst.write_text(serialize_instance(MipInstance.create(0.1 * np.eye(4), [2, 2])))
        fixture_path = tmp_path / "bad-light.json"
        monkeypatch.setattr(oracle_module, "INEQ_TOL", -2.0)
        assert main(["verify", str(inst), "--which", "lll", "--out", str(fixture_path)]) == 1
        assert f"counterexample written to {fixture_path}" in capsys.readouterr().out
        fixture = json.loads(fixture_path.read_text())
        assert fixture["k"] == 1
        assert fixture["p"] == cli_module._relaxation(parse_instance(inst.read_text())).x.tolist()

        fixture.update(p=[0.25, 0.75, 1.0, 0.0], k=2)
        fixture_path.write_text(json.dumps(fixture))
        monkeypatch.undo()
        seen = []
        real = oracle_module.verify_extended_lll
        monkeypatch.setattr(oracle_module, "verify_extended_lll",
                            lambda instance, x, k: seen.append((list(x), k)) or real(instance, x, k))
        monkeypatch.setattr(cli_module, "_relaxation", None)  # replay must not re-solve
        assert main(["verify", str(fixture_path)]) == 0
        assert seen == [([0.25, 0.75, 1.0, 0.0], 2)]
        assert "PASS" in capsys.readouterr().out

        del fixture["k"]
        fixture_path.write_text(json.dumps(fixture))
        assert main(["verify", str(fixture_path)]) == 2
        assert "fixture records no valid check: KeyError('k')" in capsys.readouterr().err

        for k in (2.7, True, "3"):  # int() would replay slack 2, 1 and 3
            fixture_path.write_text(json.dumps(dict(fixture, k=k)))
            assert main(["verify", str(fixture_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: fixture records no valid check: ValueError(")
            assert f"k must be an integer, got {k!r}" in line
        assert seen == [([0.25, 0.75, 1.0, 0.0], 2)]

    def test_fixture_without_an_estimator_exits_2(self, tmp_path, capsys):
        inst = gen(tmp_path)
        doc = json.loads(inst.read_text())
        doc.update({"p": [0.5] * doc["n"], "claim": "made up", "lhs": 0.0, "rhs": 1.0})
        fixture = tmp_path / "old.json"
        fixture.write_text(json.dumps(doc))
        assert main(["verify", str(fixture)]) == 2
        assert "records no valid check: KeyError('check')" in capsys.readouterr().err

    def test_budget_cap_exits_4(self, tmp_path, monkeypatch):
        # the scheme at the relaxation's vertex has 6 random bits, one above the cap
        inst = gen(tmp_path, "--n-sets", "12")
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", "5")
        assert main(["verify", str(inst), "--which", "phi"]) == 4

    @pytest.mark.parametrize("bits", ["lots", "0", "40"])
    def test_budget_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch, bits):
        inst = gen(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("LLLROUND_BUDGET_BITS", bits)
        assert main(["verify", str(inst), "--which", "phi"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: LLLROUND_BUDGET_BITS must be ")

    @pytest.mark.parametrize("doc", [FEWER_GROUPS_THAN_SLACK, UNLOADED_SLOT])
    def test_minimax_corner_cases_print_one_line_per_check(self, tmp_path, capsys, doc):
        # one group against slack 2 (an order-2 polynomial of one value is
        # 0), and a relaxation of 0: the dependency check plus two tail checks
        inst = tmp_path / "corner.json"
        inst.write_text(doc)
        assert main(["verify", str(inst)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3 and all(line.startswith("PASS") for line in lines)
        assert captured.err == ""

    def test_unreadable_target_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_wide_cover_enumerates_only_its_random_bits(self, tmp_path, capsys):
        # 40 columns, 17 of them fractional at the relaxation's vertex
        inst = gen(tmp_path, "--n-elems", "30", "--n-sets", "40", seed=0)
        assert main(["verify", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and len([l for l in out.splitlines() if l.startswith("PASS")]) == 8

    def test_lll_check_runs_at_the_las_vegas_slack(self, tmp_path, capsys, monkeypatch):
        import lllround.oracle as oracle_module

        graph = gen(tmp_path, "--n-verts", "30", "--n-edges", "30", kind="hypergraph", seed=0)
        instance = parse_instance(graph.read_text())
        x = solve_mip_lp(instance).solution.x
        slack = las_vegas_mip(instance, bootstrap_reduce(instance, x), 1, 0).target.k
        seen = []
        real = oracle_module.verify_extended_lll
        monkeypatch.setattr(oracle_module, "verify_extended_lll",
                            lambda instance, x, k: seen.append(k) or real(instance, x, k))
        assert main(["verify", str(graph), "--which", "lll"]) == 0
        assert seen == [slack] and slack > 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("PASS  no-bad-event probability")
        assert "[hypothesis unmet]" not in last

    @pytest.mark.parametrize("check", ["phi", "branch", "fkg", "lll"])
    def test_every_fixture_replays_the_check_that_wrote_it(
        self, tmp_path, capsys, monkeypatch, check
    ):
        import lllround.cip as cip_module
        import lllround.oracle as oracle_module

        if check == "lll":
            target = gen(tmp_path, "--n-verts", "30", "--n-edges", "30", kind="hypergraph", seed=0)
        else:
            target = gen(tmp_path)
        verifiers = {"phi": "verify_phi_domination", "branch": "verify_branch_inequality",
                     "fkg": "verify_fkg_and_antifkg", "lll": "verify_extended_lll"}
        real = {name: getattr(oracle_module, attr) for name, attr in verifiers.items()}
        calls = []
        for name, attr in verifiers.items():
            monkeypatch.setattr(oracle_module, attr, lambda *args, _name=name:
                                calls.append((_name, args)) or real[_name](*args))
        fixture_path = tmp_path / "bad.json"
        with monkeypatch.context() as forced:
            if check == "phi":
                forced.setattr(cip_module, "success_lower_bound", lambda state: 2.0)
            elif check == "branch":  # both branches price below 0
                value = cip_module.success_lower_bound
                forced.setattr(cip_module, "success_lower_bound", lambda state: value(state)
                               if np.array_equal(state.p, state.scheme.frac) else -1.0)
            else:
                forced.setattr(oracle_module, "INEQ_TOL", -2.0)
            which = {"branch": "phi"}.get(check, check)
            assert main(["verify", str(target), "--which", which, "--out", str(fixture_path)]) == 1
        assert f"counterexample written to {fixture_path}" in capsys.readouterr().out
        assert json.loads(fixture_path.read_text())["check"] == check
        written = next(args for name, args in calls if name == check)  # the first call failed

        calls.clear()
        assert main(["verify", str(fixture_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        [(name, replayed)] = calls
        assert name == check
        if check == "lll":
            assert replayed[1].tolist() == written[1].tolist() and replayed[2] == written[2] > 1
        elif check == "fkg":
            assert replayed[0].alpha == written[0].alpha
            assert np.array_equal(replayed[0].residual, written[0].residual)
            assert list(replayed[1]) == written[1].tolist() and replayed[2:] == written[2:]
        else:
            state, original = replayed[0], written[0]
            assert state.p.tolist() == original.p.tolist()
            assert state.scheme.alpha == original.scheme.alpha
            assert state.lambdas.tolist() == original.lambdas.tolist()
            assert state.ks.tolist() == original.ks.tolist()
            assert replayed[1:] == written[1:]  # the branch bit j
        if check != "lll":  # an edited point replays as written, too
            fixture = json.loads(fixture_path.read_text())
            fixture["p"] = [v / 2 for v in fixture["p"]]
            fixture_path.write_text(json.dumps(fixture))
            calls.clear()
            assert main(["verify", str(fixture_path)]) == 0
            [(_, moved)] = calls
            assert list(moved[1] if check == "fkg" else moved[0].p) == fixture["p"]

    def test_fixture_on_the_wrong_kind_or_with_an_unknown_check_exits_2(self, tmp_path, capsys):
        doc = json.loads(gen(tmp_path).read_text())
        doc.update({"p": [0.5] * doc["n"], "claim": "made up", "lhs": 0.0, "rhs": 1.0, "k": 1})
        fixture = tmp_path / "odd.json"
        for check in ("lll", "tail"):
            fixture.write_text(json.dumps(dict(doc, check=check)))
            assert main(["verify", str(fixture)]) == 2
            assert f"no {check!r} check runs on a CipInstance" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("p", 1.5), ("p", -0.5), ("p", math.nan), ("p", True), ("p", "0.5"),
        ("j", -9), ("j", -1), ("j", 4.7), ("j", 11.2), ("j", True), ("j", "3"),
        ("ks", [1.7]), ("ks", [True]), ("ks", ["1"]), ("lambdas", "quoted"),
        ("alpha", "quoted"), ("row_block", [0.9]),
    ])
    def test_covering_fixture_off_the_probabilities_or_the_bits_exits_2(
        self, tmp_path, capsys, field, value
    ):
        # 20 columns, random bits 4, 6 and 11 at the relaxation's vertex: j = -9
        # would index bit 11, j = -1 the integral bit 19, and a truncated 4.7,
        # 11.2 or true the random bits 4, 11 and 1.  Converted, each other
        # value would replay a check the fixture does not record: p of 1 or
        # 0.5, ks [1], the row block [0] of an fkg check, or the budgets and
        # alpha parsed from strings.
        inst = gen(tmp_path, seed=0)
        instance = parse_instance(inst.read_text())
        scheme, lambdas, ks, info = choose_parameters(instance, lp_point(instance))
        assert np.flatnonzero(scheme.frac).tolist() == [4, 6, 11]
        capsys.readouterr()
        doc = json.loads(inst.read_text())
        doc.update(check="branch", alpha=info["alpha"], lambdas=lambdas, ks=ks, claim="made up",
                   lhs=0.0, rhs=0.0, p=scheme.frac.tolist(), j=4)
        if field == "row_block":
            doc.update(check="fkg", cond_rows=[1], cond_cols=[4], anti_cols=[6, 11])
        if field == "p":
            doc[field] = [value] * instance.n
        elif value == "quoted":
            doc[field] = [str(v) for v in lambdas] if field == "lambdas" else str(info["alpha"])
        else:
            doc[field] = value
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(doc))
        assert main(["verify", str(fixture)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: fixture records no valid check: ValueError(")


    @pytest.mark.parametrize("check", ["phi", "fkg"])
    def test_covering_fixture_whose_alpha_overflows_the_point_exits_2(
        self, tmp_path, capsys, check
    ):
        # the relaxation's vertex holds 2.0, and 2 * 1e308 is past the float range
        inst = gen(tmp_path, seed=0)
        instance = parse_instance(inst.read_text())
        scheme, lambdas, ks, _ = choose_parameters(instance, lp_point(instance))
        assert lp_point(instance).max() == 2.0
        capsys.readouterr()
        doc = json.loads(inst.read_text())
        doc.update(check=check, alpha=1e308, lambdas=lambdas, ks=ks, claim="made up",
                   lhs=0.0, rhs=0.0, p=scheme.frac.tolist())
        if check == "fkg":
            doc.update(row_block=[0], cond_rows=[1], cond_cols=[4], anti_cols=[6, 11])
        fixture = tmp_path / "overflow.json"
        fixture.write_text(json.dumps(doc))
        assert main(["verify", str(fixture)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fixture records no valid check: ParameterError("
                                "'alpha * x overflows the float range at alpha 1e+308')\n")


class TestBenchAndReplay:
    def test_bench_csv_shape_and_envelope(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "1,2", "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        # the clock is kept in the manifest only
        assert lines[0] == "family,n_elems,n_sets,seed,a,B,y_star,value,ratio,envelope"
        assert lines[0] == ",".join(BENCH_COLUMNS)
        assert len(lines) == 5
        ratio_col = BENCH_COLUMNS.index("ratio")
        envelope_col = BENCH_COLUMNS.index("envelope")
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[ratio_col]) >= 1.0 - 1e-9
            assert float(fields[ratio_col]) <= float(fields[envelope_col])
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert len(manifest["wall_times"]) == 4
        assert all(type(t) is float and t > 0.0 for t in manifest["wall_times"])
        assert "worst ratio/envelope" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, raw, least", [
        ("--sizes", "x", 1), ("--sizes", "0", 1), ("--sizes", "1,,2", 1),
        ("--seeds", "", 0), ("--seeds", "-3", 0), ("--seeds", "1.5", 0),
    ])
    def test_bad_sizes_or_seeds_exit_2(self, tmp_path, capsys, flag, raw, least):
        out = tmp_path / "bench.csv"
        assert main(["bench", flag, raw, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} needs comma-separated integers of at least {least}, got {raw!r}\n"
        )
        assert not out.exists()

    def test_bench_stops_at_the_iteration_limit_with_exit_3(self, tmp_path, capsys, monkeypatch):
        import lllround.lp as lp_module

        real = lp_module._run_simplex
        monkeypatch.setattr(lp_module, "_run_simplex",
                            lambda tableau, basis, nonbasic, limit, stall:
                            real(tableau, basis, nonbasic, 3, stall))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "1", "--seeds", "0", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: relaxation stopped at the iteration limit after 3 pivots"
            " (not a proof of infeasibility)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("wall_times", [None, 0.5, [0.5], ["x", 0.5]],
                             ids=["as-recorded", "scalar", "short", "non-numeric"])
    def test_replay_reproduces_bench_bytes(self, tmp_path, wall_times):
        # replay re-runs the command and reads no recorded wall time
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "1,2", "--seeds", "0", "--out", str(out)]) == 0
        original = out.read_bytes()
        out.unlink()
        manifest = tmp_path / "bench.csv.manifest.json"
        if wall_times is not None:
            doc = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**doc, "wall_times": wall_times}))
        assert main(["replay", str(manifest)]) == 0
        assert out.read_bytes() == original
        assert len(json.loads(manifest.read_text())["wall_times"]) == 2

    def test_replay_reproduces_gen_and_round_bytes(self, tmp_path):
        inst = gen(tmp_path, seed=9)
        rounded = tmp_path / "rounded.json"
        assert main(["round", str(inst), "--out", str(rounded)]) == 0
        inst_bytes = inst.read_bytes()
        round_bytes = rounded.read_bytes()
        inst.unlink()
        rounded.unlink()
        assert main(["replay", str(tmp_path / "inst.json.manifest.json")]) == 0
        assert inst.read_bytes() == inst_bytes
        assert main(["replay", str(tmp_path / "rounded.json.manifest.json")]) == 0
        assert rounded.read_bytes() == round_bytes

    def test_replay_missing_manifest_exits_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "absent.manifest.json")]) == 2

    @pytest.mark.parametrize("case", ["not-an-object", "non-string-command", "replays-itself"])
    def test_malformed_manifest_exits_2_with_one_line(self, tmp_path, capsys, case):
        manifest = tmp_path / "self.json"
        out = tmp_path / "bench.csv"
        doc = {
            "not-an-object": [1, 2],
            "non-string-command": {"command": [1, 2]},
            "replays-itself": {"command": ["replay", str(manifest)]},
        }[case]
        manifest.write_text(json.dumps(doc))
        assert main(["replay", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read manifest: ") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_lambda_list_exits_2(self, tmp_path, capsys):
        inst = gen(tmp_path)
        assert main(["round", str(inst), "--lambda", "a,b",
                     "--out", str(tmp_path / "r.json")]) == 2
        capsys.readouterr()
        assert main(["round", str(inst), "--lambda", "30,40",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "error: --lambda needs 1 values, got 2\n"
        assert not (tmp_path / "r.json").exists()

    def test_usage_errors_print_one_line(self, tmp_path, capsys):
        # "-1,0" is not a negative number to argparse, so it reads as an option
        inst = gen(tmp_path)
        assert main(["round", str(inst), "--lambda", "-1,0", "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: lllround round: argument --lambda: expected one argument\n"
        )
        assert main(["frob"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert main(["gen", "--help"]) == 0

    @pytest.mark.parametrize("option", [["--family", "set-cover"], ["--seed", "0"]])
    def test_bench_family_and_seed_options_are_gone(self, tmp_path, option):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--sizes", "1", "--seeds", "0", *option, "--out", str(out)]
        assert main(argv) == 2
        manifest = tmp_path / "bench.csv.manifest.json"
        manifest.write_text(json.dumps({"command": argv, "seed": 0, "outputs": [str(out)],
                                        "wall_times": [0.1]}))
        assert main(["replay", str(manifest)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["gen", "standard", "derandomize", "mip", "bench"])
    def test_unwritable_output_exits_2_with_one_line_and_no_manifest(
        self, tmp_path, capsys, command, where
    ):
        cover = gen(tmp_path)
        graph = gen(tmp_path, kind="hypergraph", name="graph.json")
        work = tmp_path / "work"
        work.mkdir()
        out = work / "absent" / "out.json" if where == "missing-directory" else work / "out.json"
        if where == "directory":
            out.mkdir()
        argv = {
            "gen": ["gen", "--kind", "set-cover"],
            "standard": ["round", str(cover), "--mode", "standard"],
            "derandomize": ["round", str(cover), "--mode", "derandomize"],
            "mip": ["round", str(graph), "--mode", "mip"],
            "bench": ["bench", "--sizes", "1", "--seeds", "0"],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert list(work.rglob("*")) == ([out] if where == "directory" else [])

    def test_bench_manifest_records_no_seed(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "1", "--seeds", "0", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert set(manifest) == {"command", "outputs", "created_at", "wall_times"}
        assert out.read_text().splitlines()[1].startswith("set-cover,")


# One row x1 + x2 >= 1 and a point 5e-7 short of it.
SHORT_COVER = '{"kind":"cip","m":1,"n":2,"A":[[0,0,1.0],[0,1,1.0]],"b":[1.0],"costs":[[1.0,1.0]]}'
SHORT_POINT = [0.5, 0.4999995]

# Column 2 covers both rows at cost 0: the relaxation costs 0, and so do the
# default budget and the floor cost.
ZERO_COST_COVER = ('{"kind":"cip","m":2,"n":3,"A":[[0,0,1.0],[0,2,1.0],[1,1,1.0],[1,2,1.0]],'
                   '"b":[1.0,1.0],"costs":[[1.0,1.0,0.0]]}')
# Slot 0 meets both rows, and its loads 1e-30 * 1e-300 underflow to 0.
UNDERFLOW_PARTITION = '{"kind":"mip","m":2,"groups":[2],"A":[[0,0,1e-300],[1,0,1e-300]]}'
UNDERFLOW_POINT = [1e-30, 1.0]

# Small valid instances with empty columns, zero costs, one-slot groups and
# zero-load slots.
ENTRIES = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.05, 1.0)
COSTS = st.sampled_from([0.0, 0.3, 0.6, 1.0]) | st.floats(0.05, 1.0)
BAD_VALUES = st.sampled_from([0.5, 0.0, -1.0, float("nan"), float("inf")])


def _matrix(draw, m, n) -> np.ndarray:
    return np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                                  min_size=m, max_size=m)))


@st.composite
def cover_texts(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = _matrix(draw, m, n)
    for i in np.flatnonzero(~a.any(axis=1)):  # every row needs a positive entry
        a[i, draw(st.integers(0, n - 1))] = draw(ENTRIES.filter(bool))
    demands = np.array(draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                                     min_size=m, max_size=m)))
    if np.all((a == 0.0) | (a == 1.0)):
        demands = np.ceil(demands)  # a 0/1 matrix needs integral demands
    costs = []
    for _ in range(draw(st.integers(1, 3))):
        cost = np.array(draw(st.lists(COSTS, min_size=n, max_size=n)))
        if not cost.any():
            cost[draw(st.integers(0, n - 1))] = 1.0
        costs.append(cost)
    return serialize_instance(CipInstance.create(a, demands, costs))


@st.composite
def partition_texts(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return serialize_instance(MipInstance.create(_matrix(draw, draw(st.integers(1, 4)), sum(sizes)),
                                                 sizes))


def _option_value(draw, valid):
    """Mostly no value, else a valid one or an out-of-range one."""
    pick = draw(st.sampled_from(["none", "none", "none", "valid", "valid", "bad"]))
    return None if pick == "none" else draw(valid if pick == "valid" else BAD_VALUES)


@st.composite
def cli_cases(draw):
    """(instance text, [command, options that follow the instance path],
    --solution kind)."""
    covering = draw(st.sampled_from(["cover", "partition"])) == "cover"
    text = draw(cover_texts() if covering else partition_texts())
    if draw(st.sampled_from(["round", "round", "round", "verify"])) == "verify":
        which = draw(st.sampled_from(["all", "phi", "fkg", "lll", "tail"]))
        return text, ["verify", "--which", which, "--seed", str(draw(st.integers(0, 3)))], None
    # every mode, the ones the instance's kind takes most often
    modes = ["standard", "derandomize"] * 3 if covering else ["mip"] * 3
    argv = ["round", "--mode", draw(st.sampled_from(modes + ["standard", "derandomize", "mip"])),
            "--seed", str(draw(st.integers(0, 3)))]
    solution = draw(st.sampled_from([None, None, "vertex", "double", "half", "short", "shy"]))
    for flag in ("--alpha", "--beta"):
        value = _option_value(draw, st.floats(1.0, 8.0))
        if flag == "--alpha" and solution == "shy":
            # mostly an alpha in (1, 1 + 1e-5], log-uniformly: a point short
            # of a demand by what --solution accepts can then leave a row
            # too little random mass
            value = draw(st.floats(5.0, 15.0).map(lambda e: 1.0 + 10.0**-e) | st.just(value))
        if value is not None:
            argv += [flag, repr(value)]
    ell = len(json.loads(text).get("costs", [()]))
    budget = _option_value(draw, st.floats(10.0, 60.0))
    if budget is not None:
        count = ell + draw(st.sampled_from([0, 0, 0, 0, 0, 1]))  # sometimes one too many
        budgets = [budget] + draw(st.lists(st.floats(10.0, 60.0) | BAD_VALUES,
                                           min_size=count - 1, max_size=count - 1))
        argv += ["--lambda", ",".join(map(repr, budgets))]
    return text, argv, solution


def _solution_file(text, how, path) -> list[str]:
    """`--solution` with the relaxation's vertex, a multiple of it, one
    entry short, or the vertex scaled down to miss a demand (or a group
    sum) by at most the 1e-6 that ingestion accepts; `how` may also be the
    point itself.  No option for `how` None."""
    if how is None:
        return []
    if isinstance(how, list):
        path.write_text(json.dumps({"x": how}))
        return ["--solution", str(path)]
    instance = parse_instance(text)
    solve = solve_cip_lp if isinstance(instance, CipInstance) else solve_mip_lp
    x = solve(instance).solution.x
    shy = (1.0 - 0.9e-6 / max(float(instance.loads(x).max()), 1.0)) * x
    x = {"vertex": x, "double": 2.0 * x, "half": 0.5 * x, "short": x[:-1], "shy": shy}[how]
    path.write_text(json.dumps({"x": x.tolist()}))
    return ["--solution", str(path)]


def _run(argv) -> tuple[int, str]:
    """main's exit code and standard error; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestContractFuzzer:
    """Every valid input ends in a documented exit code with at most one
    line of error, never a traceback, and a successful `round` replays; an
    `--out` that cannot be written leaves no manifest."""

    @given(case=cli_cases(),
           where=st.sampled_from(["file"] * 4 + ["missing-directory", "directory"]))
    @example(case=(SHORT_COVER, ["round", "--mode", "derandomize", "--alpha", "1.0000001"],
                   SHORT_POINT), where="file")
    @example(case=(UNDERFLOW_PARTITION, ["round", "--mode", "mip"], UNDERFLOW_POINT),
             where="file")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("always")  # as the interpreter shows them to a user
    def test_exit_codes_messages_and_replay(self, case, where):
        text, (command, *options), solution = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            inst = tmp / "inst.json"
            inst.write_text(text)
            out = tmp / "absent" / "out.json" if where == "missing-directory" else tmp / "out.json"
            if where == "directory":
                out.mkdir()
            extra = _solution_file(text, solution, tmp / "x.json")
            argv = [command, str(inst), *options, *extra, "--out", str(out)]
            code, err = _run(argv)
            assert code in (0, 1, 2, 3, 4), (argv, err)
            errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
            assert len(errors) <= 1, (argv, err)
            if code == 3:
                assert extra, (argv, err)  # every relaxation here is feasible and small
            if where != "file":
                assert not list(tmp.rglob("*.manifest.json")), (argv, err)
                assert command == "verify" or code != 0, (argv, err)
            if command == "round" and code == 0:
                first = out.read_bytes()
                out.unlink()
                assert _run(["replay", str(tmp / "out.json.manifest.json")])[0] == 0
                assert out.read_bytes() == first

    @given(text=cover_texts() | partition_texts())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_relaxations_reach_the_highs_optimum(self, text):
        instance = parse_instance(text)
        report = (solve_cip_lp if isinstance(instance, CipInstance) else solve_mip_lp)(instance)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(highs_optimum(instance), rel=1e-9)
