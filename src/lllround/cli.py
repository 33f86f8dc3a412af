"""Command-line front end: generate instances, round them, verify the
numerical inequalities, and benchmark the integrality-gap behaviour.

Every gen, round and bench run writes a manifest next to its output recording
the exact argument vector (and the seed of gen and round); `replay MANIFEST`
re-executes it and reproduces the output files byte for byte.  Wall-clock
readings (bench's per-row times, the creation time) live in manifests only,
so every output is deterministic and a replay is a plain re-run.

Exit codes: 0 success, 1 verification failure, 2 usage, malformed input,
rounding parameters out of range (a slack search past the float range
among them), an instance too large to allocate or an output that cannot
be written, 3 a fractional point that misses a demand or a group sum by
more than 1e-6, in every `round` mode (or a relaxation stopped at the
simplex's iteration limit, which its message tells apart), 4 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import lllround
from . import model

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write(out: Path, content, argv: list[str] | None = None, **extra) -> None:
    """Write `content` (text, or a JSON document written compactly) to `out`
    and then, given the argument vector, the manifest `<out>.manifest.json`
    holding it and `extra`; exit 2 with one line on the first file that
    cannot be written, so a failed output leaves no manifest."""
    if not isinstance(content, str):
        content = json.dumps(content, sort_keys=True, separators=(",", ":")) + "\n"
    files = [(out, content)]
    if argv is not None:
        doc = {"command": argv, "outputs": [str(out)],
               "created_at": datetime.now(timezone.utc).isoformat(), **extra}
        files.append((out.with_name(out.name + ".manifest.json"),
                      json.dumps(doc, sort_keys=True, indent=1) + "\n"))
    for path, text in files:
        try:
            path.write_text(text)
        except OSError as exc:
            raise _CliFailure(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_instance(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    try:
        return model.parse_instance(text)
    except model.ParseError as exc:
        raise _CliFailure(EXIT_USAGE, f"malformed instance {path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one line, as every other error does, instead of
    argparse's usage block (its subparsers are made with this class too)."""

    def error(self, message):
        raise _CliFailure(EXIT_USAGE, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lllround",
        description="Rounding covering and minimax integer programs with certified bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Whole option names only: a recorded abbreviation would silently name
    # another option once the option set changes (`bench --seed` read as --seeds).
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_gen = command("gen", help="generate a random instance file")
    p_gen.add_argument("--kind", required=True, choices=["set-cover", "facility", "hypergraph"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n-elems", type=int, default=12)
    p_gen.add_argument("--n-sets", type=int, default=20)
    p_gen.add_argument("--max-set-size", type=int, default=5)
    p_gen.add_argument("--demand", type=int, default=2)
    p_gen.add_argument("--n-nodes", type=int, default=15)
    p_gen.add_argument("--max-in-degree", type=int, default=4)
    p_gen.add_argument("--n-verts", type=int, default=10)
    p_gen.add_argument("--n-edges", type=int, default=8)
    p_gen.add_argument("--degree-cap", type=int, default=4)
    p_gen.add_argument("--n-parts", type=int, default=2)

    p_round = command("round", help="solve the relaxation and round it")
    p_round.add_argument("instance")
    p_round.add_argument("--mode", default="derandomize",
                         choices=["standard", "derandomize", "mip"])
    p_round.add_argument("--solution", help="JSON file with a fractional point to ingest")
    p_round.add_argument("--alpha", type=float)
    p_round.add_argument("--beta", type=float)
    p_round.add_argument("--lambda", dest="lambdas",
                         help="comma-separated total budgets, one per cost vector")
    p_round.add_argument("--seed", type=int, default=0)
    p_round.add_argument("--max-tries", type=int, default=10_000)
    p_round.add_argument("--out", required=True)

    p_verify = command("verify", help="run oracle checks on an instance or fixture")
    p_verify.add_argument("target")
    p_verify.add_argument("--which", default="all", choices=["all", "phi", "fkg", "lll", "tail"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="where to write a counterexample fixture on failure")

    p_bench = command("bench", help="sweep set-cover demands and emit a CSV")
    p_bench.add_argument("--sizes", default="1,2,3,4",
                         help="comma-separated minimum demands to sweep")
    p_bench.add_argument("--seeds", default="0,1,2")
    p_bench.add_argument("--out", required=True)

    p_replay = command("replay", help="re-execute a recorded manifest")
    p_replay.add_argument("manifest")
    return parser


def cmd_gen(args, argv: list[str]) -> int:
    try:
        if args.kind == "set-cover":
            instance = model.gen_set_cover(
                args.n_elems, args.n_sets, args.max_set_size, args.demand, args.seed
            )
        elif args.kind == "facility":
            instance = model.gen_facility_location(
                args.n_nodes, args.max_in_degree, args.demand, args.seed
            )
        else:
            instance = model.gen_hypergraph_partition(
                args.n_verts, args.n_edges, args.degree_cap, args.n_parts, args.seed
            )
    except model.GenerationError as exc:
        raise _CliFailure(EXIT_USAGE, f"cannot generate: {exc}") from exc
    out = Path(args.out)
    _write(out, model.serialize_instance(instance), argv, seed=args.seed)
    kind = "covering" if isinstance(instance, model.CipInstance) else "minimax"
    print(f"wrote {kind} instance with {instance.m} rows to {out}")
    return EXIT_OK


def _parse_lambdas(raw: str | None, ell: int) -> list[float] | None:
    if raw is None:
        return None
    try:
        values = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise _CliFailure(EXIT_USAGE, f"bad --lambda list: {raw!r}") from exc
    if len(values) != ell:
        raise _CliFailure(EXIT_USAGE, f"--lambda needs {ell} values, got {len(values)}")
    return values


def _relaxation(instance) -> model.FractionalSolution:
    """The LP vertex of either kind of instance; exit 3 at the iteration limit."""
    from .lp import solve_cip_lp, solve_mip_lp
    solve = solve_cip_lp if isinstance(instance, model.CipInstance) else solve_mip_lp
    report = solve(instance)
    if report.status == "iteration-limit":
        raise _CliFailure(
            EXIT_INFEASIBLE,
            f"relaxation stopped at the iteration limit after {report.iterations} pivots"
            " (not a proof of infeasibility)",
        )
    return report.solution


def _fractional_point(instance, args) -> model.FractionalSolution:
    """LP solve, or ingest --solution; returns the validated fractional point."""
    if args.solution:
        try:
            raw = json.loads(Path(args.solution).read_text())
            if not isinstance(raw, dict):
                raise ValueError(f"the document must be a JSON object, got {json.dumps(raw):.60}")
            x = raw["x"]
            # JSON numbers only: a bool or a string would convert to another point
            if type(x) is not list or not all(type(v) in (int, float) for v in x):
                raise ValueError(f"x must be a list of numbers, got {x!r:.60}")
            x = np.array(x, dtype=float)  # OverflowError past the float range
        except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise _CliFailure(
                EXIT_USAGE, f'--solution must be JSON {{"x": [...], "objective": ...}}: {exc}'
            ) from exc
        from .lp import ingest_solution
        return ingest_solution(instance, x)
    return _relaxation(instance)


def cmd_round(args, argv: list[str]) -> int:
    instance = _load_instance(args.instance)
    out = Path(args.out)
    is_cip = isinstance(instance, model.CipInstance)
    needs = "minimax" if args.mode == "mip" else "covering"
    if is_cip == (args.mode == "mip"):
        raise _CliFailure(EXIT_USAGE, f"mode {args.mode} needs a {needs} instance")
    if args.mode == "mip" and args.max_tries < 1:
        raise _CliFailure(EXIT_USAGE, f"--max-tries must be at least 1, got {args.max_tries}")
    fractional = _fractional_point(instance, args)
    x = fractional.x

    if is_cip:
        from . import cip
        y_star = float(fractional.objective_values[0])
        total_budgets = _parse_lambdas(args.lambdas, instance.n_criteria)
        if args.mode == "standard":
            scheme, _, _, info = cip.choose_parameters(
                instance, x, alpha=args.alpha, beta=args.beta, total_budgets=total_budgets
            )
            solution = cip.standard_round(scheme, args.seed)
        else:
            solution, info = cip.round_cip(
                instance, x, alpha=args.alpha, beta=args.beta, total_budgets=total_budgets
            )
        doc = {
            "z": [int(v) for v in solution.z],
            "objectives": [float(v) for v in solution.objective_values],
            "lambda": info["total_budgets"],
            "phi_trace": [float(v) for v in solution.trace or ()],
            "feasible": bool(solution.feasible),
        }
        value = solution.objective_values[0]
        target = info["total_budgets"][0]
        ratio = value / y_star if y_star > 0 else 1.0 if value == 0 else math.inf
        message = (f"mode={args.mode}  value={value:.6g}  target={target:.6g}  "
                   f"ratio={ratio:.4f}  feasible={doc['feasible']}")
    else:
        from . import mip
        _, doc = mip.full_mip_pipeline(instance, x, rng_seed=args.seed, max_tries=args.max_tries)
        message = (f"mode={args.mode}  value={doc['value']:.6g}  "
                   f"target={doc['target_t42']:.6g}  trials_used={doc['trials_used']}  "
                   f"success={doc['success']}")
    _write(out, doc, argv, seed=args.seed)
    print(message)
    return EXIT_OK


def _verify_tail() -> list[lllround.oracle.VerifyReport]:
    """Instance-free kernel self-checks: the inverse deviation re-satisfies
    its defining inequality, and scaling the mean down never loosens the
    kernel at matched absolute deviation."""
    from . import oracle, tailbounds
    reports = []
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        mu = float(rng.uniform(0.5, 40.0))
        p = float(rng.uniform(1e-6, 0.5))
        delta = tailbounds.deviation_for_budget(mu, p)
        lhs = math.ceil(mu * delta) * tailbounds.upper_tail_bound(mu, delta)
        ok &= lhs <= p * (1.0 + 1e-12)
    reports.append(oracle.VerifyReport(
        claim="inverse deviation re-satisfies its budget", passed=bool(ok),
        lhs=0.0, rhs=0.0))
    ok = True
    for mu2 in np.linspace(1.0, 30.0, 20):
        for frac in np.linspace(0.05, 1.0, 20):
            mu1 = frac * mu2
            for delta in np.linspace(0.05, 3.0, 10):
                lhs = tailbounds.upper_tail_bound(mu1, mu2 * delta / mu1)
                rhs = tailbounds.upper_tail_bound(mu2, delta)
                ok &= lhs <= rhs * (1.0 + 1e-9)
    reports.append(oracle.VerifyReport(
        claim="kernel at scaled-down mean never exceeds the original",
        passed=bool(ok), lhs=0.0, rhs=0.0))
    return reports


def _verify_cip(instance, seed: int, which: str) -> list[lllround.oracle.VerifyReport]:
    from . import cip, oracle
    scheme, lambdas, ks, _ = cip.choose_parameters(instance, _relaxation(instance).x)
    reports: list[oracle.VerifyReport] = []
    rng = np.random.default_rng(seed)
    if which in ("all", "phi"):
        state = cip.make_estimator(scheme, lambdas, ks)
        reports.append(oracle.verify_phi_domination(state))
        fractional = [j for j in range(instance.n) if 0.0 < scheme.frac[j] < 1.0]
        for j in fractional[:3]:
            reports.append(oracle.verify_branch_inequality(state, j))
    if which in ("all", "fkg"):
        rows = list(range(instance.m))
        rng.shuffle(rows)
        b1 = sorted(rows[: max(1, instance.m // 3)])
        b2 = sorted(rows[max(1, instance.m // 3): max(2, 2 * instance.m // 3)])
        cols = [j for j in range(instance.n) if scheme.frac[j] > 0.0]
        rng.shuffle(cols)
        b3 = sorted(cols[:1])
        anti = sorted(cols[1:3])
        reports.extend(oracle.verify_fkg_and_antifkg(
            scheme, scheme.frac, b1, b2, b3, anti))
    return reports


def _verify_mip(instance) -> list[lllround.oracle.VerifyReport]:
    """The dependency check at the relaxation's vertex, with the slack k that
    Las Vegas rounding targets there."""
    from . import mip, oracle
    x = _relaxation(instance).x
    _, t = mip._support_stats(instance, x)
    k = mip.mip_target(float(instance.loads(x).max()), instance.m, t).k
    return [oracle.verify_extended_lll(instance, x, k)]


def cmd_verify(args, argv: list[str]) -> int:
    from . import oracle
    target = Path(args.target)
    try:
        doc = json.loads(target.read_text())
    except (OSError, ValueError) as exc:
        raise _CliFailure(EXIT_USAGE, f"cannot read {args.target}: {exc}") from exc
    reports: list[oracle.VerifyReport] = []
    if args.which in ("tail",):
        reports.extend(_verify_tail())
    else:
        try:
            oracle._budget_bits()
        except ValueError as exc:
            raise _CliFailure(EXIT_USAGE, str(exc)) from exc
        instance = _load_instance(args.target)
        is_cip = isinstance(instance, model.CipInstance)
        if oracle.is_fixture(doc):
            try:
                reports.extend(oracle.replay_fixture(doc, instance,
                                                     lambda: _relaxation(instance).x))
            except (LookupError, TypeError, ValueError) as exc:
                raise _CliFailure(EXIT_USAGE, f"fixture records no valid check: {exc!r}") from exc
        elif args.which == "lll":
            if is_cip:
                raise _CliFailure(EXIT_USAGE, "lll checks need a minimax instance")
            reports.extend(_verify_mip(instance))
        elif args.which in ("phi", "fkg"):
            if not is_cip:
                raise _CliFailure(EXIT_USAGE, f"{args.which} checks need a covering instance")
            reports.extend(_verify_cip(instance, args.seed, args.which))
        else:  # all
            if is_cip:
                reports.extend(_verify_cip(instance, args.seed, "all"))
            else:
                reports.extend(_verify_mip(instance))
            reports.extend(_verify_tail())
    failed = [r for r in reports if not r.passed]
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        note = f" [{r.status}]" if r.status not in ("checked",) else ""
        print(f"{flag}  {r.claim}{note}  lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    if failed:
        fixture = next((r.counterexample for r in failed if r.counterexample), None)
        if fixture is not None:
            out = Path(args.out) if args.out else target.with_suffix(".counterexample.json")
            _write(out, fixture)
            print(f"counterexample written to {out}")
        return EXIT_VERIFY
    return EXIT_OK


def _parse_ints(raw: str, flag: str, least: int) -> list[int]:
    """A comma-separated list of integers, each at least `least`; exit 2 otherwise."""
    try:
        values = [int(v) for v in raw.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < least:
        raise _CliFailure(
            EXIT_USAGE, f"{flag} needs comma-separated integers of at least {least}, got {raw!r}"
        )
    return values


def _bench_rows(args) -> tuple[list[dict], list[float]]:
    """The CSV rows of the sweep, and each row's wall time in seconds."""
    from . import cip
    sizes = _parse_ints(args.sizes, "--sizes", 1)
    seeds = _parse_ints(args.seeds, "--seeds", 0)
    rows, wall_times = [], []
    for b in sizes:
        n_elems = 10
        max_set_size = 5
        n_sets = math.ceil(n_elems * (b + 1) / max_set_size) + 8
        for seed in seeds:
            instance = model.gen_set_cover(n_elems, n_sets, max_set_size, b, seed)
            a = model.column_sparsity(instance)
            started = time.perf_counter()
            fractional = _relaxation(instance)
            solution, _ = cip.round_cip(instance, fractional.x)
            wall_times.append(time.perf_counter() - started)
            eps = math.log(a + 1.0) / b
            envelope = 1.0 + 6.0 * max(eps, math.sqrt(eps))
            value = solution.objective_values[0]
            y_star = float(fractional.objective_values[0])
            rows.append({
                "family": "set-cover",
                "n_elems": n_elems,
                "n_sets": n_sets,
                "seed": seed,
                "a": a,
                "B": b,
                "y_star": y_star,
                "value": value,
                "ratio": value / y_star,
                "envelope": envelope,
            })
    return rows, wall_times


BENCH_COLUMNS = ["family", "n_elems", "n_sets", "seed", "a", "B",
                 "y_star", "value", "ratio", "envelope"]


def cmd_bench(args, argv: list[str]) -> int:
    rows, wall_times = _bench_rows(args)
    out = Path(args.out)
    lines = [",".join(BENCH_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            f"{row[c]:.9g}" if isinstance(row[c], float) else str(row[c])
            for c in BENCH_COLUMNS
        ))
    _write(out, "\n".join(lines) + "\n", argv, wall_times=wall_times)
    worst = max(row["ratio"] / row["envelope"] for row in rows)
    print(f"wrote {len(rows)} rows to {out}; worst ratio/envelope = {worst:.4f}")
    return EXIT_OK


def _bad_manifest(reason) -> _CliFailure:
    return _CliFailure(EXIT_USAGE, f"cannot read manifest: {reason}")


def cmd_replay(args) -> int:
    """Re-run the recorded command as it stands; the manifest's other fields
    (the seed, the wall-clock readings) are records, not inputs."""
    try:
        doc = json.loads(Path(args.manifest).read_text())
    except (OSError, ValueError) as exc:
        raise _bad_manifest(exc) from exc
    if not isinstance(doc, dict):
        raise _bad_manifest("not a JSON object")
    argv = doc.get("command")
    if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
        raise _bad_manifest("command must be a list of strings")
    if argv[:1] == ["replay"]:
        raise _bad_manifest("it records a replay; gen, round and bench write manifests")
    return _dispatch(argv)


def _dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        raise _CliFailure(EXIT_USAGE, f"--seed must be a non-negative integer, got {args.seed}")
    if args.subcommand == "gen":
        return cmd_gen(args, argv)
    if args.subcommand == "round":
        return cmd_round(args, argv)
    if args.subcommand == "verify":
        return cmd_verify(args, argv)
    if args.subcommand == "bench":
        return cmd_bench(args, argv)
    if args.subcommand == "replay":
        return cmd_replay(args)
    raise _CliFailure(EXIT_USAGE, f"unknown subcommand {args.subcommand}")  # pragma: no cover


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    with warnings.catch_warnings():
        # one line per warning, as for errors, instead of Python's source echo
        warnings.showwarning = _print_warning
        return _main(argv)


def _main(argv: list[str]) -> int:
    try:
        return _dispatch(argv)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else EXIT_OK
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (model.ParseError, model.GenerationError, model.InstanceError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: instance too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # An except clause is evaluated only when an error reaches it, so these
    # two load their module only for an error that no clause above took.
    except lllround.cip.ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except lllround.oracle.BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
