"""Benchmark of lllround's rounding pipeline, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  One operation goes from an instance's serialized JSON to a
checked integral solution through the public functions `lllround round`
calls: `parse_instance`, then `solve_cip_lp` (or `ingest_solution` of a
supplied point) and `round_cip` for covers, `solve_mip_lp` and
`full_mip_pipeline` for minimax instances.  A pass runs every instance of
the workload once; the run makes at least three passes (four when traced)
and keeps going until `--seconds` have passed.  Every output is checked by `checks.py`.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced, the last line holds the per-layer metrics, and spans and counts go to
`perfbench/out/trace-<workload>-seed<N>.json`.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: numpy's OpenBLAS would otherwise start its
# own threads and compete for the machine's two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import SUPPLIED_POINT, WORKLOADS, subset_terms  # noqa: E402

MIN_PASSES = 3
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
MAX_TRIES = 10_000  # `lllround round --max-tries` default
RNG_SEED = 0  # `lllround round --seed` default

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cost_ratio", "ratio"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("model.gen_s", "s"), ("model.serialize_s", "s"), ("model.parse_s", "s"),
    ("lp.solve_s", "s"), ("lp.pivots", "count"), ("lp.pivot_us", "us"), ("lp.failed", "count"),
    ("cip.params_s", "s"), ("cip.scheme_s", "s"), ("cip.estimator_build_s", "s"),
    ("cip.subset_terms", "count"), ("cip.evaluations", "count"), ("cip.evaluation_us", "us"),
    ("cip.derandomize_s", "s"), ("cip.bits_fixed", "count"),
    ("mip.bootstrap_s", "s"), ("mip.bootstrap_iterations", "count"),
    ("mip.las_vegas_s", "s"), ("mip.trials", "count"),
    ("trace.overhead_s", "s"),
)


class OpFailed(RuntimeError):
    """The program gave no solution, as `lllround round` would exit non-zero."""


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def make_inputs(workload: str, seed: int, refs: bool, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--refs"] * refs + ["--trace"] * trace
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no message"]
        raise BenchError(f"set-up of {workload} failed: {lines[-1]}")
    return json.loads(proc.stdout)


def cover_op(lllround, text: str, point) -> dict:
    inst = lllround.model.parse_instance(text)
    if point is None:
        report = lllround.lp.solve_cip_lp(inst)
        if report.status != "optimal":
            raise OpFailed(f"relaxation is {report.status} after {report.iterations} pivots")
        fractional = report.solution
    else:
        fractional = lllround.lp.ingest_solution(inst, point)
    solution, info = lllround.cip.round_cip(inst, fractional.x)
    return {"z": solution.z, "alpha": info["alpha"], "beta": info["beta"],
            "total_budgets": info["total_budgets"], "ks": info["ks"],
            "evaluations": info["evaluations"], "trace": solution.trace,
            "lp_objective": fractional.objective_values[0], "x": fractional.x}


def minimax_op(lllround, text: str, point) -> dict:
    inst = lllround.model.parse_instance(text)
    report = lllround.lp.solve_mip_lp(inst)
    if report.status != "optimal":
        raise OpFailed(f"relaxation is {report.status} after {report.iterations} pivots")
    rounded, summary = lllround.mip.full_mip_pipeline(
        inst, rng_seed=RNG_SEED, x_star=report.solution.x, max_tries=MAX_TRIES)
    return {"z": rounded.z, "value": summary["value"], "target": summary["target_t42"],
            "lp_objective": report.objective}


def _median_sum(samples) -> float:
    return sum(statistics.median(s) for s in samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "lllround" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    setups = [make_inputs(workload, seed, refs=rep == SETUP_REPS - 1, trace=trace)
              for rep in range(SETUP_REPS)]
    inputs = setups[-1]
    correct = all(s["texts"] == inputs["texts"] for s in setups)
    if not correct:
        print("set-up is not deterministic: repeated generation gave other instances", file=sys.stderr)

    sys.path.insert(0, str(SRC))
    import lllround
    from lllround.cip import ParameterError
    from lllround.lp import InfeasibleError
    from checks import CheckFailed, Triplets, check_output
    from tracing import Tracer

    texts, refs, labels = inputs["texts"], inputs["refs"], inputs["labels"]
    docs = [json.loads(t) for t in texts]
    matrices = [Triplets(d) for d in docs]
    points = [r["x"] if workload in SUPPLIED_POINT else None for r in refs]
    op = minimax_op if docs[0]["kind"] == "mip" else cover_op
    tracer = Tracer(lllround) if trace else None

    plain = [[] for _ in texts]
    traced = [[] for _ in texts]
    first: list = [None] * len(texts)
    failures: dict = {}
    attempted = failed = passes = 0
    started = time.perf_counter()
    # A traced run alternates untraced and traced passes, at least two each.
    while passes < (4 if trace else MIN_PASSES) or time.perf_counter() - started < seconds:
        tracing = trace and passes % 2 == 1
        if tracing:
            tracer.install()
        for i, text in enumerate(texts):
            gc.collect()
            if tracing:
                tracer.op = f"{i}/{passes}"
            t0 = time.perf_counter()
            try:
                out, error = op(lllround, text, points[i]), None
            except (OpFailed, InfeasibleError, ParameterError) as exc:
                # No solution, as `lllround round` reports it: counted, not fatal.
                out, error = None, f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # the program broke: a wrong result
                out, error = None, f"{type(exc).__name__}: {exc}"
                correct = False
            elapsed = time.perf_counter() - t0
            (traced if tracing else plain)[i].append(elapsed)
            attempted += 1
            if error is not None:
                failed += 1
                failures.setdefault(labels[i], error)
                continue
            try:
                check_output(docs[i], matrices[i], out, refs[i])
            except CheckFailed as exc:
                correct = False
                print(f"check failed on {labels[i]}: {exc}", file=sys.stderr)
            if first[i] is None:
                first[i] = out
            elif not np.array_equal(first[i]["z"], out["z"]):
                correct = False
                print(f"{labels[i]}: z differs between passes", file=sys.stderr)
        if tracing:
            tracer.uninstall()
        passes += 1
        if passes == MIN_PASSES:
            # ru_maxrss only grows; read it after a fixed amount of work so
            # that every run's figure covers the same passes.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for label, error in failures.items():
        print(f"failed: {label}: {error}", file=sys.stderr)

    solved = [i for i, out in enumerate(first) if out is not None]
    if docs[0]["kind"] == "cip":
        rounded = sum(float(np.dot(docs[i]["costs"][0], first[i]["z"])) for i in solved)
    else:
        rounded = sum(first[i]["value"] for i in solved)
    lp_sum = sum(refs[i]["lp_opt"] for i in solved)
    result = {
        "workload": workload, "seed": seed, "passes": passes, "instances": len(texts),
        "correct": correct, "attempted": attempted, "failed": failed,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "refs_s": inputs["refs_s"],
        "solve_s": _median_sum(plain),
        "cost_ratio": rounded / lp_sum if lp_sum > 0 else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, setups, docs, first, traced, result["solve_s"])
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.dump(path, {"workload": workload, "seed": seed, "labels": labels,
                           "traced_op_s": sum(map(sum, traced)),
                           "metrics": result["layers"],
                           "setup_spans": [s["setup_spans"] for s in setups]})
        result["trace_file"] = str(path.relative_to(HERE.parent))
    return result


def layer_metrics(tracer, setups, docs, first, traced, untraced_solve_s) -> dict:
    """Per-layer figures from the traced passes: seconds are per-instance
    medians over those passes summed over instances, like `solve_s`; counts
    repeat in every pass and are taken from the first traced one."""
    per_instance = defaultdict(list)
    for op in dict.fromkeys(s["op"] for s in tracer.spans):
        per_instance[int(op.split("/")[0])].append(tracer.totals(op))

    def seconds(*names):
        return sum(statistics.median(sum(t["seconds"].get(n, 0.0) for n in names) for t in totals)
                   for totals in per_instance.values())

    def count(*keys):
        return sum(totals[0]["counts"].get(k, 0) for totals in per_instance.values() for k in keys)

    def setup_seconds(prefix):
        return statistics.median(sum(v for k, v in s["setup_spans"].items() if k.startswith(prefix))
                                 for s in setups)

    solved = [(doc, out) for doc, out in zip(docs, first) if out is not None and doc["kind"] == "cip"]
    lp_s = seconds("lp.solve_cip_lp", "lp.solve_mip_lp")
    pivots = count("lp.solve_cip_lp.pivots", "lp.solve_mip_lp.pivots")
    derandomize_s = seconds("cip.derandomize")
    evaluations = sum(out["evaluations"] for _, out in solved)
    return {
        "model.gen_s": setup_seconds("model.gen_"),
        "model.serialize_s": setup_seconds("model.serialize_instance"),
        "model.parse_s": seconds("model.parse_instance"),
        "lp.solve_s": lp_s,
        "lp.pivots": pivots,
        "lp.pivot_us": 1e6 * lp_s / pivots if pivots else 0.0,
        "lp.failed": count("lp.solve_cip_lp.failed", "lp.solve_mip_lp.failed"),
        "cip.params_s": seconds("cip.choose_alpha_beta", "cip.multicriteria_params"),
        "cip.scheme_s": seconds("cip.make_scheme"),
        "cip.estimator_build_s": seconds("cip.make_estimator"),
        "cip.subset_terms": sum(subset_terms(doc["costs"], out["ks"]) for doc, out in solved),
        "cip.evaluations": evaluations,
        "cip.evaluation_us": 1e6 * derandomize_s / evaluations if evaluations else 0.0,
        "cip.derandomize_s": derandomize_s,
        "cip.bits_fixed": count("cip.derandomize.bits_fixed"),
        "mip.bootstrap_s": seconds("mip.bootstrap_reduce"),
        "mip.bootstrap_iterations": count("mip.bootstrap_reduce.iterations"),
        "mip.las_vegas_s": seconds("mip.las_vegas_mip"),
        "mip.trials": count("mip.las_vegas_mip.trials"),
        "trace.overhead_s": _median_sum(traced) - untraced_solve_s,
    }


def report(result: dict, trace: bool) -> dict:
    print(f"{result['workload']} seed={result['seed']}: {result['passes']} passes over "
          f"{result['instances']} instances; attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(result['correct']).lower()}")
    values = result["layers"] if trace else result
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in (PER_LAYER if trace else END_TO_END)}
    for name, metric in metrics.items():
        print(f"  {name:<26}{metric['value']:>14.6g} {metric['unit']}")
    if trace:
        print(f"  spans and counts written to {result['trace_file']}")
    else:
        print(f"  {'(reference optima, apart)':<26}{result['refs_s']:>14.6g} s")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, then one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        rows.append((workload, doc))
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for name, metric in doc["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    names = list(rows[0][1]["metrics"])
    print(f"\n{'workload':<17}{'attempted':>10}{'failed':>8}" + "".join(f"{n:>26}" for n in names))
    for workload, doc in rows:
        cells = "".join(f"{m['value']:>20.6g} {m['unit']:<5}" for m in doc["metrics"].values())
        print(f"{workload:<17}{doc['attempted']:>10}{doc['failed']:>8}{cells}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            doc = run_all(args)
        else:
            doc = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)),
                         bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
