"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 0-9

Runs `run.py --trace 0` once per seed, one run at a time, for the run length
`run_seconds` in `BENCHMARK.json`, and prints for every end-to-end metric its
median, its quartiles (Python's `statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.  The
runs' result lines are saved in `perfbench/out/spread-<workload>-<seeds>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,8")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["seed"] = seed
        runs.append(doc)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in runs})}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:<26} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
    out = HERE / "out" / f"spread-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
