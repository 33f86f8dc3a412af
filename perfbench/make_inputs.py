"""Set up one workload in a fresh interpreter and time it.

    python3 perfbench/make_inputs.py --workload NAME --seed N [--refs] [--trace]

The timed part is what a user pays before the first operation: importing
`lllround`, then generating and serializing the workload's instances.  With
`--refs` the HiGHS reference optima (and, for `cover-large`, the supplied
vertex) are computed afterwards and timed apart.  With `--trace` the
generator and serializer calls are traced.  Writes one JSON document to
standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--refs", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import lllround

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(lllround)
        tracer.install()
        tracer.op = "setup"
    instances = WORKLOADS[args.workload](lllround, args.seed)
    texts = [lllround.model.serialize_instance(inst) for _, inst in instances]
    setup_s = time.perf_counter() - started
    doc = {"setup_s": setup_s, "labels": [label for label, _ in instances], "texts": texts}
    if tracer is not None:
        tracer.uninstall()
        doc["setup_spans"] = tracer.totals("setup")["seconds"]
    if args.refs:
        from reference import reference

        started = time.perf_counter()
        doc["refs"] = [reference(json.loads(text)) for text in texts]
        doc["refs_s"] = time.perf_counter() - started
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
