"""Spans and counts at the boundaries of the program's layers.

`Tracer.install` replaces every public function of `lllround.model`,
`lllround.lp`, `lllround.cip` and `lllround.mip` (each name in a module's
`__all__`, wherever it is bound in those four modules) with a wrapper that
records a span: operation id, span id, parent span id, name, start and end.
Calls between layers go through module attributes, so a call that
`round_cip` makes to `make_scheme` is recorded as its child.  `uninstall`
puts the original functions back.  Spans stay in memory until `dump`.

Counts are read from what the wrapped functions return, at the same
boundaries: LP pivots and status, fixed bits, bootstrap iterations and Las
Vegas trials.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("model", "lp", "cip", "mip")


def _counts(name: str, result) -> dict:
    if name in ("lp.solve_cip_lp", "lp.solve_mip_lp"):
        return {"pivots": result.iterations, "failed": int(result.status != "optimal")}
    if name == "cip.derandomize":
        return {"bits_fixed": len(result.trace) - 1}
    if name == "mip.bootstrap_reduce":
        return {"iterations": len(result.iterations)}
    if name == "mip.las_vegas_mip":
        return {"trials": result.trials_used}
    return {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _public(self):
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, value in vars(module).items():
                home = (getattr(value, "__module__", None) or "").removeprefix("lllround.")
                if (home in LAYERS and not isinstance(value, type)
                        and attr in getattr(self.package, home).__all__):
                    yield module, attr, value, f"{home}.{attr}"

    def install(self) -> None:
        for module, attr, value, name in list(self._public()):
            self._saved.append((module, attr, value))
            setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"op": self.op, "id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, result))
            return result

        return traced

    def totals(self, op: str) -> dict:
        """Inclusive seconds per span name, and summed counts, for one op."""
        seconds: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        for span in self.spans:
            if span["op"] != op:
                continue
            seconds[span["name"]] += span["end"] - span["start"]
            for key in ("pivots", "failed", "bits_fixed", "iterations", "trials"):
                if key in span:
                    counts[f"{span['name']}.{key}"] += span[key]
            if "error" in span and span["name"].startswith("lp."):
                counts[f"{span['name']}.failed"] += 1
        return {"seconds": dict(seconds), "counts": dict(counts)}

    def layer_self_seconds(self) -> dict:
        """Self time per layer: each span's duration less its children's."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out: dict = defaultdict(float)
        for span in self.spans:
            out[span["name"].split(".", 1)[0]] += span["end"] - span["start"] - child[span["id"]]
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra, spans=self.spans, layer_self_s=self.layer_self_seconds())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
