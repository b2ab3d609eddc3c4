"""In-memory spans around calls into petquant's layers.

A span is [name, start_ns, end_ns, parent_index, count]; the parent of a root
span is -1. Spans are kept in a list while the traced run goes, on one
thread, and written out once at the end. `instrument` wraps a function
everywhere the petquant package refers to it, so calls that one layer makes
into another (postprocess into largest_component, say) get spans too. A
count callback runs after its call has ended, in a `bench.count` span of its
own, so the benchmark's counting is neither layer nor program time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH = "bench.count"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span per call; `count(args, result)` sets the span's count."""
        span = self.span
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                with span(BENCH):
                    rec[4] = count(args, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._open[-1], None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec[2] = time.perf_counter_ns()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": i, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "count": count}
                    )
                    + "\n"
                )  # fmt: skip


def instrument(tracer: Tracer, layers: dict[str, tuple]) -> None:
    """Wrap each layer function in every loaded petquant module that refers to it.

    `layers` maps a span name to (module, attribute) or (module, attribute, count).
    """
    modules = [m for n, m in sys.modules.items() if n == "petquant" or n.startswith("petquant.")]
    for name, spec in layers.items():
        module, attr = spec[0], spec[1]
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, spec[2] if len(spec) > 2 else None)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self milliseconds, and call-duration quantiles."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        durations.setdefault(name, []).append(end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - child)
    out = {}
    for name, ds in durations.items():
        ms = np.asarray(ds, dtype=np.float64) / 1e6
        out[name] = {
            "calls": len(ds),
            "total_ms": float(ms.sum()),
            "self_ms": self_ns[name] / 1e6,
            "p50_ms": float(np.percentile(ms, 50)),
            "p90_ms": float(np.percentile(ms, 90)),
        }
    return out


def _noop():
    return None


def span_cost_ns(calls: int = 20000) -> float:
    """Added cost of one span, measured on a wrapped no-op in this process."""
    traced = Tracer("calibration").wrap("noop", _noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter_ns()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)
