"""Spans around the benchmark's calls into fvkit, and per-layer totals.

A span is ``(name, start_ns, end_ns, root, item)``.  Layer spans are named
``<module>.<function>``; their parent is the root span of the item that
made the call: ``item`` for the timed request, ``check`` for the untimed
follow-up.  Root spans carry ``root=None``.  The benchmark never calls one
layer from inside another, so a layer span's self time is its duration and
an item's self time is what its layer spans leave uncovered: the
benchmark's own loop and comparisons (1 - trace.coverage of item time).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

# Layer span name -> per-layer metric: the span's summed self time as a share
# of the run's item time, so workloads and run lengths compare directly; a
# layer a workload never calls reads 0.
SPAN_METRICS = {
    "formula.parse_formula": "formula.parse_share",
    "interp.transform_formula": "interp.transform_share",
    "interp.apply_sum_like": "interp.apply_share",
    "decompose.decompose": "decompose.decompose_share",
    "decompose.reduction_to_json": "decompose.to_json_share",
    "decompose.eval_reduction": "decompose.eval_share",
    "modelcheck.evaluate": "modelcheck.evaluate_share",
    "efgame.prefix_game_winner": "efgame.prefix_share",
    "efgame.tree_prefix_game_winner": "efgame.tree_share",
    "enumeration.transfer_oracle": "enumeration.transfer_share",
    "enumeration.count_bound_check": "enumeration.count_share",
    "enumeration.enumerate_classes": "enumeration.enumerate_share",
}
LAYERS = ("formula", "interp", "decompose", "modelcheck", "efgame",
          "enumeration")


class Tracer:
    """Records a span per call when enabled; otherwise calls straight
    through, so untraced runs pay one extra Python call per layer call.

    Spans are kept in flat integer arrays (names and roots as codes), which
    the cyclic garbage collector never has to walk."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.codes = {}
        self.names, self.starts, self.ends, self.roots, self.items = (
            array("l") for _ in range(5))
        self.failed = Counter()
        self.root = -1
        self.item = -1

    def code(self, name):
        return self.codes.setdefault(name, len(self.codes))

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            self.failed[name.split(".", 1)[0]] += 1
            raise
        finally:
            self.record(self.code(name), start, self.root)

    def record(self, name, start, root):
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(time.perf_counter_ns())
        self.roots.append(root)
        self.items.append(self.item)

    def open(self, root, item):
        self.root, self.item = self.code(root), item
        return time.perf_counter_ns()

    def close(self, start):
        if self.enabled:
            self.record(self.root, start, -1)
        self.root = self.item = -1

    def spans(self):
        """(name, start_ns, end_ns, root, item) per span; root is None for
        root spans."""
        names = {c: n for n, c in self.codes.items()}
        for n, s, e, r, i in zip(self.names, self.starts, self.ends,
                                 self.roots, self.items):
            yield names[n], s, e, names.get(r), i

    def dump(self, path, **meta):
        """Write the spans as JSON, names and roots as indexes into
        ``names`` (root -1 marks a root span)."""
        names = sorted(self.codes, key=self.codes.get)
        with open(path, "w") as fh:
            json.dump(dict(meta, names=names,
                           fields=["name", "start_ns", "end_ns", "root",
                                   "item"],
                           spans=list(zip(self.names, self.starts, self.ends,
                                          self.roots, self.items))),
                      fh, separators=(",", ":"))


def summarize(tracer):
    """Per-layer metrics from one traced run's spans."""
    busy = {metric: 0 for metric in SPAN_METRICS.values()}
    item_ns = child_ns = check_ns = 0
    count = 0
    for name, start, end, root, _ in tracer.spans():
        count += 1
        dur = end - start
        if root is None:
            if name == "item":
                item_ns += dur
            else:
                check_ns += dur
        elif root == "item":
            child_ns += dur
            metric = SPAN_METRICS.get(name)
            if metric is not None:
                busy[metric] += dur
    out = {metric: ns / item_ns for metric, ns in busy.items()}
    for layer in LAYERS:
        out[f"{layer}.failed"] = tracer.failed.get(layer, 0)
    out["trace.item_s"] = item_ns / 1e9
    out["bench.check_s"] = check_ns / 1e9
    out["trace.coverage"] = child_ns / item_ns
    out["trace.spans"] = count
    return out
