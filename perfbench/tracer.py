"""Spans and counters around calls into capax's public functions.

The benchmark wraps the functions from its own files; ``src/`` carries no
instrumentation.  A wrapped function is replaced in every capax module
that bound its name (``capacities`` does ``from .domains import validate``),
so each call records one span: id, parent span id, layer group,
invocation index, start and end in nanoseconds.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _count_tree(tracer, span, args, tree):
    c = tracer.counters
    c["weights.nodes"] += len(tree.nodes)
    depth = max((n.depth for n in tree.nodes.values()), default=0)
    c["weights.max_depth"] = max(c["weights.max_depth"], depth)
    c["weights.dropped_pieces"] += tree.truncation.dropped_pieces


def _count_tower(tracer, span, args, tw):
    tracer.counters["tower.blowups"] += len(tw.order)


def _count_values(tracer, span, args, _):
    tracer.counters["capacities.values_out"] += len(args[0].values)


def _first_enum(tracer, span, args, _):
    # k = 0 returns at once; the first k > 0 builds the enumeration context
    # and pays the lazy scipy import
    if tracer.enum_first is None and args[1] > 0:
        tracer.enum_first = span[5] - span[4]


# (module, function or Class.method, layer group, counter hook)
TARGETS = (
    ("capax.cli", "main", "cli.main", None),
    ("capax.cli", "parse_domain", "cli.parse_domain", None),
    ("capax.cli", "_dump_json", "cli.serialize", None),
    ("capax.capacities", "CapacitySeries.to_json", "cli.serialize", _count_values),
    ("capax.capacities", "CapacitySeries.to_csv", "cli.serialize", _count_values),
    ("capax.asymptotics", "ErrorSeries.to_csv", "cli.serialize", None),
    ("capax.asymptotics", "ConvergenceReport.to_json", "cli.serialize", None),
    ("capax.obstructions", "ObstructionReport.to_json", "cli.serialize", None),
    ("capax.domains", "validate", "domains.validate", None),
    ("capax.weights", "convex_weights", "weights.expand", _count_tree),
    ("capax.weights", "concave_weights", "weights.expand", _count_tree),
    ("capax.tower", "build_tower", "tower.build", _count_tower),
    ("capax.capacities", "convex_capacity", "capacities.convex", None),
    ("capax.capacities", "alg_capacity_enum", "capacities.enum", _first_enum),
    ("capax.capacities", "union_of_balls", "capacities.union_of_balls", None),
    ("capax.capacities", "concave_capacity", "capacities.concave", None),
    ("capax.capacities", "ball_capacities", "capacities.closed_form", None),
    ("capax.capacities", "ellipsoid_capacities", "capacities.closed_form", None),
    ("capax.capacities", "square_capacities", "capacities.closed_form", None),
    ("capax.capacities", "polydisk_capacities", "capacities.closed_form", None),
    ("capax.scalars", "format_scalar", "scalars.format_scalar", None),
    ("capax.asymptotics", "error_series", "asymptotics", None),
    ("capax.asymptotics", "band_for_profile", "asymptotics", None),
    ("capax.asymptotics", "window_extrema", "asymptotics", None),
    ("capax.asymptotics", "edge_invariants", "asymptotics", None),
    ("capax.asymptotics", "convergence_verdict", "asymptotics", None),
    ("capax.obstructions", "obstruct", "obstructions.obstruct", None),
)

GROUPS = tuple(dict.fromkeys(t[2] for t in TARGETS))

COUNTERS = {  # name -> unit
    "cli.bytes_out": "bytes",
    "capacities.values_out": "count",
    "weights.nodes": "count",
    "weights.max_depth": "levels",
    "weights.dropped_pieces": "count",
    "tower.blowups": "count",
}


def metric_name(group: str, suffix: str) -> str:
    """capacities.convex + s -> capacities.convex_s; asymptotics + s -> asymptotics.s"""
    return f"{group}_{suffix}" if "." in group else f"{group}.{suffix}"


def time_metrics() -> list[str]:
    names = []
    for g in GROUPS:
        names += [metric_name(g, "s"), metric_name(g, "self_s")]
    return names + ["capacities.enum_first_s"]


def count_metrics() -> list[str]:
    return [metric_name(g, "calls") for g in GROUPS] + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id or -1, group, invocation, start_ns, end_ns]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.enum_first = None  # ns, first alg_capacity_enum call with k > 0
        self.invocation = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, group: str, fn, hook=None):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            span = [sid, stack[-1] if stack else -1, group, self.invocation, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a loaded capax module bound it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "capax" or n.startswith("capax."))]
        for modname, attr, group, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(group, cls.__dict__[meth], hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(group, orig, hook)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

    def metrics(self) -> dict:
        """Per-group total time (outermost spans only), self time and calls."""
        by_id = {s[0]: s for s in self.spans}
        child = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        total, own, calls = defaultdict(int), defaultdict(int), defaultdict(int)
        for sid, parent, group, _, t0, t1 in self.spans:
            calls[group] += 1
            own[group] += (t1 - t0) - child[sid]
            while parent >= 0 and by_id[parent][2] != group:
                parent = by_id[parent][1]
            if parent < 0:
                total[group] += t1 - t0
        out = {}
        for g in GROUPS:
            out[metric_name(g, "s")] = total[g] / 1e9
            out[metric_name(g, "self_s")] = own[g] / 1e9
            out[metric_name(g, "calls")] = calls[g]
        out["capacities.enum_first_s"] = (self.enum_first or 0) / 1e9
        out.update(self.counters)
        return out

    def write(self, path):
        """Spans as JSON lines in start order, after one line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "invocation", "start_ns", "end_ns"]) + "\n")
            for s in sorted(self.spans, key=lambda s: s[4]):
                fh.write(json.dumps(s) + "\n")
