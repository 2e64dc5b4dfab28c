"""Spans around calls into flowgate's modules, recorded from outside.

The benchmark does not change the program: in a traced stage process it
replaces each public function where its caller looks it up (for example
`flowgate.cli.windowize`, `flowgate.worlds.project_iats`) with a wrapper
that records a span: name, start, end, parent span and an optional work
count. Functions called once per row are recorded as a call count and a
total time under the enclosing span instead, so the trace stays small.

A span's self time is its duration minus the time of its direct children,
counted spans included.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

perf_counter = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, WORK, PEAK = range(6)


class Tracer:
    """In-memory spans of one stage process; `dump()` returns them as JSON."""

    def __init__(self):
        self.spans: list[list] = []
        self.counted: dict[tuple[int, str], list] = {}
        self._stack = [-1]

    def span(self, name, fn, work=None, peak_memory=False):
        """Wrap fn so that each call records a span.

        name is a string, or a function of the call's arguments.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args),
                   0.0, 0.0, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if peak_memory:
                tracemalloc.start()
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if peak_memory:
                    rec[PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if work is not None:
                rec[WORK] = int(work(args, out))
            return out

        return wrapper

    def count(self, name, fn):
        """Wrap fn so that calls add to a count and a total under the
        enclosing span."""
        counted, stack = self.counted, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = counted.get((stack[-1], name))
                if rec is None:
                    counted[(stack[-1], name)] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counted": [[parent, name, calls, secs] for (parent, name),
                            (calls, secs) in self.counted.items()]}


def _packets(args, out):
    return out.n_packets


def _replayed(args, out):
    return out.n


def _rows_out(args, out):
    return len(out)


def _json_name(args):
    """The contention graph's JSON parse is part of loading the graph."""
    if str(args[0]).endswith("contention.json"):
        return "worlds.graph_load_json"
    return "cli.load_json"


# (module, attribute, span name, work count). The attribute is the name
# the caller looks up: cli's imports, or a worlds function that other
# worlds functions call through the module's globals.
SPANS = [
    ("flowgate.cli", "read_trace_csv", "trace.read_trace_csv", _packets),
    ("flowgate.cli", "read_flow_table", "trace.read_flow_table", None),
    ("flowgate.cli", "read_manifest", "trace.read_manifest", None),
    ("flowgate.cli", "read_labels", "trace.read_labels", None),
    ("flowgate.cli", "_load_json", _json_name, None),
    ("flowgate.cli", "windowize", "features.windowize", None),
    ("flowgate.cli", "read_scores_csv", "detector.read_scores_csv",
     _rows_out),
    ("flowgate.cli", "write_scores_csv", "detector.write_scores_csv", None),
    ("flowgate.cli", "read_thresholds", "detector.read_thresholds", None),
    ("flowgate.cli", "write_thresholds", "detector.write_thresholds", None),
    ("flowgate.cli", "replay", "wfq.replay", _replayed),
    ("flowgate.cli", "gate_controller", "wfq.gate_controller", None),
    ("flowgate.cli", "write_queue_log", "wfq.write_queue_log", None),
    ("flowgate.cli", "read_queue_log", "wfq.read_queue_log", _replayed),
    ("flowgate.cli", "write_schedule", "wfq.write_schedule", None),
    ("flowgate.cli", "build_world", "worlds.build_world", None),
    ("flowgate.cli", "write_world", "worlds.write_world", None),
    ("flowgate.cli", "bench_scoring", "metrics.bench_scoring", None),
    ("flowgate.cli", "compute_report", "metrics.compute_report", None),
    ("flowgate.cli", "write_report", "metrics.write_report", None),
    ("flowgate.cli", "write_episode_table", "metrics.write_episode_table",
     None),
    ("flowgate.worlds", "read_trace_csv", "trace.read_trace_csv", _packets),
    ("flowgate.worlds", "write_trace_csv", "trace.write_trace_csv", None),
    ("flowgate.worlds", "replay", "worlds.replay", _replayed),
    ("flowgate.worlds", "gen_benign_flow", "worlds.gen_benign_flow", None),
    ("flowgate.worlds", "build_contention_graph",
     "worlds.build_contention_graph", None),
    ("flowgate.worlds", "pool_class_iats", "worlds.pool_class_iats", None),
    ("flowgate.worlds", "enforce_contention", "worlds.enforce_contention",
     None),
    ("flowgate.worlds", "project_iats", "worlds.project_iats", None),
    ("flowgate.worlds", "repair_sizes", "worlds.repair_sizes", None),
    ("flowgate.worlds", "clique_baseline_delay",
     "worlds.clique_baseline_delay", None),
    ("flowgate.worlds", "window_distortions", "worlds.window_distortions",
     None),
    ("flowgate.worlds", "load_world", "worlds.load_world", None),
    ("flowgate.worlds", "audit_budgets", "worlds.audit_budgets", None),
]

# Methods, patched on their class, so every caller sees the wrapper.
METHOD_SPANS = [
    ("flowgate.detector", "DetectorSession", "process_window",
     "detector.process_window", _rows_out),
    ("flowgate.detector", "DetectorSession", "finalize",
     "detector.finalize", None),
]
CLASSMETHOD_SPANS = [
    ("flowgate.worlds", "ContentionGraph", "from_dict",
     "worlds.graph_from_dict"),
]

# Called once per row or per window: counted, not spanned.
COUNTED = [
    ("flowgate.features", "FeatureTable", "row", "features.row_view"),
    ("flowgate.features", "Normalizer", "score_and_update",
     "features.normalizer"),
]
COUNTED_FUNCTIONS = [
    ("flowgate.worlds", "w1_empirical", "worlds.w1_empirical"),
]

PEAK_MEMORY = {"features.windowize"}


def install(tracer: Tracer) -> None:
    """Wrap every function listed above in this process."""
    for mod, attr, name, work in SPANS:
        m = importlib.import_module(mod)
        setattr(m, attr, tracer.span(name, getattr(m, attr), work,
                                     peak_memory=name in PEAK_MEMORY))
    for mod, cls, attr, name, work in METHOD_SPANS:
        c = getattr(importlib.import_module(mod), cls)
        setattr(c, attr, tracer.span(name, c.__dict__[attr], work))
    for mod, cls, attr, name in CLASSMETHOD_SPANS:
        c = getattr(importlib.import_module(mod), cls)
        setattr(c, attr, classmethod(tracer.span(name,
                                                 c.__dict__[attr].__func__)))
    for mod, cls, attr, name in COUNTED:
        c = getattr(importlib.import_module(mod), cls)
        setattr(c, attr, tracer.count(name, c.__dict__[attr]))
    for mod, attr, name in COUNTED_FUNCTIONS:
        m = importlib.import_module(mod)
        setattr(m, attr, tracer.count(name, getattr(m, attr)))


def summarize(dump: dict) -> dict:
    """Per span name: calls, total and self seconds, work and peak bytes."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    for parent, _, _, secs in dump["counted"]:
        if parent >= 0:
            child[parent] += secs
    out: dict[str, dict] = {}

    def entry(name):
        return out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "work": 0,
                                     "peak_bytes": 0})

    for i, rec in enumerate(spans):
        e = entry(rec[NAME])
        dur = rec[END] - rec[START]
        e["calls"] += 1
        e["total_s"] += dur
        e["self_s"] += dur - child[i]
        e["work"] += rec[WORK]
        e["peak_bytes"] = max(e["peak_bytes"], rec[PEAK])
    for _, name, calls, secs in dump["counted"]:
        e = entry(name)
        e["calls"] += calls
        e["total_s"] += secs
        e["self_s"] += secs
    return out


def root_children_s(dump: dict) -> float:
    """Time of the spans and counted calls directly under the first (root)
    span."""
    spans = dump["spans"]
    return (sum(r[END] - r[START] for r in spans if r[PARENT] == 0)
            + sum(secs for parent, _, _, secs in dump["counted"]
                  if parent == 0))


def top_self(summary: dict, n: int = 5) -> list[tuple[str, float]]:
    """The n span names with the most self time."""
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    return [(name, e["self_s"]) for name, e in ranked[:n]]
