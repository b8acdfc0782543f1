"""Spans around the program's public functions, recorded from outside.

A span wraps a function by rebinding the name a calling module imported
(``controversy.cli.bcc``, ``controversy.users.stationary_rwr``, ...), so
the program itself is unchanged. Each span records its name, start, end,
parent span and the exception it raised, if any. Spans stay in memory
until the run ends. The layer of a span is the module that defines the
function, i.e. the part of its name before the first dot.
"""
from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module whose binding is replaced, attribute, span name)
TARGETS = (
    ("controversy.graph", "read_records", "graph.read_records"),
    ("controversy.graph", "read_edgelist", "graph.read_edgelist"),
    ("controversy.graph", "write_edgelist", "graph.write_edgelist"),
    ("controversy.graph", "build_retweet_graph", "graph.build_retweet_graph"),
    ("controversy.graph", "largest_component", "graph.largest_component"),
    ("controversy.synthetic", "largest_component", "graph.largest_component"),
    ("controversy.cli", "read_profiles", "topics.read_profiles"),
    ("controversy.cli", "expand_topic", "topics.expand_topic"),
    ("controversy.cli", "import_partition", "partition.import_partition"),
    ("controversy.cli", "spectral_bisection", "partition.spectral_bisection"),
    ("controversy.measures", "stationary_rwr", "walks.stationary_rwr"),
    ("controversy.users", "stationary_rwr", "walks.stationary_rwr"),
    ("controversy.measures", "sample_walk", "walks.sample_walk"),
    ("controversy.measures", "top_degree", "walks.top_degree"),
    ("controversy.cli", "top_degree", "walks.top_degree"),
    ("controversy.users", "expected_hitting_times", "walks.expected_hitting_times"),
    ("controversy.cli", "rwc_mc", "measures.rwc_mc"),
    ("controversy.cli", "rwc_rwr", "measures.rwc_rwr"),
    ("controversy.synthetic", "rwc_rwr", "measures.rwc_rwr"),
    ("controversy.cli", "bcc", "measures.bcc"),
    ("controversy.measures", "edge_betweenness", "measures.edge_betweenness"),
    ("controversy.cli", "force_layout", "measures.force_layout"),
    ("controversy.cli", "ec", "measures.ec"),
    ("controversy.cli", "gmck", "measures.gmck"),
    ("controversy.cli", "mblb", "measures.mblb"),
    ("controversy.cli", "user_score_table", "users.user_score_table"),
    ("controversy.users", "rwc_user", "users.rwc_user"),
    ("controversy.users", "hitting_score_all", "users.hitting_score_all"),
    ("controversy.cli", "write_user_scores", "users.write_user_scores"),
    ("controversy.cli", "rwc_sweep", "synthetic.rwc_sweep"),
    ("controversy.synthetic", "planted_two_community", "synthetic.planted_two_community"),
    ("controversy.cli", "write_sweep_csv", "synthetic.write_sweep_csv"),
)

# counts recorded at a span's end from the function's result
COUNTS = {
    "graph.read_records": lambda records: {"graph.records": len(records)},
    "graph.largest_component": lambda g: {
        "graph.vertices": g.n_vertices, "graph.edges": g.n_edges},
}


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, error, counts
        self._stack = []
        self._saved = []
        self.missing = []

    def call(self, name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": perf_counter(), "end": None, "error": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if name in COUNTS:
            span["counts"] = COUNTS[name](result)
        return result

    def install(self):
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per-name inclusive seconds and calls, per-layer self seconds, counts
    and errors over a list of spans (all of their parents included)."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    seconds, calls, self_s, counts, errors = {}, {}, {}, {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        seconds[name] = seconds.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time.get(s["id"], 0.0)
        for key, value in s.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if s["error"]:
            errors[name] = errors.get(name, 0) + 1
    return {"seconds": seconds, "calls": calls, "self": self_s,
            "counts": counts, "errors": errors}
