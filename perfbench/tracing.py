"""Spans around the calls into each layer of the program, recorded from
outside it.

``Tracer.install`` rebinds each public layer function, in every program
module that refers to it, to a wrapper that records a span (name, start,
end, parent span, operation id, counts); ``remove`` restores the originals.
Nothing is wrapped in an untraced run.  Spans stay in memory until the run
ends.
"""

import json
import time
from statistics import median

import wrenchfeas
from wrenchfeas import cli, contacts, feasibility, hull, oracle, scenes, simplex, wcm

MODULES = (wrenchfeas, cli, contacts, feasibility, hull, oracle, scenes, simplex, wcm)

# (function, span name, counts taken from (args, result))
LAYERS = (
    (scenes.load_scenario, "scenes.load_scenario", None),
    (scenes.load_scene, "scenes.load_scene", None),
    (cli.main, "cli.main", None),
    (feasibility.classify, "feasibility.classify", None),
    (simplex.solve, "simplex.solve", None),
    (contacts.build_generating_matrices, "contacts.generators", None),
    (contacts.required_wrench, "contacts.required_wrench", None),
    (wcm.build_wcm, "wcm.build_wcm", lambda args, res: {"rows": res.n_rows}),
    (wcm.modified_generators, "wcm.modified_generators", None),
    (hull.convex_hull, "hull.convex_hull", lambda args, res: {"points": len(args[0]), "facets": len(res.facets)}),
    (wcm.shift_wcm, "wcm.shift", None),
    (wcm.wrench_margin, "wcm.margin", None),
    (wcm.wrench_feasible, "wcm.wrench_feasible", None),
    (wcm.acceleration_feasible, "wcm.acceleration_feasible", None),
    (oracle.wrench_membership_lp, "oracle.membership", None),
    (oracle.force_membership_lp, "oracle.membership", None),
)

# name, unit; the README maps each to the end-to-end metrics it should move.
PER_LAYER = (
    ("feasibility.classify_ms", "ms"),
    ("contacts.generators_us", "us"),
    ("contacts.required_wrench_us", "us"),
    ("hull.convex_hull_ms", "ms"),
    ("hull.points", "count"),
    ("hull.facets", "count"),
    ("wcm.modified_generators_us", "us"),
    ("wcm.build_wcm_self_ms", "ms"),
    ("wcm.rows", "count"),
    ("wcm.shift_us", "us"),
    ("wcm.margin_us", "us"),
    ("oracle.membership_us", "us"),
    ("oracle.solves", "count"),
    ("scenes.load_scenario_ms", "ms"),
    ("cli.scenario_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.base_ops_per_s", "ops/s"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op, counts)
        self.op = None
        self._stack = []
        self._wrappers = {id(fn): (fn, self._wrap(fn, name, counts)) for fn, name, counts in LAYERS}
        self._saved = []

    def _wrap(self, fn, name, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if counts is not None:
                spans[index] = (name, start, end, parent, self.op, counts(args, result))
            return result

        return traced

    def install(self):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def remove(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write('["name", "start_ns", "end_ns", "parent", "op", "counts"]\n')
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self, traced_rounds):
        """Medians over every recorded span of a layer; 0 when the workload
        never calls it.  ``oracle.solves`` is per traced round."""
        durations, child_time, counts = {}, {}, {}
        for name, start, end, parent, _, extra in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + end - start
            for key, value in (extra or {}).items():
                counts.setdefault(f"{name}.{key}", []).append(value)
        build_self = [
            end - start - child_time.get(i, 0)
            for i, (name, start, end, *_) in enumerate(self.spans)
            if name == "wcm.build_wcm"
        ]
        memberships = sum(1 for span in self.spans if span[0] == "oracle.membership" and span[4] is not None)

        def med(values, scale=1.0):
            return float(median(values)) * scale if values else 0.0

        ms, us = 1e-6, 1e-3
        return {
            "feasibility.classify_ms": med(durations.get("feasibility.classify"), ms),
            "contacts.generators_us": med(durations.get("contacts.generators"), us),
            "contacts.required_wrench_us": med(durations.get("contacts.required_wrench"), us),
            "hull.convex_hull_ms": med(durations.get("hull.convex_hull"), ms),
            "hull.points": med(counts.get("hull.convex_hull.points")),
            "hull.facets": med(counts.get("hull.convex_hull.facets")),
            "wcm.modified_generators_us": med(durations.get("wcm.modified_generators"), us),
            "wcm.build_wcm_self_ms": med(build_self, ms),
            "wcm.rows": med(counts.get("wcm.build_wcm.rows")),
            "wcm.shift_us": med(durations.get("wcm.shift"), us),
            "wcm.margin_us": med(durations.get("wcm.margin"), us),
            "oracle.membership_us": med(durations.get("oracle.membership"), us),
            "oracle.solves": memberships / max(traced_rounds, 1),
            "scenes.load_scenario_ms": med(durations.get("scenes.load_scenario"), ms),
            "cli.scenario_ms": med(durations.get("cli.main"), ms),
        }
