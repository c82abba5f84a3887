"""Layer spans recorded from outside byzgather.

`install` swaps each traced public function for a wrapper in every module
namespace that refers to it, so calls made inside the package are caught
too; `uninstall` puts the originals back. A wrapper records a span (name,
start, end, parent, op id) only while an op is open, so the correctness
checks that run between ops are not traced.

Spans stay in memory until the run ends. The two calls made once per
subset (`model.gather_time`, `model.optimal_gather_time`) are folded into
one record per (op, parent, name) holding a call count and summed
duration, so a 14-robot op keeps a few dozen records instead of 30 000.

`minidisk` is wrapped everywhere except in `byzgather.model`: there it is
the per-subset radius, which `model.optimal_gather_time` already owns.
`geom.minidisk.s` therefore counts the planner and analysis calls only.
"""

import bisect
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from workloads import PLANNER

FOLDED = frozenset({"model.gather_time", "model.optimal_gather_time"})

# Span suffix per planner regime: `planners.<alg>.s` in the metrics.
PLANNERS = {regime.replace("-", "_"): fn for regime, fn in PLANNER.items()}


class Tracer:
    def __init__(self):
        self.op = None
        self.stack = []
        self.spans = []
        self.folded = defaultdict(lambda: [0, 0.0])
        self.busy = Counter()
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.op_s = 0.0
        self.uncovered_s = 0.0
        self.ops = 0
        self._next_id = 1
        self._patched = []

    def begin_op(self, op_id):
        self.op = op_id
        self.stack = [[None, 0, perf_counter(), 0.0]]

    def end_op(self):
        end = perf_counter()
        _, _, start, child = self.stack.pop()
        self.op = None
        self.ops += 1
        self.op_s += end - start
        self.uncovered_s += end - start - child
        return end - start

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span; `name` may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [label, sid, perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer._close(frame, end)
            if after is not None:
                after(tracer.counts, args, out)
            # Charge the counting hook to no layer: the parent's child time
            # runs to here, so the hook is neither its self time nor ours.
            tracer.stack[-1][3] += perf_counter() - end
            return out

        return traced

    def _close(self, frame, end):
        label, sid, start, child = frame
        dur = end - start
        parent = self.stack[-1]
        parent[3] += dur
        self.busy[label] += dur
        self.self_s[label] += dur - child
        self.calls[label] += 1
        if label in FOLDED:
            rec = self.folded[(self.op, parent[1], label)]
            rec[0] += 1
            rec[1] += dur
        else:
            self.spans.append((self.op, sid, parent[1], label, start, end))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, bz):
        """Wrap the layer functions of the byzgather modules in `bz`."""
        model, analysis, planners, geom, cli = (
            bz.model, bz.analysis, bz.planners, bz.geom, bz.cli
        )
        tl = model.ScheduleTimeline

        def count_candidates(counts, args, out):
            counts["model.candidate_times.count"] += len(args[0].times)

        def count_steps(counts, args, out):
            timeline, subset = args
            if subset & (subset - 1) == 0:
                return
            times = timeline.times
            steps = len(times) if out is None else bisect.bisect_left(times, out) + 1
            counts["model.gather_time.steps"] += steps

        def count_subsets(counts, args, out):
            counts["model.subsets.count"] += len(out)

        def count_waypoints(counts, args, out):
            counts["planners.waypoints.count"] += sum(len(t) for t in out.trajectories)

        def count_report(counts, args, out):
            if "subsets" in args[0]:
                counts["model.report.bytes"] += len(out.encode())

        self._patch(tl, "__init__", self.wrap("model.ScheduleTimeline", tl.__init__, count_candidates))
        self._patch(tl, "gather_time", self.wrap("model.gather_time", tl.gather_time, count_steps))

        table = [
            ("main", lambda args: "cli." + args[0][0], None, [cli]),
            ("optimal_gather_time", "model.optimal_gather_time", None, [model, analysis]),
            ("enumerate_reliable_subsets", "model.enumerate_reliable_subsets", count_subsets,
             [model, analysis]),
            ("instance_from_obj", "model.instance_from_obj", None, [model, cli]),
            ("schedule_from_obj", "model.schedule_from_obj", None, [model, cli]),
            ("schedule_to_obj", "model.schedule_to_obj", None, [model, cli]),
            ("dumps", "model.dumps", count_report, [model, cli]),
            ("report_to_obj", "analysis.report_to_obj", None, [analysis, cli]),
            ("overall_cr", "analysis.overall_cr", None, [analysis, cli]),
            ("bound_for_report", "analysis.bound_for_report", None, [analysis]),
            ("lower_bound_f1", "analysis.lower_bound_f1", None, [analysis]),
            ("check_lb_achievable", "analysis.check_lb_achievable", None, [analysis]),
            ("oracle_opt_point", "analysis.oracle_opt_point", None, [analysis, cli]),
            ("opt_point_f1", "planners.opt_point_f1", None, [planners]),
            ("subset_radius_order", "planners.subset_radius_order", None, [planners, analysis]),
            ("centerpoint", "geom.centerpoint", None, [geom, planners]),
            ("median_line_pair", "geom.median_line_pair", None, [geom, planners]),
            ("furthest_voronoi", "geom.furthest_voronoi", None, [geom, planners]),
            ("closest_distinct_pair", "geom.closest_distinct_pair", None,
             [geom, planners, analysis]),
            ("minidisk", "geom.minidisk", None, [geom, planners, analysis]),
        ]
        table += [
            (fn, f"planners.{alg}", count_waypoints, [planners, cli])
            for alg, fn in PLANNERS.items()
        ]
        for attr, name, after, owners in table:
            wrapper = self.wrap(name, getattr(owners[0], attr), after)
            for owner in owners:
                self._patch(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path, t0):
        """Write spans as JSON lines; times are seconds since t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                rec = {"op": op, "id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                fh.write(json.dumps(rec) + "\n")
            for (op, parent, name), (calls, total) in self.folded.items():
                rec = {"op": op, "parent": parent, "name": name,
                       "calls": calls, "total": total}
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self):
        """Per-op means of every per-layer metric, keyed by metric name."""
        ops = max(self.ops, 1)
        busy, counts = self.busy, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value / ops, "unit": unit}

        put("model.optimal_gather_time.s", busy["model.optimal_gather_time"], "s")
        put("model.optimal_gather_time.calls", self.calls["model.optimal_gather_time"], "count")
        put("model.ScheduleTimeline.s", busy["model.ScheduleTimeline"], "s")
        put("model.candidate_times.count", counts["model.candidate_times.count"], "count")
        put("model.gather_time.s", busy["model.gather_time"], "s")
        put("model.gather_time.steps", counts["model.gather_time.steps"], "count")
        steps = counts["model.gather_time.steps"]
        out["model.gather_time.hit_ratio"] = {
            "value": self.calls["model.gather_time"] / steps if steps else 0.0,
            "unit": "ratio",
        }
        put("model.enumerate_reliable_subsets.s", busy["model.enumerate_reliable_subsets"], "s")
        put("model.subsets.count", counts["model.subsets.count"], "count")
        put("model.parse.s", busy["model.instance_from_obj"] + busy["model.schedule_from_obj"], "s")
        put("model.serialize.s", busy["model.dumps"] + busy["model.schedule_to_obj"]
            + busy["analysis.report_to_obj"], "s")
        put("model.report.bytes", counts["model.report.bytes"], "bytes")
        put("cli.plan.s", busy["cli.plan"], "s")
        put("cli.adversary.s", busy["cli.adversary"], "s")
        put("cli.self.s", self.self_s["cli.plan"] + self.self_s["cli.adversary"], "s")
        put("analysis.overall_cr.s", busy["analysis.overall_cr"], "s")
        put("analysis.overall_cr.self.s", self.self_s["analysis.overall_cr"], "s")
        for name in ("check_lb_achievable", "lower_bound_f1", "bound_for_report", "oracle_opt_point"):
            put(f"analysis.{name}.s", busy[f"analysis.{name}"], "s")
        put("analysis.oracle_opt_point.calls", self.calls["analysis.oracle_opt_point"], "count")
        put("planners.plan.s", sum(busy[f"planners.{alg}"] for alg in PLANNERS), "s")
        for alg in PLANNERS:
            put(f"planners.{alg}.s", busy[f"planners.{alg}"], "s")
        put("planners.opt_point_f1.s", busy["planners.opt_point_f1"], "s")
        put("planners.subset_radius_order.s", busy["planners.subset_radius_order"], "s")
        put("planners.waypoints.count", counts["planners.waypoints.count"], "count")
        for name in ("centerpoint", "median_line_pair", "furthest_voronoi",
                     "closest_distinct_pair", "minidisk"):
            put(f"geom.{name}.s", busy[f"geom.{name}"], "s")
        put("trace.op.s", self.op_s, "s")
        put("trace.uncovered.s", self.uncovered_s, "s")
        return out

    def self_shares(self):
        """Each span name's self time as a share of traced op time, largest first."""
        total = self.op_s or 1.0
        shares = {name: s / total for name, s in self.self_s.items()}
        shares["(uncovered)"] = self.uncovered_s / total
        return sorted(shares.items(), key=lambda kv: -kv[1])
