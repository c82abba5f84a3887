"""The benchmark's correctness checks must catch a bad result.

Run from the repository root: python3 -m pytest perfbench/test_checks.py -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import EvaluateLarge, SweepSmall  # noqa: E402


def _short_workload(cls, tmp_path, ops):
    """The workload cut to a rotation of `ops` ops, so a run makes just those."""
    wl = cls(run.load_byzgather(), 0, str(tmp_path))
    wl.cycle = wl.digest_ops = ops
    return wl


def test_teleporting_schedule_counts_as_failed(tmp_path, monkeypatch):
    """A schedule that jumps every robot to one point scores below 1 and exits 0."""
    wl = _short_workload(EvaluateLarge, tmp_path, 1)
    model, geom = wl.bz.model, wl.bz.geom

    def teleport(args, instance):
        centre = geom.minidisk(instance.robots).center
        trajs = [[model.Waypoint(0.0, p), model.Waypoint(1e-3, centre)]
                 for p in instance.robots]
        return model.Schedule(args.alg, trajs, {})

    monkeypatch.setattr(wl.bz.cli, "_plan_for", teleport)
    times, _, keys, failures = run.run_ops(wl, 0.0, wl.make)
    assert len(times) == 1 and len(failures) == 1
    op, problems = failures[0]
    assert any("below the floor" in p for p in problems), problems
    assert keys[0][0] < 1.0


def test_planned_ops_pass_and_replay_identically(tmp_path):
    # Op 1 of sweep-small is an F = 1 op, which also runs the oracle.
    for cls, ops in ((EvaluateLarge, 1), (SweepSmall, 2)):
        wl = _short_workload(cls, tmp_path, ops)
        tracer = Tracer()
        tracer.install(wl.bz)
        try:
            times, traced, keys, failures = run.run_ops(wl, 0.0, wl.make, tracer)
        finally:
            tracer.uninstall()
        assert failures == [] and len(traced) == len(times) == ops
        assert None not in keys and tracer.ops == ops
        assert not hasattr(wl.bz.analysis.overall_cr, "__wrapped__")
