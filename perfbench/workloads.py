"""The benchmark workloads: inputs, one op each, and its checks.

Every op draws its instance from `random.Random(f"<workload>:<seed>:<i>")`,
uniform in a 100 x 100 box, so op i is the same in every run with the same
seed whatever ran before it. Regimes and sizes rotate with i, and a run
measures whole cycles of that rotation, so each run holds the same mix.

A workload has `cycle` (ops per rotation), `prepared` (inputs made during
set-up), `digest_ops` (ops the result digest covers), and three methods:
`make(i)` builds op i's input, `run(op)` is the timed op, and
`check(op, result)` returns (problems, key). `key` is what the digest and
the traced replay compare: overall_cr and the argmax mask, plus the
oracle cr on ops that call the oracle.
"""

import json
import math
import os
import random
from typing import NamedTuple

BOX = 100.0

# Fault budget at each regime's limit, as a function of n.
LIMIT = {
    "mec": lambda n: 0,
    "opt-f1": lambda n: 1,
    "tri": lambda n: 1,
    "centerpoint": lambda n: -(-n // 3) - 1,
    "hamsandwich": lambda n: -(-n // 2) - 1,
    "ssi": lambda n: n - 2,
    "grid": lambda n: n - 2,
}

PLANNER = {
    "mec": "plan_mec",
    "opt-f1": "plan_opt_f1",
    "tri": "plan_tri",
    "centerpoint": "plan_centerpoint",
    "hamsandwich": "plan_hamsandwich",
    "ssi": "plan_ssi",
    "grid": "plan_grid",
}


class Op(NamedTuple):
    index: int
    regime: str
    instance: object
    path: str = ""
    resolution: float = 0.0


def _instance(bz, name, seed, i, n, f):
    rng = random.Random(f"{name}:{seed}:{i}")
    pts = [(rng.uniform(0.0, BOX), rng.uniform(0.0, BOX)) for _ in range(n)]
    return bz.model.make_instance(pts, f)


def _check_ratio(cr, bound, bound_satisfied):
    """Bound and floor checks shared by the two plan + evaluate workloads."""
    problems = []
    if bound is not None and bound_satisfied is not True:
        problems.append(f"overall_cr {cr!r} exceeds bound {bound!r}")
    if not cr >= 1.0 - 1e-9:
        problems.append(f"overall_cr {cr!r} is below the floor of 1")
    return problems


class EvaluateLarge:
    """plan + adversary through `cli.main`, n in {12, 13, 14}.

    The rotation is every regime at every size, plus a second grid op at
    n = 12 and at n = 14. Op times fall into classes by (regime, n), with
    wide gaps between some of them. With the extra grid ops the median
    lies in the middle of the grid-12 class and the 90th percentile inside
    the ssi-14 and grid-14 ops, instead of on a gap between two classes,
    where the instances drawn would decide which side it takes.
    """

    name = "evaluate-large"
    rotation = tuple(
        (regime, n) for n in (12, 13, 14)
        for regime in ("hamsandwich", "centerpoint", "ssi", "grid")
    ) + (("grid", 12), ("grid", 14))
    cycle = prepared = digest_ops = len(rotation)

    def __init__(self, bz, seed, workdir):
        self.bz = bz
        self.seed = seed
        self.workdir = workdir
        self.schedule_path = os.path.join(workdir, "schedule.json")
        self.report_path = os.path.join(workdir, "report.json")

    def make(self, i):
        regime, n = self.rotation[i % len(self.rotation)]
        inst = _instance(self.bz, self.name, self.seed, i, n, LIMIT[regime](n))
        path = os.path.join(self.workdir, f"instance-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.bz.model.dumps(self.bz.model.instance_to_obj(inst)))
        return Op(i, regime, inst, path)

    def run(self, op):
        main = self.bz.cli.main
        plan = main(["plan", "--alg", op.regime, "--input", op.path,
                     "--output", self.schedule_path])
        adversary = main(["adversary", "--input", op.path, "--schedule",
                          self.schedule_path, "--output", self.report_path])
        return plan, adversary

    def check(self, op, result):
        if result != (0, 0):
            return [f"exit codes {result}, expected (0, 0)"], None
        with open(self.report_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        problems = _check_ratio(rep["overall_cr"], rep["bound"], rep["bound_satisfied"])
        n, f = op.instance.n, op.instance.f
        need = max(2, n - f)
        expected = sum(math.comb(n, k) for k in range(need, n + 1))
        if len(rep["subsets"]) != expected:
            problems.append(f"{len(rep['subsets'])} subset rows, expected {expected}")
        top = [row["cr"] for row in rep["subsets"] if row["mask"] == rep["argmax_mask"]]
        if top != [rep["overall_cr"]]:
            problems.append(f"argmax row cr {top} differs from overall_cr {rep['overall_cr']!r}")
        return problems, (rep["overall_cr"], rep["argmax_mask"])


class SweepSmall:
    """Library plan + overall_cr over all seven planners, n from 3 to 9.

    F = 1 ops add `lower_bound_f1` and `check_lb_achievable`, as the
    acceptance tests and `bench_table` do. The two optimal F = 1 planners
    (opt-f1, tri) also call `oracle_opt_point` at resolution 1e-3 r_S, the
    acceptance-1 cross-check.
    """

    name = "sweep-small"
    regimes = ("mec", "opt-f1", "tri", "centerpoint", "hamsandwich", "ssi", "grid")
    optimal = ("opt-f1", "tri")
    cycle = 49
    prepared = 490
    digest_ops = 98

    def __init__(self, bz, seed, workdir):
        self.bz = bz
        self.seed = seed

    def make(self, i):
        regime = self.regimes[i % 7]
        n = 3 if regime == "tri" else 3 + (i // 7) % 7
        inst = _instance(self.bz, self.name, self.seed, i, n, LIMIT[regime](n))
        resolution = 0.0
        if regime in self.optimal:
            resolution = 1e-3 * self.bz.geom.minidisk(inst.robots).radius
        return Op(i, regime, inst, resolution=resolution)

    def run(self, op):
        analysis = self.bz.analysis
        inst = op.instance
        sched = getattr(self.bz.planners, PLANNER[op.regime])(inst)
        rep = analysis.overall_cr(inst, sched)
        lb = oracle = None
        if inst.f == 1:
            lb = analysis.lower_bound_f1(inst)
            analysis.check_lb_achievable(inst)
        if op.resolution:
            oracle = analysis.oracle_opt_point(inst, op.resolution)
        return sched, rep, lb, oracle

    def check(self, op, result):
        sched, rep, lb, oracle = result
        cr = rep.overall_cr
        problems = self.bz.model.validate_schedule(op.instance, sched)
        problems += _check_ratio(cr, rep.bound, rep.bound_satisfied)
        if lb is not None and not cr >= lb - 1e-9:
            problems.append(f"overall_cr {cr!r} below lower_bound_f1 {lb!r}")
        if oracle is None:
            return problems, (cr, rep.argmax_mask)
        # The upper half of the acceptance-1 sandwich.
        order = self.bz.planners.subset_radius_order(op.instance)
        r0, r1 = order[0][1], order[1][1]
        hi = oracle.cr + op.resolution * (1.0 / r0 + 1.0 / r1) + 1e-9
        if not cr <= hi:
            problems.append(f"overall_cr {cr!r} above the oracle's bound {hi!r}")
        return problems, (cr, rep.argmax_mask, oracle.cr)


WORKLOADS = {w.name: w for w in (EvaluateLarge, SweepSmall)}
