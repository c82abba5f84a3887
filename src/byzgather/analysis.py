"""Adversarial evaluation of gathering schedules.

The adversary selects which robots are reliable after seeing the whole
schedule: a schedule's overall competitive ratio is the maximum, over all
candidate reliable subsets, of (subset gather time) / (radius of the
subset's minimum enclosing circle). This module computes per-subset and
overall ratios, per-algorithm upper bounds, the F = 1 lower bound with an
achievability certificate, an exhaustive-search oracle for the F = 1
optimal target, and a benchmark table over all planners.
"""

import functools
import math
import random
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    DegenerateRatioError,
    SubsetNeverGathersError,
)
from .geom import EPS_GEO, Point2, support_set
from .geom import (  # unused here; the benchmark's layer tracer patches them
    closest_distinct_pair,
    minidisk,
)
from .model import (
    EPS_MEET,
    Instance,
    Schedule,
    ScheduleTimeline,
    enumerate_reliable_subsets,
    make_instance,
    optimal_gather_time,
)
from .planners import PLANNERS, SQRT2, f1_setup
from .planners import subset_radius_order  # unused here; the benchmark's layer tracer patches it

# Acceptance slack when comparing a measured ratio against a proven bound.
BOUND_SLACK = 1e-6


class GatherReport(NamedTuple):
    mask: int
    gather_time: float
    optimal_time: float
    cr: float


class AdversaryReport(NamedTuple):
    algorithm: str
    overall_cr: float
    argmax_mask: int
    bound: Optional[float]
    bound_satisfied: Optional[bool]
    subsets: list


def competitive_ratio(
    instance: Instance,
    schedule: Schedule,
    subset: int,
    timeline: Optional[ScheduleTimeline] = None,
) -> GatherReport:
    """Gather time, offline optimum, and their ratio for one subset.

    A subset whose optimum is zero (coincident robots) has ratio 1 when it
    is gathered immediately; otherwise the ratio is undefined and raises.
    """
    tl = timeline if timeline is not None else ScheduleTimeline(schedule)
    g = tl.gather_time(subset)
    if g is None:
        raise SubsetNeverGathersError(f"subset {subset:#x} never gathers")
    opt = optimal_gather_time(instance, subset)
    if opt == 0.0:
        if g <= EPS_MEET:
            return GatherReport(subset, g, opt, 1.0)
        raise DegenerateRatioError(
            f"subset {subset:#x} starts gathered but meets only at t={g!r}"
        )
    return GatherReport(subset, g, opt, g / opt)


def bound_for_report(
    instance: Instance, schedule: Schedule, argmax_mask: int
) -> Optional[float]:
    """Proven worst-case ratio for the schedule's planner, if one exists.

    Looks the schedule's algorithm up in PLANNERS; returns None for an
    unknown algorithm, outside the row's budget (so a relabelled schedule
    gets no bound its instance does not earn), or where the row's bound
    does not apply.
    """
    row = PLANNERS.get(schedule.algorithm)
    if row is None or not row.applies(instance.n, instance.f):
        return None
    return row.bound(instance, schedule, argmax_mask)


def overall_cr(
    instance: Instance,
    schedule: Schedule,
    masks: Optional[Sequence[int]] = None,
) -> AdversaryReport:
    """Worst competitive ratio over candidate reliable subsets.

    masks defaults to every subset of size at least max(2, n - F). The
    reported argmax is the first subset (in the given order) attaining
    the maximum.
    """
    if masks is None:
        masks = enumerate_reliable_subsets(instance)
    tl = ScheduleTimeline(schedule)
    rows = [competitive_ratio(instance, schedule, m, tl) for m in masks]
    best = 0
    for i in range(1, len(rows)):
        if rows[i].cr > rows[best].cr:
            best = i
    overall = rows[best].cr
    argmax = rows[best].mask
    bound = bound_for_report(instance, schedule, argmax)
    satisfied = None if bound is None else bool(overall <= bound + BOUND_SLACK)
    return AdversaryReport(schedule.algorithm, overall, argmax, bound, satisfied, rows)


def report_to_obj(report: AdversaryReport) -> dict:
    return {
        "algorithm": report.algorithm,
        "overall_cr": report.overall_cr,
        "argmax_mask": report.argmax_mask,
        "bound": report.bound,
        "bound_satisfied": report.bound_satisfied,
        "subsets": [
            {
                "mask": row.mask,
                "gather_time": row.gather_time,
                "optimal_time": row.optimal_time,
                "cr": row.cr,
            }
            for row in report.subsets
        ],
    }


def lower_bound_f1(instance: Instance) -> float:
    """No F = 1 algorithm beats r_S / r_1 on this instance.

    r_S is the radius of the full enclosing circle and r_1 the
    second-smallest leave-one-out radius. Returns inf when r_1 is zero
    (all but one robot coincident): the bound degenerates.
    """
    return f1_setup(instance).lower_bound


class LbCertificate(NamedTuple):
    """Witness for whether the F = 1 lower bound is attainable exactly.

    Applies when the full enclosing circle has exactly two support
    points. q is the working radius r_0 * r_S / r_1; intersects reports
    whether the segment between the two support points meets the
    intersection of the disks of radius q around the cheapest
    leave-one-out subset (computed exactly).
    """

    applicable: bool
    q: float
    intersects: bool
    support: list
    lower_bound: float


def check_lb_achievable(instance: Instance) -> LbCertificate:
    """Certificate that the F = 1 lower bound is (or is not known) tight.

    When the full enclosing circle rests on exactly two robots A and C,
    the bound r_S / r_1 is attained by some single-target plan if the
    segment AC meets every disk of radius q = r_0 * r_S / r_1 around the
    cheapest leave-one-out subset. The segment-disks intersection test is
    exact (quadratic parameter intervals).
    """
    s = f1_setup(instance)
    robots = instance.robots
    sup = support_set(robots, s.mec)
    q = 0.0 if s.r1 <= 0.0 else s.r0 * s.mec.radius / s.r1
    if len(sup) != 2 or s.r1 <= 0.0:
        return LbCertificate(False, q, False, sup, s.lower_bound)
    a_pt, c_pt = robots[sup[0]], robots[sup[1]]
    dx, dy = c_pt.x - a_pt.x, c_pt.y - a_pt.y
    qa = dx * dx + dy * dy
    lo, hi = 0.0, 1.0
    intersects = True
    for p in s.s0:
        ex, ey = a_pt.x - p.x, a_pt.y - p.y
        qb = 2.0 * (ex * dx + ey * dy)
        qc = ex * ex + ey * ey - q * q
        if qa <= 0.0:
            if qc > 0.0:
                intersects = False
                break
            continue
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            intersects = False
            break
        rt = math.sqrt(disc)
        lo = max(lo, (-qb - rt) / (2.0 * qa))
        hi = min(hi, (-qb + rt) / (2.0 * qa))
        if lo > hi:
            intersects = False
            break
    return LbCertificate(True, q, intersects, sup, s.lower_bound)


class OracleResult(NamedTuple):
    point: Point2
    cr: float


# Offsets of a cell's four children, in units of the children's half-side.
_CHILD_X = np.array([-1.0, -1.0, 1.0, 1.0])
_CHILD_Y = np.array([-1.0, 1.0, -1.0, 1.0])


def oracle_opt_point(instance: Instance, resolution: Optional[float] = None) -> OracleResult:
    """Exhaustive-search reference for the F = 1 optimal target.

    Breadth-first cell subdivision (Piyavskii 1972, Shubert 1972) of the
    single-target objective, which is (1/r_0)-Lipschitz because r_0 <= r_1.
    At distance s from K0 the objective is at least sqrt(s^2 + r_0^2) / r_0,
    so every point better than K0 lies in the first square. A cell is
    dropped when its center value minus (half-diagonal) / r_0 exceeds the
    best value so far, which no point in it can then beat; the others are
    split in four until the half-diagonal is at most resolution (default
    r_S / 1000). The optimum's cell is never dropped, so the result cr
    satisfies

        true optimum <= cr <= true optimum + resolution * (1/r_0 + 1/r_1).
    """
    s = f1_setup(instance)
    best_pt, best = s.start()
    if s.r0 <= EPS_GEO:
        return OracleResult(best_pt, best)
    if resolution is None:
        resolution = 1e-3 * s.mec.radius
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise BadParamsError("resolution must be a positive finite number")

    half = s.r0 * math.sqrt(max(best * best - 1.0, 0.0))
    xs, ys = np.array([best_pt.x]), np.array([best_pt.y])
    while True:
        far = functools.reduce(np.maximum, (np.hypot(xs - p.x, ys - p.y) for p in s.s0))
        vals = np.maximum(
            far / s.r0, (far + np.hypot(xs - s.c_pt.x, ys - s.c_pt.y)) / (2.0 * s.r1)
        )
        i = int(np.argmin(vals))
        if vals[i] < best:
            best_pt, best = Point2(float(xs[i]), float(ys[i])), float(vals[i])
        if half * SQRT2 <= resolution:
            return OracleResult(best_pt, best)
        keep = vals - half * SQRT2 / s.r0 <= best * (1.0 + 1e-12) + 1e-15
        half /= 2.0
        xs = (xs[keep][:, None] + half * _CHILD_X).ravel()
        ys = (ys[keep][:, None] + half * _CHILD_Y).ravel()


class BenchRow(NamedTuple):
    label: str
    algorithm: str
    instances: int
    worst_cr: float
    bound_desc: str
    worst_slack: float
    ok: bool


def _random_instance(rng: random.Random, n: int, f: int, box: float = 100.0) -> Instance:
    pts = [(rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n)]
    return make_instance(pts, f)


# Regimes in the bench table and the range of n drawn for each.
BENCH_SIZES = {
    "opt-f1": (3, 8),
    "centerpoint": (4, 9),
    "hamsandwich": (4, 9),
    "ssi": (4, 9),
    "grid": (4, 7),
}


def bench_table(seed: int = 0, per_row: int = 100) -> list:
    """Worst measured ratio per planner regime on random instances.

    One row per regime in BENCH_SIZES; each row draws per_row random
    instances with the budget pushed to the regime's limit and reports
    the worst overall ratio, the applicable bound, and the worst slack
    (ratio minus bound; at most ~1e-6 when every bound holds).
    """
    rng = random.Random(seed)
    rows = []
    for alg, (lo, hi) in BENCH_SIZES.items():
        planner = PLANNERS[alg]
        worst_cr = 0.0
        worst_slack = -math.inf
        for _ in range(per_row):
            n = rng.randint(lo, hi)
            f = max(k for k in range(n - 1) if planner.applies(n, k))
            inst = _random_instance(rng, n, f)
            rep = overall_cr(inst, planner.plan(inst))
            worst_cr = max(worst_cr, rep.overall_cr)
            if rep.bound is not None:
                worst_slack = max(worst_slack, rep.overall_cr - rep.bound)
        rows.append(
            BenchRow(
                planner.label,
                alg,
                per_row,
                worst_cr,
                planner.bound_desc,
                worst_slack,
                bool(worst_slack <= BOUND_SLACK),
            )
        )
    return rows
