"""Adversarial evaluation of gathering schedules.

The adversary selects which robots are reliable after seeing the whole
schedule: a schedule's overall competitive ratio is the maximum, over all
candidate reliable subsets, of (subset gather time) / (radius of the
subset's minimum enclosing circle). This module computes per-subset and
overall ratios, per-algorithm upper bounds, the F = 1 lower bound with an
achievability certificate, an exhaustive-search oracle for the F = 1
optimal target, and a benchmark table over all planners.
"""

import math
import random
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    DegenerateRatioError,
    SubsetNeverGathersError,
    TooSmallError,
)
from .geom import (
    EPS_GEO,
    Point2,
    closest_distinct_pair,  # unused here; the benchmark's layer tracer patches it
    dist,
    minidisk,
    support_set,
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
from .planners import PLANNERS, subset_radius_order

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
    unknown algorithm or where the row's bound does not apply.
    """
    row = PLANNERS.get(schedule.algorithm)
    return None if row is None else row.bound(instance, schedule, argmax_mask)


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
    order = subset_radius_order(instance)
    r1 = order[1][1]
    rs = minidisk(instance.robots).radius
    if r1 <= 0.0:
        return math.inf
    return rs / r1


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
    if instance.n < 3:
        raise TooSmallError("certificate needs at least 3 robots")
    robots = instance.robots
    mec = minidisk(robots)
    sup = support_set(robots, mec)
    order = subset_radius_order(instance)
    omit0, r0 = order[0]
    r1 = order[1][1]
    rs = mec.radius
    lb = math.inf if r1 <= 0.0 else rs / r1
    if len(sup) != 2 or r1 <= 0.0:
        q = 0.0 if r1 <= 0.0 else r0 * rs / r1
        return LbCertificate(False, q, False, sup, lb)
    q = r0 * rs / r1
    s0 = [p for j, p in enumerate(robots) if j != omit0]
    a_pt, c_pt = robots[sup[0]], robots[sup[1]]
    dx, dy = c_pt.x - a_pt.x, c_pt.y - a_pt.y
    qa = dx * dx + dy * dy
    lo, hi = 0.0, 1.0
    intersects = True
    for p in s0:
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
    return LbCertificate(True, q, intersects, sup, lb)


class OracleResult(NamedTuple):
    point: Point2
    cr: float


def oracle_opt_point(instance: Instance, resolution: Optional[float] = None) -> OracleResult:
    """Exhaustive-search reference for the F = 1 optimal target.

    Sweeps a square lattice over the candidate disk, coarse-to-fine down
    to the requested resolution (default r_S / 1000), then refines
    locally three more decades. Lattice points are pruned only by true
    lower bounds on the objective, so the result cr satisfies

        true optimum <= cr <= true optimum + resolution * (1/r_0 + 1/r_1).
    """
    if instance.n < 3:
        raise TooSmallError("oracle needs at least 3 robots")
    order = subset_radius_order(instance)
    omit0, r0 = order[0]
    r1 = order[1][1]
    robots = instance.robots
    c_pt = robots[omit0]
    s0 = [p for j, p in enumerate(robots) if j != omit0]
    rs = minidisk(robots).radius

    if r0 <= EPS_GEO:
        d_pt = minidisk(s0).center
        if r1 <= EPS_GEO:
            return OracleResult(d_pt, 1.0)
        far = max(dist(d_pt, p) for p in s0)
        return OracleResult(d_pt, (far + dist(d_pt, c_pt)) / (2.0 * r1))

    if resolution is None:
        resolution = 1e-3 * rs
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise BadParamsError("resolution must be a positive finite number")

    sx = np.array([p.x for p in s0])
    sy = np.array([p.y for p in s0])
    cx, cy = c_pt

    def objective_scalar(p: Point2) -> float:
        far = max(dist(p, s) for s in s0)
        return max(far / r0, (far + dist(p, c_pt)) / (2.0 * r1))

    def objective_grid(xs, ys):
        far = np.hypot(xs - sx[0], ys - sy[0])
        for px, py in zip(sx[1:], sy[1:]):
            np.maximum(far, np.hypot(xs - px, ys - py), out=far)
        cd = np.hypot(xs - cx, ys - cy)
        return np.maximum(far / r0, (far + cd) / (2.0 * r1))

    k0 = minidisk(s0).center
    best_pt = k0
    best_val = objective_scalar(k0)
    clamp = r0 * best_val + rs

    ladder = [resolution]
    step = resolution * 16.0
    while step < rs / 4.0:
        ladder.append(step)
        step *= 16.0
    ladder.reverse()

    for res in ladder:
        inflate = best_val * (1.0 + 1e-12) + 1e-15
        extent = min(clamp, r0 * math.sqrt(max(inflate * inflate - 1.0, 0.0)))
        m = int(math.ceil(extent / res))
        offs = np.arange(-m, m + 1, dtype=np.float64) * res
        xs_row = k0.x + offs
        for lo in range(0, offs.size, 512):
            ys_col = (k0.y + offs[lo : lo + 512])[:, None]
            # True lower bound 1: objective >= sqrt(s^2 + r0^2) / r0 at
            # distance s from the small circle's center, so points with
            # s^2 beyond the current best cannot win.
            inflate = best_val * (1.0 + 1e-12) + 1e-15
            rho2 = r0 * r0 * max(inflate * inflate - 1.0, 0.0)
            s2 = (xs_row - k0.x) ** 2 + (ys_col - k0.y) ** 2
            keep = s2 <= rho2
            if not keep.any():
                continue
            xk = np.broadcast_to(xs_row, s2.shape)[keep]
            yk = np.broadcast_to(ys_col, s2.shape)[keep]
            g1 = np.sqrt(s2[keep] + r0 * r0)
            # True lower bound 2: (sqrt(s^2 + r0^2) + |CD|) / (2 r1).
            g2 = (g1 + np.hypot(xk - cx, yk - cy)) / (2.0 * r1)
            keep2 = g2 <= inflate
            if not keep2.any():
                continue
            vals = objective_grid(xk[keep2], yk[keep2])
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_pt = Point2(float(xk[keep2][i]), float(yk[keep2][i]))

    res_fine = resolution
    for _ in range(3):
        res_fine /= 10.0
        offs = np.arange(-15, 16, dtype=np.float64) * res_fine
        xs = best_pt.x + offs
        ys = (best_pt.y + offs)[:, None]
        vals = objective_grid(xs, ys)
        i = int(np.argmin(vals))
        iy, ix = divmod(i, offs.size)
        if vals[iy, ix] < best_val:
            best_val = float(vals[iy, ix])
            best_pt = Point2(float(xs[ix]), float(ys[iy, 0]))

    return OracleResult(best_pt, best_val)


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
