"""Schedule constructors for gathering with up to F unreliable robots.

Eight planners share the Schedule output type:

  plan_mec          everyone to the minimum enclosing circle center
  plan_opt_f1       F = 1 optimal single-target plan with laggard handling
  plan_tri          three robots, F = 1, closed-form optimal target
  plan_centerpoint  F < ceil(n/3), everyone to a centerpoint
  plan_hamsandwich  F < ceil(n/2), everyone to a median-line crossing
  plan_ssi          repeated closest-pair contraction, any F <= n-2
  plan_grid         hierarchical grid snapping, any F <= n-2
  plan_auto         the first planner in PLANNERS whose budget holds

PLANNERS is the one table of planners: each row holds the planner, the
budgets at which plan_auto may pick it, its proven bound, and its bench
text.

Planners never learn which robots are reliable; schedules only branch on
positions observable along the way (for F = 1, on which robot lags).
"""

import math
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    AllCoincidentError,
    AmbiguousLaggardError,
    BadParamsError,
    BudgetTooLargeError,
    DegenerateError,
    TooLargeError,
    TooSmallError,
    WrongBudgetError,
)
from .geom import (
    EPS_GEO,
    Circle,
    Point2,
    closest_distinct_pair,
    centerpoint,
    dist,
    furthest_voronoi,
    median_line_pair,
    midpoint,
    minidisk,
)
from .model import Instance, Schedule, Waypoint

SQRT2 = math.sqrt(2.0)


def _ceil_third(n: int) -> int:
    return -(-n // 3)


def _ceil_half(n: int) -> int:
    return -(-n // 2)


def _straight_to(points: Sequence[Point2], target, algorithm: str, meta=None) -> Schedule:
    """All robots head straight to target; early arrivals wait for the last."""
    tgt = Point2(float(target[0]), float(target[1]))
    dists = [dist(p, tgt) for p in points]
    horizon = max(dists)
    trajs = []
    for p, d in zip(points, dists):
        wp = [Waypoint(0.0, Point2(*p))]
        if d > 0.0:
            wp.append(Waypoint(d, tgt))
        if horizon > wp[-1].t:
            wp.append(Waypoint(horizon, wp[-1].pos))
        trajs.append(wp)
    return Schedule(algorithm, trajs, meta or {})


def plan_mec(instance: Instance) -> Schedule:
    """Everyone to the minimum enclosing circle center; horizon = its radius."""
    mec = minidisk(instance.robots)
    meta = {"D": [mec.center.x, mec.center.y], "radius": mec.radius}
    return _straight_to(instance.robots, mec.center, "mec", meta)


def subset_radius_order(instance: Instance) -> list[tuple[int, float]]:
    """Leave-one-out subsets ordered by enclosing-circle radius.

    Returns [(omitted_index, radius), ...] ascending by radius, ties by
    omitted index. The first entry names the cheapest subset to gather
    (its omitted robot is the one a fault-free adversary would sacrifice).
    """
    if instance.n < 3:
        raise TooSmallError("leave-one-out ordering needs at least 3 robots")
    rows = []
    for i in range(instance.n):
        rest = [p for j, p in enumerate(instance.robots) if j != i]
        rows.append((i, minidisk(rest).radius))
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def plan_single_point(instance: Instance, point, algorithm: str = "single-point") -> Schedule:
    """Send everyone to one target; after n-1 arrivals, meet the laggard halfway.

    All robots head straight to the target D. Let t1 be the (n-1)-th
    smallest arrival time; early arrivals wait at D. If some robot is
    still strictly short of D at t1, everyone (including that robot, from
    wherever it is at t1) heads to the midpoint D' of D and the robot's
    position at t1. At most one robot can be strictly late by definition
    of t1; more than one means the arithmetic broke down.
    """
    if instance.n < 3:
        raise TooSmallError("single-point plan needs at least 3 robots")
    d_pt = Point2(float(point[0]), float(point[1]))
    robots = instance.robots
    dists = [dist(p, d_pt) for p in robots]
    t1 = sorted(dists)[-2]
    laggards = [i for i, d in enumerate(dists) if d > t1 + EPS_GEO]
    if len(laggards) > 1:
        raise AmbiguousLaggardError(
            "more than one robot beyond the (n-1)-th arrival time"
        )
    meta = {"D": [d_pt.x, d_pt.y], "t1": t1}
    lag = laggards[0] if laggards else -1
    if laggards:
        p_lag, d_lag = robots[lag], dists[lag]
        # Laggard's position at t1 along its straight run to D.
        q = Point2(
            p_lag.x + t1 * (d_pt.x - p_lag.x) / d_lag,
            p_lag.y + t1 * (d_pt.y - p_lag.y) / d_lag,
        )
        d_prime = midpoint(q, d_pt)
        horizon = t1 + dist(d_pt, d_prime)
        meta["D_prime"] = [d_prime.x, d_prime.y]
    trajs = []
    for i, (p, d) in enumerate(zip(robots, dists)):
        wp = [Waypoint(0.0, Point2(*p))]
        if i == lag:
            wp.append(Waypoint(t1, q))
        else:
            if d > 0.0:
                wp.append(Waypoint(d, d_pt))
            if t1 > wp[-1].t:
                wp.append(Waypoint(t1, d_pt))
        if laggards:
            wp.append(Waypoint(horizon, d_prime))
        trajs.append(wp)
    return Schedule(algorithm, trajs, meta)


class OptPointResult(NamedTuple):
    point: Point2
    predicted_cr: float
    omitted: int
    r0: float
    r1: float
    r0_tie: bool


def _f1_objective(s0: Sequence[Point2], c_pt: Point2, r0: float, r1: float):
    def objective(d_pt: Point2) -> float:
        far = max(dist(d_pt, p) for p in s0)
        return max(far / r0, (far + dist(d_pt, c_pt)) / (2.0 * r1))

    return objective


class F1Setup(NamedTuple):
    """What the F = 1 analysis of an instance starts from.

    S0 (s0) is the cheapest leave-one-out subset, with radius r0; c_pt is
    its omitted robot C, r1 the second-smallest leave-one-out radius and
    mec the full enclosing circle, of radius r_S.
    """

    omitted: int
    c_pt: Point2
    s0: list
    r0: float
    r1: float
    mec: Circle

    @property
    def lower_bound(self) -> float:
        """r_S / r_1, or inf when r_1 is zero (the bound degenerates)."""
        return math.inf if self.r1 <= 0.0 else self.mec.radius / self.r1

    def start(self) -> tuple[Point2, float]:
        """K0, the center of S0's circle, and the ratio of a plan targeting it.

        When r0 <= EPS_GEO, S0 is a single location and K0 is the optimum:
        its ratio is that of meeting C halfway from there.
        """
        k0 = minidisk(self.s0).center
        if self.r0 > EPS_GEO:
            return k0, _f1_objective(self.s0, self.c_pt, self.r0, self.r1)(k0)
        if self.r1 <= EPS_GEO:
            return k0, 1.0
        far = max(dist(k0, p) for p in self.s0)
        return k0, (far + dist(k0, self.c_pt)) / (2.0 * self.r1)


def f1_setup(instance: Instance) -> F1Setup:
    """The F1Setup of an instance; raises TooSmallError below 3 robots."""
    order = subset_radius_order(instance)
    omit0, r0 = order[0]
    robots = instance.robots
    s0 = [p for j, p in enumerate(robots) if j != omit0]
    return F1Setup(omit0, robots[omit0], s0, r0, order[1][1], minidisk(robots))


def _min_on_segment(objective, seg, tol: float = 1e-12) -> tuple[Point2, float]:
    """Golden-section minimum of a unimodal objective along a segment.

    Searches the [0, 1] parameter down to width tol, then keeps the best
    of the refined point and both endpoints.
    """
    ax, ay = seg.a
    bx, by = seg.b

    def g(u: float) -> float:
        return objective(Point2(ax + u * (bx - ax), ay + u * (by - ay)))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
    u_mid = (a + b) / 2.0
    val, u = min((g(0.0), 0.0), (g(1.0), 1.0), (g(u_mid), u_mid))
    return Point2(ax + u * (bx - ax), ay + u * (by - ay)), val


def opt_point_f1(instance: Instance) -> OptPointResult:
    """Optimal single target for F = 1 and its predicted competitive ratio.

    Let S0 be the cheapest leave-one-out subset (radius r0), C its omitted
    robot, and r1 the second-smallest leave-one-out radius. The worst-case
    ratio of the single-point plan with target D is

        max( maxdist(D, S0) / r0,  (maxdist(D, S0) + |CD|) / (2 r1) )

    which is minimized either at the center of S0's enclosing circle or on
    an edge of the furthest-point Voronoi diagram of S0. All candidates
    are searched; ties keep the first found.
    """
    s = f1_setup(instance)
    best_pt, best_val = s.start()
    if s.r0 > EPS_GEO:
        objective = _f1_objective(s.s0, s.c_pt, s.r0, s.r1)
        for edge in furthest_voronoi(s.s0, s.r0 * best_val + s.mec.radius):
            cand_pt, cand_val = _min_on_segment(objective, edge.seg)
            if cand_val < best_val:
                best_pt, best_val = cand_pt, cand_val
    r0_tie = abs(s.r1 - s.r0) <= EPS_GEO
    return OptPointResult(best_pt, best_val, s.omitted, s.r0, s.r1, r0_tie)


def plan_opt_f1(instance: Instance) -> Schedule:
    """Optimal plan for exactly one unreliable robot."""
    if instance.f != 1:
        raise WrongBudgetError(f"plan_opt_f1 requires F = 1, got F = {instance.f}")
    res = opt_point_f1(instance)
    sched = plan_single_point(instance, res.point, algorithm="opt-f1")
    sched.meta.update(
        predicted_cr=res.predicted_cr,
        omitted=res.omitted,
        r0=res.r0,
        r1=res.r1,
        r0_tie=res.r0_tie,
    )
    return sched


class TriangleInstance(NamedTuple):
    """Triangle relabeled so the sides satisfy a <= b <= c.

    A is the vertex opposite the shortest side a = |BC|, C opposite the
    longest side c = |AB|. beta is the angle at B (always acute), gamma
    the angle at C, phi the tilt of the optimal target above the midpoint
    of BC.
    """

    A: Point2
    B: Point2
    C: Point2
    a: float
    b: float
    c: float
    tan_beta: float
    tan_phi: float
    lb_case: bool


def triangle_instance(p0, p1, p2) -> TriangleInstance:
    pts = [Point2(float(p[0]), float(p[1])) for p in (p0, p1, p2)]
    opp = [dist(pts[1], pts[2]), dist(pts[0], pts[2]), dist(pts[0], pts[1])]
    order = sorted(range(3), key=lambda i: (opp[i], i))
    a_pt, b_pt, c_pt = (pts[i] for i in order)
    a, b, c = (opp[i] for i in order)
    if a <= EPS_GEO or a + b - c <= EPS_GEO:
        raise DegenerateError("triangle is degenerate (collinear or repeated points)")
    cross = (b_pt.x - a_pt.x) * (c_pt.y - a_pt.y) - (b_pt.y - a_pt.y) * (c_pt.x - a_pt.x)
    area = abs(cross) / 2.0
    tan_beta = 4.0 * area / (a * a + c * c - b * b)
    sin_gamma = 2.0 * area / (a * b)
    lb_case = tan_beta <= sin_gamma
    if lb_case:
        tan_phi = tan_beta
    else:
        num = 2.0 * math.sqrt(max(c * c - (b - a) * (b - a), 0.0))
        den = math.sqrt(max((3.0 * b - a) * (3.0 * b - a) - c * c, 0.0)) + math.sqrt(
            max((b + a) * (b + a) - c * c, 0.0)
        )
        tan_phi = num / den
    return TriangleInstance(a_pt, b_pt, c_pt, a, b, c, tan_beta, tan_phi, lb_case)


class TriOptResult(NamedTuple):
    point: Point2
    predicted_cr: float


def tri_opt_point(tri: TriangleInstance) -> TriOptResult:
    """Closed-form optimal target for a 3-robot instance with F = 1.

    The target sits at height (a/2)*tan(phi) above the midpoint of the
    shortest side BC, on the side of vertex A. When tan(beta) <= sin(gamma)
    the ratio is c/b, otherwise 1/cos(phi).
    """
    mid = midpoint(tri.B, tri.C)
    ux, uy = tri.B.y - tri.C.y, tri.C.x - tri.B.x
    ux, uy = ux / tri.a, uy / tri.a
    if (tri.A.x - mid.x) * ux + (tri.A.y - mid.y) * uy < 0.0:
        ux, uy = -ux, -uy
    h = (tri.a / 2.0) * tri.tan_phi
    d_pt = Point2(mid.x + h * ux, mid.y + h * uy)
    cr = tri.c / tri.b if tri.lb_case else math.sqrt(1.0 + tri.tan_phi * tri.tan_phi)
    return TriOptResult(d_pt, cr)


def plan_tri(instance: Instance) -> Schedule:
    """Closed-form plan for exactly three robots with F = 1."""
    if instance.n < 3:
        raise TooSmallError("plan_tri requires exactly 3 robots")
    if instance.n > 3:
        raise TooLargeError("plan_tri requires exactly 3 robots")
    if instance.f != 1:
        raise WrongBudgetError(f"plan_tri requires F = 1, got F = {instance.f}")
    tri = triangle_instance(*instance.robots)
    res = tri_opt_point(tri)
    sched = plan_single_point(instance, res.point, algorithm="tri")
    sched.meta["predicted_cr"] = res.predicted_cr
    return sched


def plan_centerpoint(instance: Instance) -> Schedule:
    """Everyone to a centerpoint of the start positions; needs F < ceil(n/3)."""
    limit = _ceil_third(instance.n)
    if instance.f >= limit:
        raise BudgetTooLargeError(
            f"centerpoint plan requires F < ceil(n/3) = {limit}, got F = {instance.f}"
        )
    k = centerpoint(instance.robots)
    return _straight_to(instance.robots, k, "centerpoint", {"D": [k.x, k.y]})


def plan_hamsandwich(instance: Instance) -> Schedule:
    """Everyone to the crossing of the two median lines; needs F < ceil(n/2)."""
    limit = _ceil_half(instance.n)
    if instance.f >= limit:
        raise BudgetTooLargeError(
            f"median-line plan requires F < ceil(n/2) = {limit}, got F = {instance.f}"
        )
    _, _, k = median_line_pair(instance.robots)
    return _straight_to(instance.robots, k, "hamsandwich", {"D": [k.x, k.y]})


def _grid_cell(ux: float, uy: float, level: int) -> tuple[int, int]:
    # Cell k covers ((k - 1/2) * 2^level, (k + 1/2) * 2^level] per axis.
    s = 2.0 ** level
    return (math.ceil(ux / s - 0.5), math.ceil(uy / s - 0.5))


def plan_grid(instance: Instance, d_eps: Optional[float] = None) -> Schedule:
    """Hierarchical grid snapping: works for every fault budget.

    Scale the plane by 1/d_eps. At level i = 1, 2, ... each robot moves to
    the center of its level-i cell (side 2^i, cells are half-open so each
    point has one cell), taking max(sqrt(2) * d_eps * 2^(i-1), travel)
    time per level so all robots change levels in lockstep. Cell indices
    are always taken from the initial position. Stops at the first level
    whose cells coincide for all robots. d_eps defaults to 1/64 of the
    closest distinct-pair distance.
    """
    robots = instance.robots
    if all(dist(robots[0], p) <= EPS_GEO for p in robots):
        trajs = [[Waypoint(0.0, Point2(*p))] for p in robots]
        return Schedule("grid", trajs, {"d_eps": d_eps, "levels": 0, "overruns": 0})
    if d_eps is None:
        d_eps = closest_distinct_pair(robots)[2] / 64.0
    if not (isinstance(d_eps, (int, float)) and d_eps > 0.0 and math.isfinite(d_eps)):
        raise BadParamsError("d_eps must be a positive finite number")
    d_eps = float(d_eps)
    scaled = [(p.x / d_eps, p.y / d_eps) for p in robots]

    level = 1
    while len({_grid_cell(ux, uy, level) for ux, uy in scaled}) > 1:
        level += 1
    top = level

    overruns = 0
    trajs = []
    for p, (ux, uy) in zip(robots, scaled):
        wp = [Waypoint(0.0, Point2(*p))]
        t = 0.0
        cur = Point2(*p)
        for i in range(1, top + 1):
            kx, ky = _grid_cell(ux, uy, i)
            side = (2.0 ** i) * d_eps
            target = Point2(kx * side, ky * side)
            budget = SQRT2 * d_eps * 2.0 ** (i - 1)
            travel = dist(cur, target)
            leg = budget
            if travel > budget:
                leg = travel
                if travel > budget * (1.0 + 1e-12):
                    overruns += 1
            if travel > 0.0:
                wp.append(Waypoint(t + travel, target))
            if t + leg > wp[-1].t:
                wp.append(Waypoint(t + leg, target))
            t += leg
            cur = target
        trajs.append(wp)
    meta = {"d_eps": d_eps, "levels": top, "overruns": overruns}
    return Schedule("grid", trajs, meta)


def plan_ssi(instance: Instance) -> Schedule:
    """Repeated contraction toward the closest distinct pair's midpoint.

    Each iteration takes the closest pair of distinct current positions,
    sets D to its midpoint and d to half its distance, and moves every
    robot exactly d toward D for d time units (the pair lands exactly on
    D, merging for good). The count of distinct positions drops every
    iteration, so there are at most n - 1 iterations.
    """
    if instance.n < 2:
        raise TooSmallError("need at least 2 robots")
    robots = instance.robots
    trajs = [[Waypoint(0.0, Point2(*p))] for p in robots]
    cur = [Point2(*p) for p in robots]
    t = 0.0
    iterations = []
    while True:
        try:
            ia, ib, dd = closest_distinct_pair(cur)
        except AllCoincidentError:
            break
        d_pt = midpoint(cur[ia], cur[ib])
        d = dd / 2.0
        iterations.append([d_pt.x, d_pt.y, d])
        t += d
        nxt = []
        for p in cur:
            r = dist(p, d_pt)
            if r < d * (1.0 - 1e-9) - EPS_GEO:
                raise DegenerateError("closest-pair property violated")
            if r <= d * (1.0 + 1e-12):
                q = d_pt
            else:
                q = Point2(p.x + d * (d_pt.x - p.x) / r, p.y + d * (d_pt.y - p.y) / r)
            nxt.append(q)
        for traj, q in zip(trajs, nxt):
            traj.append(Waypoint(t, q))
        cur = nxt
    return Schedule("ssi", trajs, {"iterations": iterations})


def plan_auto(instance: Instance) -> Schedule:
    """Run the first planner in PLANNERS whose budget holds.

    The table is ordered by proven ratio, so this is the planner with the
    smallest bound: mec for F = 0, opt-f1 for F = 1, then centerpoint,
    hamsandwich, ssi and grid.
    """
    row = next(r for r in PLANNERS.values() if r.applies(instance.n, instance.f))
    return row.plan(instance)


class Planner(NamedTuple):
    """One row of PLANNERS.

    applies(n, F) holds at the budgets where plan_auto may pick the row
    and where its bound is proven. bound(instance, schedule, worst_mask)
    is the planner's proven ratio for a schedule whose worst subset is
    worst_mask, or None where none applies; bound_for_report asks it only
    where applies holds, so a schedule relabelled with another planner's
    name gets no bound outside that planner's budget. label and
    bound_desc name the regime and the bound in the bench table.
    """

    plan: Callable[[Instance], Schedule]
    applies: Callable[[int, int], bool]
    bound: Callable[[Instance, Schedule, int], Optional[float]]
    label: str
    bound_desc: str


def _predicted_bound(
    instance: Instance, schedule: Schedule, mask: int
) -> Optional[float]:
    val = schedule.meta.get("predicted_cr")
    return float(val) if val is not None else None


def _grid_bound(instance: Instance, schedule: Schedule, mask: int) -> Optional[float]:
    """2*sqrt(2) * (16 + d_eps / closest-pair distance within the subset)."""
    d_eps = schedule.meta.get("d_eps")
    if not d_eps:
        return None
    pts = [p for i, p in enumerate(instance.robots) if mask >> i & 1]
    try:
        ab = closest_distinct_pair(pts)[2]
    except AllCoincidentError:
        return None
    return 2.0 * SQRT2 * (16.0 + float(d_eps) / ab)


# Ordered by proven ratio. ssi's F + 2 beats grid's 2*sqrt(2)*16 while
# F <= floor(32*sqrt(2)) - 2 = 43.
PLANNERS: dict[str, Planner] = {
    "mec": Planner(
        plan_mec, lambda n, f: f == 0, lambda inst, sched, mask: 1.0,
        "F = 0 (enclosing circle)", "1",
    ),
    "opt-f1": Planner(
        plan_opt_f1, lambda n, f: f == 1, _predicted_bound,
        "F = 1 (optimal target)", "predicted per instance",
    ),
    "tri": Planner(
        plan_tri, lambda n, f: n == 3 and f == 1, _predicted_bound,
        "n = 3, F = 1 (closed form)", "predicted per instance",
    ),
    "centerpoint": Planner(
        plan_centerpoint, lambda n, f: f < _ceil_third(n),
        lambda inst, sched, mask: 2.0,
        "F < ceil(n/3)", "2",
    ),
    "hamsandwich": Planner(
        plan_hamsandwich, lambda n, f: f < _ceil_half(n),
        lambda inst, sched, mask: 2.0 * SQRT2,
        "F < ceil(n/2)", "2*sqrt(2)",
    ),
    "ssi": Planner(
        plan_ssi, lambda n, f: f <= 43,
        lambda inst, sched, mask: inst.f + 2.0,
        "F <= n - 2 (closest pair)", "F + 2",
    ),
    "grid": Planner(
        plan_grid, lambda n, f: True, _grid_bound,
        "F <= n - 2 (grid)", "2*sqrt(2)*(16 + d_eps/|AB|)",
    ),
}
