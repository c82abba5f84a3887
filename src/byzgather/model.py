"""Problem instances, trajectory schedules, and gathering-time evaluation.

An instance is n robot positions plus a fault budget F (at most F robots
may be unreliable). A schedule assigns each robot a piecewise-linear,
unit-speed-bounded trajectory as a list of (time, position) waypoints.
Gathering of a robot subset is detected at the earliest candidate time at
which all pairwise distances within the subset are at most EPS_MEET;
candidate times are the waypoint times plus the interior closest-approach
times of robot pairs.
"""

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import EmptySetError, TooLargeError
from .geom import EPS_GEO, Point2, dist, minidisk

EPS_MEET = 1e-7

# Subset enumeration is exponential; refuse beyond this.
MAX_SUBSET_N = 24


class Waypoint(NamedTuple):
    t: float
    pos: Point2


@dataclass(frozen=True)
class Instance:
    """Robot start positions and the fault budget F."""

    robots: tuple[Point2, ...]
    f: int

    def __post_init__(self):
        n = len(self.robots)
        if n < 2:
            raise ValueError("instance needs at least two robots")
        if not isinstance(self.f, int) or isinstance(self.f, bool):
            raise ValueError("F must be an integer")
        if not 0 <= self.f <= n - 2:
            raise ValueError(f"F must satisfy 0 <= F <= n-2, got F={self.f} with n={n}")
        for p in self.robots:
            if not (math.isfinite(p[0]) and math.isfinite(p[1])):
                raise ValueError("robot coordinates must be finite")

    @property
    def n(self) -> int:
        return len(self.robots)


def make_instance(robots, f: int) -> Instance:
    pts = tuple(Point2(float(p[0]), float(p[1])) for p in robots)
    return Instance(pts, f)


@dataclass
class Schedule:
    """Per-robot waypoint trajectories produced by one planner."""

    algorithm: str
    trajectories: list[list[Waypoint]]
    meta: dict = field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return max(tr[-1].t for tr in self.trajectories)


def position_at(trajectory: Sequence[Waypoint], t: float) -> Point2:
    """Position along a waypoint trajectory at time t.

    Clamped to the endpoints outside the covered range; linear in between.
    """
    if not trajectory:
        raise EmptySetError("empty trajectory")
    if t <= trajectory[0].t:
        return trajectory[0].pos
    for k in range(1, len(trajectory)):
        t1, p1 = trajectory[k]
        if t <= t1:
            t0, p0 = trajectory[k - 1]
            if t1 - t0 <= 0.0:
                return p1
            u = (t - t0) / (t1 - t0)
            return Point2(p0.x + u * (p1.x - p0.x), p0.y + u * (p1.y - p0.y))
    return trajectory[-1].pos


def validate_schedule(instance: Instance, schedule: Schedule) -> list[str]:
    """Check a schedule against the instance; returns violation strings.

    Checks: one trajectory per robot, finite waypoints, start at the
    robot's position at t = 0, non-decreasing timestamps, and speed at
    most 1 on every leg. An empty list means the schedule is valid.
    """
    out: list[str] = []
    trajs = schedule.trajectories
    if len(trajs) != instance.n:
        out.append(
            f"expected {instance.n} trajectories, got {len(trajs)}"
        )
        return out
    for i, traj in enumerate(trajs):
        if not traj:
            out.append(f"robot {i}: empty trajectory")
            continue
        finite = [all(map(math.isfinite, (t, *p))) for t, p in traj]
        if not all(finite):
            out.append(f"robot {i}: non-finite waypoint {finite.index(False)}")
            continue
        t0, p0 = traj[0]
        if abs(t0) > EPS_GEO:
            out.append(f"robot {i}: first waypoint at t={t0!r}, expected t=0")
        if dist(p0, instance.robots[i]) > EPS_GEO:
            out.append(f"robot {i}: starts away from its instance position")
        for k in range(1, len(traj)):
            dt = traj[k].t - traj[k - 1].t
            if dt < -EPS_GEO:
                out.append(f"robot {i}: non-monotone timestamps at waypoint {k}")
                continue
            d = dist(traj[k].pos, traj[k - 1].pos)
            if d > max(dt, 0.0) * (1.0 + EPS_GEO) + EPS_GEO:
                out.append(
                    f"robot {i}: speed violation on leg {k} "
                    f"(moved {d:.12g} in {dt:.12g})"
                )
    return out


class ScheduleTimeline:
    """Precomputed meeting structure for fast per-subset gather queries.

    Candidate times are all waypoint times plus, for every robot pair on
    every inter-event interval (where all robots move with constant
    velocity), the interior time of closest approach whenever that
    approach comes within EPS_MEET. At each candidate the full pairwise
    coincidence relation is packed into one big integer (bit i*n + j set
    iff robots i and j are within EPS_MEET), so a subset's gather test is
    a couple of mask operations per candidate.
    """

    def __init__(self, schedule: Schedule):
        trajs = schedule.trajectories
        if not trajs:
            raise EmptySetError("schedule has no trajectories")
        self.n = len(trajs)
        events = sorted({wp.t for tr in trajs for wp in tr})
        if not events:
            events = [0.0]
        cands = set(events)
        eps2 = EPS_MEET * EPS_MEET
        for a in range(len(events) - 1):
            t0, t1 = events[a], events[a + 1]
            span = t1 - t0
            if span <= 0.0:
                continue
            pos0 = [position_at(tr, t0) for tr in trajs]
            pos1 = [position_at(tr, t1) for tr in trajs]
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    rx = pos0[i].x - pos0[j].x
                    ry = pos0[i].y - pos0[j].y
                    vx = (pos1[i].x - pos1[j].x - rx) / span
                    vy = (pos1[i].y - pos1[j].y - ry) / span
                    vv = vx * vx + vy * vy
                    if vv <= 0.0:
                        continue
                    s = -(rx * vx + ry * vy) / vv
                    if s <= 0.0 or s >= span:
                        continue
                    mx = rx + s * vx
                    my = ry + s * vy
                    if mx * mx + my * my <= eps2:
                        cands.add(t0 + s)
        self.times: list[float] = sorted(cands)
        self.pair_masks: list[int] = []
        m = self.n
        for t in self.times:
            pos = [position_at(tr, t) for tr in trajs]
            bits = 0
            for i in range(m):
                row = 0
                for j in range(m):
                    if dist(pos[i], pos[j]) <= EPS_MEET:
                        row |= 1 << j
                bits |= row << (i * m)
            self.pair_masks.append(bits)

    def gather_time(self, subset: int) -> Optional[float]:
        """Earliest candidate time at which the subset is gathered, else None."""
        if subset <= 0:
            raise EmptySetError("subset mask must be non-empty")
        if subset >> self.n:
            raise ValueError(f"subset mask {subset:#x} exceeds {self.n} robots")
        if subset & (subset - 1) == 0:
            return 0.0
        m = self.n
        req = 0
        for i in range(m):
            if subset >> i & 1:
                req |= subset << (i * m)
        for t, bits in zip(self.times, self.pair_masks):
            if req & ~bits == 0:
                return t
        return None


def gather_time(schedule: Schedule, subset: int) -> Optional[float]:
    """Earliest time the subset's robots are pairwise within EPS_MEET."""
    return ScheduleTimeline(schedule).gather_time(subset)


def optimal_gather_time(instance: Instance, subset: int) -> float:
    """Offline optimum for the subset: radius of its minimum enclosing circle."""
    if subset <= 0:
        raise EmptySetError("subset mask must be non-empty")
    pts = [instance.robots[i] for i in range(instance.n) if subset >> i & 1]
    if not pts:
        raise EmptySetError("subset selects no robots")
    return minidisk(pts).radius


def enumerate_reliable_subsets(instance: Instance) -> list[int]:
    """All bitmasks of candidate reliable sets, in ascending mask order.

    A candidate reliable set has at least max(2, n - F) robots. Refuses
    instances with more than MAX_SUBSET_N robots.
    """
    n = instance.n
    if n > MAX_SUBSET_N:
        raise TooLargeError(f"subset enumeration limited to n <= {MAX_SUBSET_N}")
    need = max(2, n - instance.f)
    return [m for m in range(1 << n) if m.bit_count() >= need]


def dumps(obj) -> str:
    """Shared JSON writer so identical objects serialize to identical bytes."""
    return json.dumps(obj, indent=2) + "\n"


def instance_to_obj(instance: Instance) -> dict:
    return {
        "robots": [[p.x, p.y] for p in instance.robots],
        "F": instance.f,
    }


def _as_number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def instance_from_obj(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    if "robots" not in obj or "F" not in obj:
        raise ValueError("instance JSON needs 'robots' and 'F'")
    robots = obj["robots"]
    f = obj["F"]
    if not isinstance(robots, list):
        raise ValueError("'robots' must be a list of [x, y] pairs")
    pts = []
    for item in robots:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError("each robot must be an [x, y] pair")
        pts.append(Point2(_as_number(item[0], "x"), _as_number(item[1], "y")))
    if isinstance(f, bool) or not isinstance(f, int):
        raise ValueError("'F' must be an integer")
    return Instance(tuple(pts), f)


def schedule_to_obj(schedule: Schedule) -> dict:
    obj = {
        "algorithm": schedule.algorithm,
        "trajectories": [
            [[wp.t, wp.pos.x, wp.pos.y] for wp in traj]
            for traj in schedule.trajectories
        ],
    }
    if schedule.meta:
        obj["meta"] = schedule.meta
    return obj


def schedule_from_obj(obj) -> Schedule:
    if not isinstance(obj, dict):
        raise ValueError("schedule JSON must be an object")
    if "algorithm" not in obj or "trajectories" not in obj:
        raise ValueError("schedule JSON needs 'algorithm' and 'trajectories'")
    alg = obj["algorithm"]
    if not isinstance(alg, str):
        raise ValueError("'algorithm' must be a string")
    raw = obj["trajectories"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("'trajectories' must be a non-empty list")
    trajs = []
    for row in raw:
        if not isinstance(row, list) or not row:
            raise ValueError("each trajectory must be a non-empty list")
        traj = []
        for item in row:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ValueError("each waypoint must be a [t, x, y] triple")
            t = _as_number(item[0], "t")
            x = _as_number(item[1], "x")
            y = _as_number(item[2], "y")
            traj.append(Waypoint(t, Point2(x, y)))
        trajs.append(traj)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")
    return Schedule(alg, trajs, meta)
