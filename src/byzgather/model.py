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
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import BadParamsError, EmptySetError, TooLargeError
from .geom import EPS_GEO, Point2, _circle_two, dist, minidisk

EPS_MEET = 1e-7

# Subset enumeration is exponential; refuse beyond this.
MAX_SUBSET_N = 24

# Largest |robot coordinate|: float spacing there is 1.2e-10, about EPS_GEO / 8
# (beyond 2**23 adjacent floats lie further apart than EPS_GEO).
MAX_COORD = 1e6


class Waypoint(NamedTuple):
    t: float
    pos: Point2


@dataclass(frozen=True)
class Instance:
    """Robot start positions (Point2 floats within ±MAX_COORD) and the fault budget F."""

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
        pts = []
        for x, y in self.robots:
            p = Point2(finite_number(x, "x"), finite_number(y, "y"))
            if abs(p.x) > MAX_COORD or abs(p.y) > MAX_COORD:
                raise ValueError(f"robot coordinates must lie within ±{MAX_COORD:g}")
            pts.append(p)
        object.__setattr__(self, "robots", tuple(pts))

    @property
    def n(self) -> int:
        return len(self.robots)


def make_instance(robots, f: int) -> Instance:
    return Instance(tuple(robots), f)


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
    approach comes within EPS_MEET. Robot positions are computed once per
    candidate time. At each candidate the full pairwise coincidence
    relation is packed into one big integer (bit i*n + j set iff robots i
    and j are within EPS_MEET), so a subset's gather test is a couple of
    mask operations per candidate.
    """

    def __init__(self, schedule: Schedule):
        trajs = schedule.trajectories
        if not trajs:
            raise EmptySetError("schedule has no trajectories")
        n = self.n = len(trajs)
        events = sorted({wp.t for tr in trajs for wp in tr}) or [0.0]
        at = {t: [position_at(tr, t) for tr in trajs] for t in events}
        eps2 = EPS_MEET * EPS_MEET
        for t0, t1 in zip(events, events[1:]):
            span = t1 - t0
            pos0, pos1 = at[t0], at[t1]
            for i in range(n):
                for j in range(i + 1, n):
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
                    t = t0 + s
                    if mx * mx + my * my <= eps2 and t not in at:
                        at[t] = [position_at(tr, t) for tr in trajs]
        self.times: list[float] = sorted(at)
        self.pair_masks: list[int] = []
        for t in self.times:
            pos = at[t]
            bits = 0
            for i in range(n):
                bits |= 1 << (i * n + i)
                for j in range(i + 1, n):
                    if dist(pos[i], pos[j]) <= EPS_MEET:
                        bits |= 1 << (i * n + j) | 1 << (j * n + i)
            self.pair_masks.append(bits)

    def gather_time(self, subset: int) -> Optional[float]:
        """Earliest candidate time at which the subset is gathered, else None."""
        _check_mask(subset, self.n)
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

    def gather_table(self, k: int) -> np.ndarray:
        """gather_time of every mask over the first k robots, as 2**k floats.

        Entry m is the earliest candidate time at which subset m is
        gathered, inf if it never is, and 0.0 for a single robot (and for
        the unused empty mask). Uses the same times and pair_masks as
        gather_time, so every entry equals its result exactly.
        """
        size = _table_size(k)
        if k > self.n:
            raise ValueError(f"gather_table over {k} robots, schedule has {self.n}")
        n = self.n
        table = np.full(size, np.inf)
        # met[m]: every pair in m within EPS_MEET now; filled one top bit at a
        # time, mask m | 1 << i from m and robot i's neighbours among lower bits.
        met = np.ones(size, dtype=bool)
        lower = np.arange(size >> 1, dtype=np.int32)
        previous = None
        for t, bits in zip(self.times, self.pair_masks):
            if bits == previous:
                continue
            previous = bits
            for i in range(1, k):
                h = 1 << i
                apart = ~(bits >> (i * n)) & (h - 1)
                np.logical_and(met[:h], (lower[:h] & apart) == 0, out=met[h : 2 * h])
            table[met & (table == np.inf)] = t
            if met[-1]:
                break
        table[0] = 0.0
        table[1 << np.arange(k)] = 0.0
        return table


def _table_size(n: int) -> int:
    """2**n, the length of a table indexed by subset mask; TooLargeError past MAX_SUBSET_N."""
    if n > MAX_SUBSET_N:
        raise TooLargeError(f"subset enumeration limited to n <= {MAX_SUBSET_N}")
    return 1 << n


def _check_mask(subset: int, n: int) -> None:
    """EmptySetError for a mask <= 0; ValueError for any bit at or above n."""
    if subset <= 0:
        raise EmptySetError("subset mask must be non-empty")
    if subset >> n:
        raise ValueError(f"subset mask {subset:#x} exceeds {n} robots")


def optimal_gather_time(instance: Instance, subset: int) -> float:
    """Offline optimum for the subset: radius of its minimum enclosing circle."""
    _check_mask(subset, instance.n)
    return minidisk([p for i, p in enumerate(instance.robots) if subset >> i & 1]).radius


def enumerate_reliable_subsets(instance: Instance) -> list[int]:
    """All bitmasks of candidate reliable sets, in ascending mask order.

    A candidate reliable set has at least max(2, n - F) robots. Refuses
    instances with more than MAX_SUBSET_N robots.
    """
    need = max(2, instance.n - instance.f)
    return [m for m in range(_table_size(instance.n)) if m.bit_count() >= need]


def radius_table(instance: Instance) -> np.ndarray:
    """optimal_gather_time of every subset mask, as 2**n floats.

    A minimum enclosing circle rests on at most three of its points
    (Welzl 1991), so each entry is the smallest of the candidate circles
    that cover the subset: one zero-radius circle per robot, geom's circle
    on each pair and the circumcircle of each triple, where a circle
    covers the robots within its radius + EPS_GEO. A superset-min
    transform (Yates 1969) spreads each circle's radius to every subset of
    its cover in n passes. Circumcenters are computed relative to an end
    of the triangle's shortest side, which keeps them accurate on tight
    clusters far from the origin; each radius is the largest distance to
    the three points, so every support point lies inside its own circle.
    Entry 0 is unused; single robots get 0.0.
    """
    size = _table_size(instance.n)
    n = instance.n
    xs = np.array([p.x for p in instance.robots])
    ys = np.array([p.y for p in instance.robots])
    pairs = [_circle_two(p, q) for p, q in combinations(instance.robots, 2)]
    tri = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    nxt = np.roll(tri, -1, 1)
    side = (xs[nxt] - xs[tri]) ** 2 + (ys[nxt] - ys[tri]) ** 2
    tri = np.take_along_axis(tri, (side.argmin(1)[:, None] + np.arange(3)) % 3, 1)
    ox, oy = xs[tri[:, 0]], ys[tri[:, 0]]
    bx, by = xs[tri[:, 1]] - ox, ys[tri[:, 1]] - oy
    cx, cy = xs[tri[:, 2]] - ox, ys[tri[:, 2]] - oy
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    with np.errstate(all="ignore"):
        d = 2.0 * (bx * cy - by * cx)
        ux = ox + (cy * bb - by * cc) / d
        uy = oy + (bx * cc - cx * bb) / d
    ok = np.isfinite(ux) & np.isfinite(uy)
    tri, ux, uy = tri[ok], ux[ok], uy[ok]
    tri_r = np.hypot(ux[:, None] - xs[tri], uy[:, None] - ys[tri]).max(1)
    centers_x = np.concatenate([xs, [c.center.x for c in pairs], ux])
    centers_y = np.concatenate([ys, [c.center.y for c in pairs], uy])
    radii = np.concatenate([np.zeros(n), [c.radius for c in pairs], tri_r])
    cover = np.hypot(centers_x[:, None] - xs, centers_y[:, None] - ys) <= radii[:, None] + EPS_GEO
    table = np.full(size, np.inf)
    np.minimum.at(table, cover @ (1 << np.arange(n)), radii)
    for i in range(n):
        halves = table.reshape(-1, 2, 1 << i)
        np.minimum(halves[:, 0], halves[:, 1], out=halves[:, 0])
    return table


def dumps(obj) -> str:
    """Shared JSON writer so identical objects serialize to identical bytes."""
    return json.dumps(obj, indent=2) + "\n"


def instance_to_obj(instance: Instance) -> dict:
    return {
        "robots": [[p.x, p.y] for p in instance.robots],
        "F": instance.f,
    }


def finite_number(v, what: str, error=ValueError) -> float:
    """An untrusted JSON or library value as a finite float.

    Refuses bool, non-numbers, ints beyond float range, NaN and ±inf.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise error(f"{what} must be a number")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise error(f"{what} must be finite, got {x!r}")
    return x


def positive_number(v, what: str) -> float:
    """A tuning parameter as a float; BadParamsError unless positive and finite."""
    x = finite_number(v, what, BadParamsError)
    if x <= 0.0:
        raise BadParamsError(f"{what} must be positive, got {x!r}")
    return x


def instance_from_obj(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    if "robots" not in obj or "F" not in obj:
        raise ValueError("instance JSON needs 'robots' and 'F'")
    robots = obj["robots"]
    if not isinstance(robots, list):
        raise ValueError("'robots' must be a list of [x, y] pairs")
    for item in robots:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError("each robot must be an [x, y] pair")
    return Instance(tuple(robots), obj["F"])


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
            t, x, y = (finite_number(v, what) for v, what in zip(item, "txy"))
            traj.append(Waypoint(t, Point2(x, y)))
        trajs.append(traj)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")
    return Schedule(alg, trajs, meta)
