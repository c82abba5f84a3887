"""Shared helpers for the test suite: independent oracles and generators.

Everything here is deliberately written from first principles (brute force
where possible) so library results are checked against code that shares no
logic with the implementation.
"""

import math
import random

import numpy as np

from byzgather import Point2


def random_points(rng: random.Random, n: int, span: float = 100.0):
    return [(rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(n)]


def brute_mec(points):
    """Smallest enclosing circle by exhaustive candidate enumeration.

    Candidates: midpoints of all pairs (radius = half distance) and
    circumcircles of all triples. O(n^4) but independent of the library.
    Returns (cx, cy, r).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("no points")
    best = None

    def covers(cx, cy, r):
        rr = r + 1e-9
        return all((x - cx) ** 2 + (y - cy) ** 2 <= rr * rr for x, y in pts)

    for x, y in pts:
        if covers(x, y, 0.0):
            return (x, y, 0.0)
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            cx = (pts[i][0] + pts[j][0]) / 2.0
            cy = (pts[i][1] + pts[j][1]) / 2.0
            r = math.hypot(pts[i][0] - cx, pts[i][1] - cy)
            if covers(cx, cy, r) and (best is None or r < best[2]):
                best = (cx, cy, r)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                (ax, ay), (bx, by), (cx_, cy_) = pts[i], pts[j], pts[k]
                d = 2.0 * (ax * (by - cy_) + bx * (cy_ - ay) + cx_ * (ay - by))
                if abs(d) < 1e-12:
                    continue
                ux = (
                    (ax * ax + ay * ay) * (by - cy_)
                    + (bx * bx + by * by) * (cy_ - ay)
                    + (cx_ * cx_ + cy_ * cy_) * (ay - by)
                ) / d
                uy = (
                    (ax * ax + ay * ay) * (cx_ - bx)
                    + (bx * bx + by * by) * (ax - cx_)
                    + (cx_ * cx_ + cy_ * cy_) * (bx - ax)
                ) / d
                r = math.hypot(ax - ux, ay - uy)
                if covers(ux, uy, r) and (best is None or r < best[2]):
                    best = (ux, uy, r)
    return best


def valid_centerpoint(pts, K, margin: float = 1e-9) -> bool:
    """Exact test: every open half-plane avoiding K has <= floor(2n/3) points.

    Sweeps the critical normal directions (perpendiculars of K->p_i) plus
    interval midpoints; the strictly-positive count is piecewise constant
    between criticals, so this family is exhaustive.
    """
    n = len(pts)
    lim = (2 * n) // 3
    angs = []
    for p in pts:
        if math.hypot(p[0] - K[0], p[1] - K[1]) > margin:
            angs.append(math.atan2(p[1] - K[1], p[0] - K[0]))
    if not angs:
        return True
    crit = sorted(
        set((a + math.pi / 2) % (2 * math.pi) for a in angs)
        | set((a - math.pi / 2) % (2 * math.pi) for a in angs)
    )
    dirs = list(crit)
    m = len(crit)
    for i in range(m):
        a0 = crit[i]
        a1 = crit[(i + 1) % m] + (2 * math.pi if i == m - 1 else 0.0)
        dirs.append((a0 + a1) / 2.0)
    for u in dirs:
        ux, uy = math.cos(u), math.sin(u)
        cnt = sum(1 for p in pts if (p[0] - K[0]) * ux + (p[1] - K[1]) * uy > margin)
        if cnt > lim:
            return False
    return True


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def points_close(p, q, tol=1e-9):
    return math.hypot(p[0] - q[0], p[1] - q[1]) <= tol


EQUILATERAL = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
LINE3 = [(0.0, 0.0), (0.1, 0.0), (5.0, 0.0)]
TRI_202 = [(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def as_points(coords):
    return [Point2(x, y) for x, y in coords]


def brute_f1_min(points, steps: int = 200):
    """Lattice minimum of the F = 1 single-target objective.

    S0 is the cheapest leave-one-out subset (radii by brute_mec, ties by
    omitted index), r0 its radius, C the omitted robot and r1 the
    second-smallest leave-one-out radius. A plan targeting D has worst
    ratio max(far / r0, (far + |CD|) / (2 r1)), with far the largest
    distance from D to S0. The minimum lies in the robots' bounding box:
    clamping D into the box moves it no farther from any robot. The box
    is sampled at (steps + 1)^2 lattice points. Returns (value, r0, r1).
    """
    pts = [(float(x), float(y)) for x, y in points]
    radii = sorted(
        (brute_mec(pts[:i] + pts[i + 1 :])[2], i) for i in range(len(pts))
    )
    (r0, omit), (r1, _) = radii[0], radii[1]
    s0 = pts[:omit] + pts[omit + 1 :]
    cx, cy = pts[omit]
    xs = np.linspace(min(x for x, _ in pts), max(x for x, _ in pts), steps + 1)
    ys = np.linspace(min(y for _, y in pts), max(y for _, y in pts), steps + 1)
    gx, gy = np.meshgrid(xs, ys)
    far = np.zeros_like(gx)
    for x, y in s0:
        far = np.maximum(far, np.hypot(gx - x, gy - y))
    vals = np.maximum(far / r0, (far + np.hypot(gx - cx, gy - cy)) / (2.0 * r1))
    return float(vals.min()), r0, r1
