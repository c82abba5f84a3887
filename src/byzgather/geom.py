"""Planar primitives for the gathering planner.

Provides the minimum enclosing circle, its boundary support set, the
furthest-point Voronoi diagram restricted to a clamp disk, centerpoints,
and median-line crossings. Distances are Euclidean; comparisons use the
absolute tolerance EPS_GEO (input coordinates are of moderate magnitude,
at most 1e6, enforced by model.Instance).
"""

import math
import random
from typing import NamedTuple, Optional, Sequence

from .errors import AllCoincidentError, DegenerateError, EmptySetError

EPS_GEO = 1e-9

# Fixed shuffle seed so minidisk (and everything downstream) is byte-reproducible.
_MEC_SEED = 0x2545F4914F6CDD1D


class Point2(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point2
    radius: float


class LineSeg(NamedTuple):
    a: Point2
    b: Point2


class FvdEdge(NamedTuple):
    """Edge of the furthest-point Voronoi diagram.

    seg is the clamped portion of the bisector of the two sites on which
    both are the common furthest sites; site_a < site_b index into the
    original point list (first occurrence for duplicates).
    """

    site_a: int
    site_b: int
    seg: LineSeg


def dist(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def midpoint(p, q) -> Point2:
    return Point2((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def _circle_two(p: Point2, q: Point2) -> Circle:
    c = midpoint(p, q)
    return Circle(c, dist(p, q) / 2.0)


def _circumcircle(a: Point2, b: Point2, c: Point2) -> Optional[Circle]:
    # Standard circumcenter via the perpendicular-bisector linear system.
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < EPS_GEO * EPS_GEO:
        return None
    aa = a[0] * a[0] + a[1] * a[1]
    bb = b[0] * b[0] + b[1] * b[1]
    cc = c[0] * c[0] + c[1] * c[1]
    ux = (aa * (b[1] - c[1]) + bb * (c[1] - a[1]) + cc * (a[1] - b[1])) / d
    uy = (aa * (c[0] - b[0]) + bb * (a[0] - c[0]) + cc * (b[0] - a[0])) / d
    center = Point2(ux, uy)
    return Circle(center, max(dist(center, a), dist(center, b), dist(center, c)))


def _in_circle(c: Circle, p: Point2) -> bool:
    return dist(c.center, p) <= c.radius + EPS_GEO


def _widest_pair_circle(points: Sequence[Point2]) -> Circle:
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            cand = _circle_two(points[i], points[j])
            if best is None or cand.radius > best.radius:
                best = cand
    return best


def minidisk(points: Sequence[Point2]) -> Circle:
    """Minimum enclosing circle of the given points.

    Randomized incremental (move-to-front style) construction, expected
    linear time. The shuffle uses a fixed seed so results are reproducible.
    """
    pts = [Point2(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise EmptySetError("minidisk needs at least one point")
    rng = random.Random(_MEC_SEED)
    rng.shuffle(pts)

    circle = Circle(pts[0], 0.0)
    for i in range(1, len(pts)):
        if _in_circle(circle, pts[i]):
            continue
        circle = Circle(pts[i], 0.0)
        for j in range(i):
            if _in_circle(circle, pts[j]):
                continue
            circle = _circle_two(pts[i], pts[j])
            for k in range(j):
                if _in_circle(circle, pts[k]):
                    continue
                c3 = _circumcircle(pts[i], pts[j], pts[k])
                if c3 is None:
                    # Collinear triple: the widest two-point circle covers it.
                    c3 = _widest_pair_circle((pts[i], pts[j], pts[k]))
                circle = c3
    return circle


def support_set(points: Sequence[Point2], circle: Circle) -> list[int]:
    """Indices of points lying on the boundary of the enclosing circle."""
    out = []
    for i, p in enumerate(points):
        if abs(dist(circle.center, p) - circle.radius) <= EPS_GEO:
            out.append(i)
    return out


def closest_distinct_pair(points: Sequence[Point2]) -> tuple[int, int, float]:
    """Closest pair among points at distance > EPS_GEO apart.

    Returns (i, j, distance) with i < j; ties resolved by lexicographic
    (i, j). Raises AllCoincidentError when no two points are distinct.
    """
    if not points:
        raise EmptySetError("closest_distinct_pair needs points")
    best = None
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            d = dist(points[i], points[j])
            if d <= EPS_GEO:
                continue
            if best is None or d < best[2]:
                best = (i, j, d)
    if best is None:
        raise AllCoincidentError("all points coincide")
    return best


def _dedup(points: Sequence[Point2]) -> list[tuple[Point2, int]]:
    """Collapse points within EPS_GEO to their first occurrence."""
    reps: list[tuple[Point2, int]] = []
    for idx, p in enumerate(points):
        p = Point2(float(p[0]), float(p[1]))
        if not any(dist(p, r) <= EPS_GEO for r, _ in reps):
            reps.append((p, idx))
    return reps


def furthest_voronoi(points: Sequence[Point2], clamp_radius: float) -> list[FvdEdge]:
    """Furthest-point Voronoi edges clamped to a disk around the MEC center.

    Duplicate points (within EPS_GEO) are collapsed to their first
    occurrence. Each edge is the part of one pair's bisector on which the
    pair are the common furthest sites; edges shorter than EPS_GEO are
    dropped. Raises DegenerateError for fewer than 2 distinct points.
    """
    reps = _dedup(points)
    if len(reps) < 2:
        raise DegenerateError("furthest_voronoi needs at least 2 distinct points")
    cc = minidisk(points).center
    edges: list[FvdEdge] = []
    m = len(reps)
    for a in range(m):
        pa, ia = reps[a]
        for b in range(a + 1, m):
            pb, ib = reps[b]
            # Bisector of pa, pb: x(s) = mid + s*dl, dl = rot90(pb - pa).
            mid = midpoint(pa, pb)
            dlx, dly = pa[1] - pb[1], pb[0] - pa[0]
            # Clamp-disk constraint: |mid + s*dl - cc|^2 <= clamp_radius^2.
            ex, ey = mid[0] - cc[0], mid[1] - cc[1]
            qa = dlx * dlx + dly * dly
            qb = 2.0 * (ex * dlx + ey * dly)
            qc = ex * ex + ey * ey - clamp_radius * clamp_radius
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0 or qa <= 0.0:
                continue
            rt = math.sqrt(disc)
            lo = (-qb - rt) / (2.0 * qa)
            hi = (-qb + rt) / (2.0 * qa)
            ok = True
            for k in range(m):
                if k == a or k == b:
                    continue
                pk = reps[k][0]
                # Keep s with |x(s)-pa| >= |x(s)-pk| (pa at least as far as
                # pk); linear in s: coef*s + base >= 0.
                coef = 2.0 * ((pk[0] - pa[0]) * dlx + (pk[1] - pa[1]) * dly)
                base = (
                    2.0 * ((pk[0] - pa[0]) * mid[0] + (pk[1] - pa[1]) * mid[1])
                    + (pa[0] * pa[0] + pa[1] * pa[1])
                    - (pk[0] * pk[0] + pk[1] * pk[1])
                )
                if abs(coef) <= EPS_GEO * EPS_GEO:
                    if base < 0.0:
                        ok = False
                        break
                    continue
                bound = -base / coef
                if coef > 0.0:
                    lo = max(lo, bound)
                else:
                    hi = min(hi, bound)
                if lo > hi:
                    ok = False
                    break
            if not ok or lo > hi:
                continue
            p_lo = Point2(mid[0] + lo * dlx, mid[1] + lo * dly)
            p_hi = Point2(mid[0] + hi * dlx, mid[1] + hi * dly)
            if dist(p_lo, p_hi) <= EPS_GEO:
                continue
            edges.append(FvdEdge(min(ia, ib), max(ia, ib), LineSeg(p_lo, p_hi)))
    return edges


def _bbox(points: Sequence[Point2]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _clip_halfplane(poly: list[Point2], nx: float, ny: float, c: float) -> list[Point2]:
    """Keep the part of poly with nx*x + ny*y <= c (Sutherland-Hodgman)."""
    out: list[Point2] = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        f_cur = nx * cur[0] + ny * cur[1] - c
        f_nxt = nx * nxt[0] + ny * nxt[1] - c
        if f_cur <= 0.0:
            out.append(cur)
        if (f_cur < 0.0 < f_nxt) or (f_nxt < 0.0 < f_cur):
            t = f_cur / (f_cur - f_nxt)
            out.append(
                Point2(cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


def _poly_centroid(poly: list[Point2]) -> Point2:
    a2 = 0.0
    cx = cy = 0.0
    m = len(poly)
    for i in range(m):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % m]
        cross = x0 * y1 - x1 * y0
        a2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(a2) < EPS_GEO * EPS_GEO:
        # Zero-area region: average the vertices.
        return Point2(sum(p[0] for p in poly) / m, sum(p[1] for p in poly) / m)
    return Point2(cx / (3.0 * a2), cy / (3.0 * a2))


def _collinear_centerpoint(points: Sequence[Point2]) -> Point2:
    """1-D centerpoint of (nearly) collinear points via order statistics."""
    p0 = points[0]
    far = max(points, key=lambda q: dist(p0, q))
    d = dist(p0, far)
    ux, uy = (far[0] - p0[0]) / d, (far[1] - p0[1]) / d
    ts = sorted((q[0] - p0[0]) * ux + (q[1] - p0[1]) * uy for q in points)
    n = len(ts)
    k = -(-n // 3)  # ceil(n/3)
    t = (ts[k - 1] + ts[n - k]) / 2.0
    return Point2(p0[0] + t * ux, p0[1] + t * uy)


def centerpoint(points: Sequence[Point2]) -> Point2:
    """A point K such that every open half-plane avoiding K has <= floor(2n/3) points.

    Computed by intersecting, over lines through point pairs, the closed
    half-planes holding at least floor(2n/3)+1 points; the region is
    non-empty by the centerpoint theorem and its centroid is returned.
    A line whose two closed sides both qualify pins the region onto the
    line itself, so those degenerate (point or segment) regions are solved
    directly instead of by polygon clipping. Collinear inputs use the 1-D
    order-statistic rule.
    """
    if not points:
        raise EmptySetError("centerpoint needs points")
    pts = [Point2(float(p[0]), float(p[1])) for p in points]
    n = len(pts)
    reps = _dedup(pts)
    if len(reps) == 1:
        return reps[0][0]

    thr = (2 * n) // 3 + 1
    halves: list[tuple[float, float, float]] = []  # keep nx*x + ny*y <= c
    on_lines: list[tuple[Point2, float, float]] = []  # (anchor, ux, uy)
    collinear = True
    for a in range(len(reps)):
        pa = reps[a][0]
        for b in range(a + 1, len(reps)):
            pb = reps[b][0]
            nx, ny = pb[1] - pa[1], pa[0] - pb[0]
            norm = math.hypot(nx, ny)
            nx, ny = nx / norm, ny / norm
            c = nx * pa[0] + ny * pa[1]
            cpos = cneg = 0
            for q in pts:
                s = nx * q[0] + ny * q[1] - c
                if s >= -EPS_GEO:
                    cpos += 1
                if s <= EPS_GEO:
                    cneg += 1
            if cpos < n or cneg < n:
                collinear = False
            if cpos >= thr and cneg >= thr:
                on_lines.append((pa, (pb[0] - pa[0]) / norm, (pb[1] - pa[1]) / norm))
            elif cpos >= thr:
                halves.append((-nx, -ny, -c))
            elif cneg >= thr:
                halves.append((nx, ny, c))
    if collinear:
        return _collinear_centerpoint(pts)

    def violation(q: Point2) -> float:
        worst = 0.0
        for hx, hy, hc in halves:
            worst = max(worst, hx * q[0] + hy * q[1] - hc)
        return worst

    x0, y0, x1, y1 = _bbox(pts)
    span = max(x1 - x0, y1 - y0, 1.0)

    if on_lines:
        # Region confined to a line; two independent lines pin a point.
        best = (0.0, -1, -1)
        for i in range(len(on_lines)):
            for j in range(i + 1, len(on_lines)):
                cr = abs(on_lines[i][1] * on_lines[j][2] - on_lines[i][2] * on_lines[j][1])
                if cr > best[0]:
                    best = (cr, i, j)
        if best[0] > EPS_GEO:
            _, i, j = best
            ai, uxi, uyi = on_lines[i]
            aj, uxj, uyj = on_lines[j]
            den = uxi * uyj - uyi * uxj
            t = ((aj[0] - ai[0]) * uyj - (aj[1] - ai[1]) * uxj) / den
            return Point2(ai[0] + t * uxi, ai[1] + t * uyi)
        # Single line direction: clip it to a segment and take the midpoint.
        anchor, ux, uy = on_lines[0]
        lo, hi = -4.0 * span - 1.0, 4.0 * span + 1.0
        for hx, hy, hc in halves:
            dv = hx * ux + hy * uy
            rhs = hc - (hx * anchor[0] + hy * anchor[1])
            if dv > EPS_GEO:
                hi = min(hi, rhs / dv)
            elif dv < -EPS_GEO:
                lo = max(lo, rhs / dv)
        t = (lo + hi) / 2.0
        return Point2(anchor[0] + t * ux, anchor[1] + t * uy)

    pad = span * 4.0 + 1.0
    poly = [
        Point2(x0 - pad, y0 - pad),
        Point2(x1 + pad, y0 - pad),
        Point2(x1 + pad, y1 + pad),
        Point2(x0 - pad, y1 + pad),
    ]
    for hx, hy, hc in halves:
        poly = _clip_halfplane(poly, hx, hy, hc)
        if not poly:
            break
    if poly:
        k = _poly_centroid(poly)
        if violation(k) <= EPS_GEO * span:
            return k
    # Clipping lost a (near-)degenerate region; its points sit on constraint
    # boundary crossings or input points, so scan those candidates.
    cands = list(pts)
    for i in range(len(halves)):
        nxi, nyi, ci = halves[i]
        for j in range(i + 1, len(halves)):
            nxj, nyj, cj = halves[j]
            den = nxi * nyj - nyi * nxj
            if abs(den) <= EPS_GEO * EPS_GEO:
                continue
            cands.append(
                Point2((ci * nyj - cj * nyi) / den, (nxi * cj - nxj * ci) / den)
            )
    return min(cands, key=violation)


def median_line_pair(points: Sequence[Point2]) -> Point2:
    """Crossing K of the axis-aligned median lines x = median x, y = median y.

    Each closed side of each line holds at least ceil(n/2) points (on-line
    points count for both sides). Even counts use the midpoint of the two
    middle values.
    """
    if not points:
        raise EmptySetError("median_line_pair needs points")
    n = len(points)

    def med(vals: list[float]) -> float:
        vals = sorted(vals)
        if n % 2 == 1:
            return vals[n // 2]
        return (vals[n // 2 - 1] + vals[n // 2]) / 2.0

    return Point2(med([float(p[0]) for p in points]), med([float(p[1]) for p in points]))
