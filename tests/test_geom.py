import math
import random

import pytest

from byzgather.errors import AllCoincidentError, DegenerateError, EmptySetError
from byzgather.geom import (
    centerpoint,
    closest_distinct_pair,
    dist,
    furthest_voronoi,
    median_line_pair,
    minidisk,
    support_set,
)
from util import (
    EQUILATERAL,
    LINE3,
    SQUARE,
    TRI_202,
    brute_mec,
    points_close,
    random_points,
    valid_centerpoint,
)


class TestMinidisk:
    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            minidisk([])

    def test_single_point(self):
        c = minidisk([(3.0, 4.0)])
        assert points_close(c.center, (3.0, 4.0)) and c.radius == 0.0

    def test_pair_is_diameter(self):
        c = minidisk([(0.0, 0.0), (2.0, 0.0)])
        assert points_close(c.center, (1.0, 0.0)) and abs(c.radius - 1.0) < 1e-9

    def test_triangle_circumcircle(self):
        c = minidisk(TRI_202)
        assert points_close(c.center, (1.0, 0.75)) and abs(c.radius - 1.25) < 1e-9

    def test_obtuse_triangle_uses_widest_pair(self):
        # The far vertex pair dominates; the circle is NOT the circumcircle.
        c = minidisk(LINE3)
        assert points_close(c.center, (2.5, 0.0)) and abs(c.radius - 2.5) < 1e-9

    def test_square(self):
        c = minidisk(SQUARE)
        assert points_close(c.center, (0.5, 0.5))
        assert abs(c.radius - math.sqrt(2.0) / 2.0) < 1e-9

    def test_duplicates_collapse(self):
        c = minidisk([(1.0, 1.0)] * 5 + [(3.0, 1.0)] * 2)
        assert points_close(c.center, (2.0, 1.0)) and abs(c.radius - 1.0) < 1e-9

    def test_covers_and_minimal_random(self):
        # No circle through 2-3 input points covering the set may undercut
        # the returned radius.
        rng = random.Random(101)
        for trial in range(10000):
            n = rng.randint(2, 10)
            pts = random_points(rng, n, span=10.0)
            c = minidisk(pts)
            rr = c.radius + 1e-9
            assert all(dist(p, c.center) <= rr for p in pts)
            bx, by, br = brute_mec(pts)
            assert br >= c.radius - 1e-9
            assert c.radius <= br + 1e-9

    def test_support_set_on_boundary(self):
        rng = random.Random(102)
        for trial in range(300):
            pts = random_points(rng, rng.randint(3, 9))
            c = minidisk(pts)
            sup = support_set(pts, c)
            assert sup, "support set may not be empty"
            for i in sup:
                assert abs(dist(pts[i], c.center) - c.radius) <= 1e-6

    def test_support_removal_keeps_circle(self):
        rng = random.Random(103)
        for trial in range(300):
            pts = random_points(rng, rng.randint(3, 9))
            c = minidisk(pts)
            keep = support_set(pts, c)
            c2 = minidisk([pts[i] for i in keep])
            assert points_close(c.center, c2.center, 1e-6)
            assert abs(c.radius - c2.radius) <= 1e-6


class TestClosestDistinctPair:
    def test_simple(self):
        i, j, d = closest_distinct_pair([(0.0, 0.0), (5.0, 0.0), (5.5, 0.0)])
        assert (i, j) == (1, 2) and abs(d - 0.5) < 1e-12

    def test_skips_coincident_pairs(self):
        i, j, d = closest_distinct_pair([(0.0, 0.0), (0.0, 0.0), (3.0, 0.0)])
        assert d > 1e-9 and abs(d - 3.0) < 1e-12

    def test_all_coincident_raises(self):
        with pytest.raises(AllCoincidentError):
            closest_distinct_pair([(1.0, 2.0)] * 4)

    def test_matches_brute_force(self):
        rng = random.Random(104)
        for trial in range(500):
            pts = random_points(rng, rng.randint(2, 12), span=5.0)
            i, j, d = closest_distinct_pair(pts)
            best = min(
                dist(a, b)
                for k, a in enumerate(pts)
                for b in pts[k + 1 :]
                if dist(a, b) > 1e-9
            )
            assert abs(d - best) < 1e-12
            assert abs(dist(pts[i], pts[j]) - d) < 1e-12


class TestFurthestVoronoi:
    def test_two_sites_bisector(self):
        edges = furthest_voronoi([(0.0, 0.0), (2.0, 0.0)], 10.0)
        assert len(edges) == 1
        e = edges[0]
        assert {e.site_a, e.site_b} == {0, 1}
        for p in (e.seg.a, e.seg.b):
            assert abs(p[0] - 1.0) < 1e-9
        length = dist(e.seg.a, e.seg.b)
        assert length > 10.0  # clamp disk chord through its center

    def test_three_sites_meet_at_circumcenter(self):
        edges = furthest_voronoi(TRI_202, 10.0)
        assert len(edges) == 3
        for e in edges:
            ends = [e.seg.a, e.seg.b]
            assert any(points_close(p, (1.0, 0.75), 1e-6) for p in ends)

    def test_collinear_middle_owns_no_cell(self):
        edges = furthest_voronoi([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 10.0)
        assert len(edges) == 1
        assert {edges[0].site_a, edges[0].site_b} == {0, 2}

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateError):
            furthest_voronoi([(1.0, 1.0), (1.0, 1.0)], 5.0)

    def test_edge_points_have_tied_furthest_sites(self):
        rng = random.Random(105)
        for trial in range(60):
            pts = random_points(rng, rng.randint(2, 8), span=10.0)
            c = minidisk(pts)
            clamp = c.radius * 4.0 + 5.0
            edges = furthest_voronoi(pts, clamp)
            assert edges
            for e in edges:
                for t in (0.0, 0.27, 0.5, 0.81, 1.0):
                    q = (
                        e.seg.a[0] + t * (e.seg.b[0] - e.seg.a[0]),
                        e.seg.a[1] + t * (e.seg.b[1] - e.seg.a[1]),
                    )
                    da = dist(q, pts[e.site_a])
                    db = dist(q, pts[e.site_b])
                    dmax = max(dist(q, p) for p in pts)
                    assert abs(da - db) < 1e-6
                    assert da > dmax - 1e-6

    def test_query_points_classified_by_cells(self):
        # Cell membership reconstructed from the returned edges alone: site
        # s's cell is bounded by the bisectors of its edges (s, t). For a
        # random interior query the unique membership winner must equal the
        # brute-force furthest site; a missing or misplaced edge makes some
        # cell too large and breaks uniqueness.
        rng = random.Random(106)
        queries_done = 0
        while queries_done < 1000:
            pts = random_points(rng, rng.randint(2, 7), span=10.0)
            c = minidisk(pts)
            clamp = c.radius * 4.0 + 5.0
            edges = furthest_voronoi(pts, clamp)
            by_site = {}
            for e in edges:
                by_site.setdefault(e.site_a, []).append(e.site_b)
                by_site.setdefault(e.site_b, []).append(e.site_a)
            for _ in range(40):
                ang = rng.uniform(0.0, 2.0 * math.pi)
                rad = clamp * 0.95 * math.sqrt(rng.random())
                q = (c.center[0] + rad * math.cos(ang), c.center[1] + rad * math.sin(ang))
                dists = [dist(q, p) for p in pts]
                far = max(dists)
                winners = [i for i, d in enumerate(dists) if d > far - 1e-6]
                if len(winners) > 1:
                    continue  # near a cell boundary; membership is ambiguous
                members = [
                    s
                    for s, others in by_site.items()
                    if all(dist(q, pts[s]) >= dist(q, pts[t]) - 1e-9 for t in others)
                ]
                assert members == winners, (pts, q, members, winners)
                queries_done += 1


class TestCenterpoint:
    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            centerpoint([])

    def test_square_center(self):
        K = centerpoint(SQUARE)
        assert points_close(K, (0.5, 0.5), 1e-9)

    def test_collinear_triple(self):
        K = centerpoint([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert points_close(K, (1.0, 0.0), 1e-9)

    def test_triangle_centroid(self):
        K = centerpoint([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
        assert points_close(K, (1.0, 1.0), 1e-9)

    def test_single_and_duplicates(self):
        assert points_close(centerpoint([(2.0, 7.0)]), (2.0, 7.0))
        K = centerpoint([(1.0, 1.0)] * 6)
        assert points_close(K, (1.0, 1.0))

    def test_valid_on_random_sets(self):
        rng = random.Random(107)
        for trial in range(400):
            pts = random_points(rng, rng.randint(3, 12))
            K = centerpoint(pts)
            assert valid_centerpoint(pts, K), (pts, K)

    def test_valid_on_convex_position(self):
        # Convex position often pins the center region to a single point.
        rng = random.Random(108)
        for trial in range(300):
            n = rng.randint(3, 10)
            cx, cy = rng.uniform(0, 100), rng.uniform(0, 100)
            r = rng.uniform(1.0, 40.0)
            angs = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
            pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angs]
            K = centerpoint(pts)
            assert valid_centerpoint(pts, K), (pts, K)

    def test_valid_with_duplicates_and_lines(self):
        rng = random.Random(109)
        for trial in range(150):
            base = random_points(rng, rng.randint(2, 4), span=10.0)
            pts = [base[rng.randrange(len(base))] for _ in range(rng.randint(4, 12))]
            K = centerpoint(pts)
            assert valid_centerpoint(pts, K), (pts, K)
        for trial in range(100):
            x0, y0 = rng.uniform(0, 10), rng.uniform(0, 10)
            ux, uy = math.cos(rng.uniform(0, math.pi)), math.sin(rng.uniform(0, math.pi))
            ts = [rng.uniform(-5, 5) for _ in range(rng.randint(2, 9))]
            pts = [(x0 + t * ux, y0 + t * uy) for t in ts]
            K = centerpoint(pts)
            assert valid_centerpoint(pts, K, margin=1e-7), (pts, K)


class TestMedianLinePair:
    def test_square(self):
        K = median_line_pair(SQUARE)
        assert points_close(K, (0.5, 0.5), 1e-9)

    def test_triangle(self):
        K = median_line_pair(TRI_202)
        assert points_close(K, (1.0, 0.0), 1e-9)

    def test_single_point(self):
        K = median_line_pair([(4.0, -2.0)])
        assert points_close(K, (4.0, -2.0), 1e-9)

    def test_halfplane_counts(self):
        rng = random.Random(110)
        for trial in range(300):
            n = rng.randint(1, 12)
            pts = random_points(rng, n)
            K = median_line_pair(pts)
            need = -(-n // 2)
            mx, my = K
            left = sum(1 for p in pts if p[0] <= mx + 1e-9)
            right = sum(1 for p in pts if p[0] >= mx - 1e-9)
            below = sum(1 for p in pts if p[1] <= my + 1e-9)
            above = sum(1 for p in pts if p[1] >= my - 1e-9)
            assert min(left, right, below, above) >= need
