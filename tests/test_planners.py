import itertools
import math
import random

import pytest

from byzgather.errors import (
    BadParamsError,
    DegenerateError,
    TooSmallError,
    WrongBudgetError,
)
from byzgather.geom import Point2, dist, furthest_voronoi, minidisk
from byzgather.model import (
    MAX_COORD,
    ScheduleTimeline,
    make_instance,
    position_at,
    validate_schedule,
)
from byzgather.planners import (
    PLANNERS,
    f1_setup,
    opt_point_f1,
    plan_auto,
    plan_centerpoint,
    plan_grid,
    plan_hamsandwich,
    plan_mec,
    plan_opt_f1,
    plan_single_point,
    plan_ssi,
    plan_tri,
    subset_radius_order,
    tri_opt_point,
    triangle_instance,
)
from byzgather.analysis import BOUND_SLACK, overall_cr
from util import EQUILATERAL, LINE3, SQUARE, TRI_202, points_close, random_points

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestSubsetRadiusOrder:
    def test_line3(self):
        order = subset_radius_order(make_instance(LINE3, 1))
        assert [i for i, _ in order] == [2, 0, 1]
        radii = [r for _, r in order]
        assert abs(radii[0] - 0.05) < 1e-9
        assert abs(radii[1] - 2.45) < 1e-9
        assert abs(radii[2] - 2.5) < 1e-9

    def test_equilateral_ties_by_index(self):
        order = subset_radius_order(make_instance(EQUILATERAL, 1))
        assert [i for i, _ in order] == [0, 1, 2]
        assert all(abs(r - 0.5) < 1e-9 for _, r in order)

    def test_triangle_202(self):
        order = subset_radius_order(make_instance(TRI_202, 1))
        assert order[0][0] == 2 and abs(order[0][1] - 1.0) < 1e-9
        assert abs(order[1][1] - math.sqrt(5.0) / 2.0) < 1e-9

    def test_sorted_ascending(self):
        rng = random.Random(301)
        for trial in range(100):
            inst = make_instance(random_points(rng, rng.randint(3, 9)), 1)
            radii = [r for _, r in subset_radius_order(inst)]
            assert radii == sorted(radii)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            subset_radius_order(make_instance([(0.0, 0.0), (1.0, 0.0)], 0))


class TestPlanMec:
    def test_pair(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        sch = plan_mec(inst)
        assert abs(sch.horizon - 1.0) < 1e-9
        for traj in sch.trajectories:
            assert points_close(traj[-1].pos, (1.0, 0.0))

    def test_collinear_triple_full_set_cr_one(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 0)
        sch = plan_mec(inst)
        assert abs(sch.horizon - 1.0) < 1e-9
        rep = overall_cr(inst, sch)
        assert abs(rep.overall_cr - 1.0) < 1e-9

    def test_triangle(self):
        sch = plan_mec(make_instance(TRI_202, 0))
        assert abs(sch.horizon - 1.25) < 1e-9
        for traj in sch.trajectories:
            assert points_close(traj[-1].pos, (1.0, 0.75))


class TestPlanSinglePoint:
    def test_line3(self):
        inst = make_instance(LINE3, 1)
        sch = plan_single_point(inst, Point2(0.05, 0.0))
        assert abs(sch.meta["t1"] - 0.05) < 1e-9
        assert points_close(sch.meta["D_prime"], (2.5, 0.0), 1e-9)
        assert abs(sch.horizon - 2.5) < 1e-9

    def test_equilateral_tie_no_second_leg(self):
        inst = make_instance(EQUILATERAL, 1)
        center = minidisk(EQUILATERAL).center
        sch = plan_single_point(inst, center)
        assert abs(sch.horizon - 1.0 / SQRT3) < 1e-9
        assert "D_prime" not in sch.meta

    def test_triangle_202_laggard(self):
        inst = make_instance(TRI_202, 1)
        sch = plan_single_point(inst, Point2(1.0, 0.0))
        assert abs(sch.meta["t1"] - 1.0) < 1e-9
        assert points_close(sch.meta["D_prime"], (1.0, 0.5), 1e-9)
        assert abs(sch.horizon - 1.5) < 1e-9
        # laggard's leg starts from its t1 position (1, 1)
        assert points_close(position_at(sch.trajectories[2], 1.0), (1.0, 1.0), 1e-9)

    def test_horizon_identity(self):
        # horizon = t1 + (|CD| - t1)/2 whenever a laggard exists
        rng = random.Random(302)
        for trial in range(100):
            pts = random_points(rng, rng.randint(3, 7))
            inst = make_instance(pts, 1)
            d_pt = Point2(rng.uniform(0, 100), rng.uniform(0, 100))
            sch = plan_single_point(inst, d_pt)
            dists = sorted(dist(p, d_pt) for p in pts)
            t1 = dists[-2]
            if dists[-1] > t1 + 1e-9:
                expect = t1 + (dists[-1] - t1) / 2.0
            else:
                expect = t1
            assert abs(sch.horizon - expect) < 1e-9

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            plan_single_point(make_instance([(0.0, 0.0), (2.0, 0.0)], 0), Point2(1, 0))


class TestOptPointF1:
    def test_line3(self):
        res = opt_point_f1(make_instance(LINE3, 1))
        assert points_close(res.point, (0.05, 0.0), 1e-9)
        assert abs(res.predicted_cr - 2.5 / 2.45) < 1e-9
        assert res.omitted == 2
        assert abs(res.r0 - 0.05) < 1e-9 and abs(res.r1 - 2.45) < 1e-9

    def test_equilateral(self):
        res = opt_point_f1(make_instance(EQUILATERAL, 1))
        assert abs(res.predicted_cr - 2.0 / SQRT3) < 1e-9

    def test_coincident_pair_degenerate_rule(self):
        res = opt_point_f1(make_instance([(1.0, 1.0), (1.0, 1.0), (9.0, 1.0)], 1))
        assert points_close(res.point, (1.0, 1.0), 1e-9)
        assert abs(res.predicted_cr - 1.0) < 1e-9  # (0 + 8) / (2 * 4)

    def test_all_coincident(self):
        res = opt_point_f1(make_instance([(2.0, 2.0)] * 3, 1))
        assert points_close(res.point, (2.0, 2.0))
        assert res.predicted_cr == 1.0

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            opt_point_f1(make_instance([(0.0, 0.0), (2.0, 0.0)], 0))

    def test_plan_opt_f1_outside_budget(self):
        with pytest.raises(WrongBudgetError, match=r"opt-f1 requires F = 1 .*n = 4, F = 2"):
            plan_opt_f1(make_instance(SQUARE, 2))

    def test_equidistant_from_two_furthest(self):
        # The optimum sits on a perpendicular bisector of the two points of
        # S0 furthest from it (top-2 distance tie).
        rng = random.Random(303)
        for trial in range(150):
            pts = random_points(rng, rng.randint(3, 8))
            res = opt_point_f1(make_instance(pts, 1))
            s0 = [p for j, p in enumerate(pts) if j != res.omitted]
            d = sorted((dist(res.point, p) for p in s0), reverse=True)
            assert d[0] - d[1] <= 1e-6 * (1.0 + d[0])

    def test_predicted_matches_measured(self):
        rng = random.Random(304)
        for trial in range(80):
            pts = random_points(rng, rng.randint(3, 7))
            inst = make_instance(pts, 1)
            sch = plan_opt_f1(inst)
            rep = overall_cr(inst, sch)
            assert abs(rep.overall_cr - sch.meta["predicted_cr"]) < 1e-6

    def test_theorem_one_floor(self):
        rng = random.Random(305)
        for trial in range(100):
            pts = random_points(rng, rng.randint(3, 8))
            inst = make_instance(pts, 1)
            res = opt_point_f1(inst)
            r_s = minidisk(pts).radius
            assert res.predicted_cr >= r_s / res.r1 - 1e-9

    def test_first_colocated_group_is_s0(self):
        # The cheapest leave-one-out subset gathers no later than any other
        # (n-1)-subset under the optimal plan.
        rng = random.Random(306)
        for trial in range(60):
            pts = random_points(rng, rng.randint(3, 7))
            inst = make_instance(pts, 1)
            sch = plan_opt_f1(inst)
            tl = ScheduleTimeline(sch)
            n = inst.n
            full = (1 << n) - 1
            s0_mask = full ^ (1 << sch.meta["omitted"])
            t_s0 = tl.gather_time(s0_mask)
            assert t_s0 is not None
            for omit in range(n):
                mask = full ^ (1 << omit)
                t = tl.gather_time(mask)
                assert t is not None and t_s0 <= t + 1e-9

    def test_objective_unimodal_on_edges(self):
        # The ratio along any furthest-point Voronoi edge is a max of convex
        # functions: sampled values may not have a strict interior local max.
        rng = random.Random(307)
        edges_checked = 0
        while edges_checked < 1000:
            pts = random_points(rng, rng.randint(3, 8))
            inst = make_instance(pts, 1)
            order = subset_radius_order(inst)
            omit0, r0 = order[0]
            if r0 <= 1e-9:
                continue
            s0 = [p for j, p in enumerate(pts) if j != omit0]
            objective = f1_setup(inst).ratio
            clamp = r0 * 3.0 + minidisk(pts).radius * 2.0
            for edge in furthest_voronoi(s0, clamp):
                (x0, y0), (x1, y1) = edge.seg.a, edge.seg.b
                vals = []
                for k in range(21):
                    t = k / 20.0
                    vals.append(objective(Point2(x0 + t * (x1 - x0), y0 + t * (y1 - y0))))
                tol = 1e-9 * (1.0 + max(vals))
                for k in range(1, 20):
                    assert not (
                        vals[k] > vals[k - 1] + tol and vals[k] > vals[k + 1] + tol
                    ), (pts, edge, k)
                edges_checked += 1


class TestTriangle:
    def test_relabeling(self):
        tri = triangle_instance((3.0, 0.1), (0.0, 0.0), (1.0, 0.0))
        assert tri.a <= tri.b <= tri.c
        assert abs(tri.a - 1.0) < 1e-12
        assert abs(tri.b - math.sqrt(4.01)) < 1e-12
        assert abs(tri.c - math.sqrt(9.01)) < 1e-12
        assert points_close(tri.A, (3.0, 0.1))  # opposite the shortest side

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateError):
            triangle_instance((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        with pytest.raises(DegenerateError):
            triangle_instance((0.0, 0.0), (0.0, 0.0), (2.0, 0.0))

    def test_equilateral_closed_form(self):
        tri = triangle_instance(*EQUILATERAL)
        res = tri_opt_point(tri)
        assert abs(tri.tan_phi - 1.0 / SQRT3) < 1e-9
        assert abs(res.predicted_cr - 2.0 / SQRT3) < 1e-9
        assert points_close(res.point, (0.5, 1.0 / (2.0 * SQRT3)), 1e-9)

    def test_flat_triangle_case_one(self):
        tri = triangle_instance((0.0, 0.0), (1.0, 0.0), (3.0, 0.1))
        assert tri.lb_case  # tan(beta) = 1/30 <= sin(gamma) ~ 0.04994
        assert abs(tri.tan_beta - 0.1 / 3.0) < 1e-6
        res = tri_opt_point(tri)
        assert abs(res.predicted_cr - math.sqrt(9.01 / 4.01)) < 1e-9
        assert points_close(res.point, (0.5, 1.0 / 60.0), 1e-9)

    def test_agreement_with_edge_search(self):
        rng = random.Random(308)
        done = 0
        while done < 1500:
            pts = random_points(rng, 3, span=10.0)
            try:
                tri = triangle_instance(*pts)
            except DegenerateError:
                continue
            res_tri = tri_opt_point(tri)
            res_opt = opt_point_f1(make_instance(pts, 1))
            assert abs(res_tri.predicted_cr - res_opt.predicted_cr) < 1e-6, pts
            done += 1

    def test_isoceles_a_equals_b(self):
        # a == b exercises the second closed-form branch on many draws.
        rng = random.Random(309)
        for trial in range(300):
            base = rng.uniform(1.0, 5.0)
            apex_h = rng.uniform(0.1, 5.0)
            pts = [(0.0, 0.0), (base, 0.0), (base / 2.0, apex_h)]
            try:
                tri = triangle_instance(*pts)
            except DegenerateError:
                continue
            res_tri = tri_opt_point(tri)
            res_opt = opt_point_f1(make_instance(pts, 1))
            assert abs(res_tri.predicted_cr - res_opt.predicted_cr) < 1e-6, pts

    def test_plan_tri_guards(self):
        with pytest.raises(WrongBudgetError):
            plan_tri(make_instance([(0.0, 0.0), (1.0, 0.0)], 0))
        with pytest.raises(WrongBudgetError):
            plan_tri(make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)], 1))
        with pytest.raises(WrongBudgetError):
            plan_tri(make_instance(TRI_202, 0))

    def test_plan_tri_schedule(self):
        inst = make_instance(EQUILATERAL, 1)
        sch = plan_tri(inst)
        assert sch.algorithm == "tri"
        assert validate_schedule(inst, sch) == []
        rep = overall_cr(inst, sch)
        assert abs(rep.overall_cr - 2.0 / SQRT3) < 1e-6


class TestPlanCenterpoint:
    def test_square(self):
        inst = make_instance(SQUARE, 1)
        sch = plan_centerpoint(inst)
        assert points_close(sch.trajectories[0][-1].pos, (0.5, 0.5), 1e-9)
        assert abs(sch.horizon - SQRT2 / 2.0) < 1e-9

    def test_collinear_triple(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 0)
        sch = plan_centerpoint(inst)
        assert points_close(sch.trajectories[0][-1].pos, (1.0, 0.0), 1e-9)
        assert abs(sch.horizon - 1.0) < 1e-9

    def test_budget_guard(self):
        with pytest.raises(WrongBudgetError):
            plan_centerpoint(make_instance(SQUARE, 2))  # ceil(4/3) = 2

    def test_bound_on_random_instances(self):
        rng = random.Random(310)
        for trial in range(60):
            n = rng.randint(4, 12)
            pts = random_points(rng, n)
            f = -(-n // 3) - 1
            inst = make_instance(pts, f)
            rep = overall_cr(inst, plan_centerpoint(inst))
            assert rep.overall_cr <= 2.0 + 1e-9


class TestPlanHamsandwich:
    def test_square(self):
        sch = plan_hamsandwich(make_instance(SQUARE, 1))
        assert points_close(sch.trajectories[0][-1].pos, (0.5, 0.5), 1e-9)

    def test_triangle_202(self):
        sch = plan_hamsandwich(make_instance(TRI_202, 1))
        assert points_close(sch.trajectories[0][-1].pos, (1.0, 0.0), 1e-9)

    def test_budget_guard(self):
        with pytest.raises(WrongBudgetError):
            plan_hamsandwich(make_instance(SQUARE, 2))  # ceil(4/2) = 2

    def test_bound_on_random_instances(self):
        rng = random.Random(311)
        for trial in range(60):
            n = rng.randint(4, 12)
            pts = random_points(rng, n)
            f = -(-n // 2) - 1
            inst = make_instance(pts, f)
            rep = overall_cr(inst, plan_hamsandwich(inst))
            assert rep.overall_cr <= 2.0 * SQRT2 + 1e-9


class TestPlanGrid:
    def test_worked_example(self):
        inst = make_instance([(0.25, 0.25), (0.75, 0.75)], 0)
        sch = plan_grid(inst, d_eps=1.0)
        assert abs(sch.horizon - SQRT2) < 1e-9
        for traj in sch.trajectories:
            assert points_close(position_at(traj, SQRT2), (0.0, 0.0), 1e-9)
        assert sch.meta["levels"] == 1
        # spec iteration bound holds here: 1 <= ceil(log2(diam/d_eps)) + 2
        diam = SQRT2 / 2.0
        assert sch.meta["levels"] <= math.ceil(math.log2(diam / 1.0)) + 2

    def test_coincident_trivial(self):
        inst = make_instance([(3.0, 3.0), (3.0, 3.0)], 0)
        sch = plan_grid(inst)
        assert sch.horizon == 0.0
        assert sch.meta["levels"] == 0

    def test_bad_params(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0)], 0)
        with pytest.raises(BadParamsError):
            plan_grid(inst, d_eps=0.0)
        with pytest.raises(BadParamsError):
            plan_grid(inst, d_eps=-1.0)

    def test_d_eps_must_be_a_positive_finite_float(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0)], 0)
        for bad in (10**400, "1", True, math.nan, math.inf):
            with pytest.raises(BadParamsError):
                plan_grid(inst, d_eps=bad)

    def test_d_eps_within_range_keeps_the_grid_finite(self):
        # d_eps = 1e308 overflowed the cell sides into NaN targets, and 1e-302
        # or 1e-303 the level sides or scaled coordinates into OverflowError.
        inst = make_instance([(-1e6, -1e6), (1e6, 1e6)], 0)
        for bad in (math.nextafter(1e300, math.inf), 1e308, 1e-302, 1e-303, 5e-324):
            with pytest.raises(BadParamsError, match="within"):
                plan_grid(inst, d_eps=bad)
        for d_eps in (1e-300, 1e300):
            sch = plan_grid(inst, d_eps=d_eps)
            assert validate_schedule(inst, sch) == [], d_eps
            assert overall_cr(inst, sch).bound_satisfied, d_eps

    def test_d_eps_checked_on_coincident_robots(self):
        inst = make_instance([(3.0, 3.0)] * 3, 1)
        for bad in (math.nan, -1.0, 0.0, "abc", 10**400):
            with pytest.raises(BadParamsError):
                plan_grid(inst, d_eps=bad)
        d_eps = plan_grid(inst, d_eps=2).meta["d_eps"]
        assert d_eps == 2.0 and type(d_eps) is float
        assert plan_grid(inst).meta["d_eps"] is None

    def test_default_d_eps_is_closest_pair_over_64(self):
        pts = [(0.0, 0.0), (3.2, 0.0), (10.0, 0.0)]
        sch = plan_grid(make_instance(pts, 1))
        assert abs(sch.meta["d_eps"] - 3.2 / 64.0) < 1e-12

    def test_no_overruns_and_level_bound(self):
        rng = random.Random(312)
        for trial in range(60):
            n = rng.randint(2, 7)
            pts = random_points(rng, n)
            inst = make_instance(pts, max(0, n - 2))
            sch = plan_grid(inst)
            assert sch.meta["overruns"] == 0
            d_eps = sch.meta["d_eps"]
            top = max(max(abs(x), abs(y)) for x, y in pts) / d_eps
            assert sch.meta["levels"] <= math.ceil(math.log2(max(top, 1.0))) + 2
            assert validate_schedule(inst, sch) == []

    def test_pair_gather_bound(self):
        # Two-robot gathers finish within 16*sqrt(2)*|IJ| + sqrt(2)*d_eps.
        rng = random.Random(313)
        for trial in range(80):
            ax, ay = rng.uniform(0, 100), rng.uniform(0, 100)
            bx, by = ax + rng.uniform(-5, 5), ay + rng.uniform(-5, 5)
            dij = math.hypot(bx - ax, by - ay)
            if dij < 1e-6:
                continue
            inst = make_instance([(ax, ay), (bx, by)], 0)
            sch = plan_grid(inst)
            g = ScheduleTimeline(sch).gather_time(0b11)
            assert g is not None
            assert g <= 16.0 * SQRT2 * dij + SQRT2 * sch.meta["d_eps"] + 1e-6


class TestPlanSsi:
    def test_worked_example(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)], 1)
        sch = plan_ssi(inst)
        iters = sch.meta["iterations"]
        assert len(iters) == 2
        assert points_close((iters[0][0], iters[0][1]), (0.5, 0.0), 1e-9)
        assert abs(iters[0][2] - 0.5) < 1e-9
        assert points_close((iters[1][0], iters[1][1]), (5.0, 0.0), 1e-9)
        assert abs(iters[1][2] - 4.5) < 1e-9
        assert abs(sch.horizon - 5.0) < 1e-9
        for traj in sch.trajectories:
            assert points_close(traj[-1].pos, (5.0, 0.0), 1e-9)

    def test_two_robots_midpoint(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = plan_ssi(inst)
        assert abs(sch.horizon - 2.0) < 1e-9
        for traj in sch.trajectories:
            assert points_close(traj[-1].pos, (2.0, 0.0), 1e-9)

    def test_tie_break_lowest_pair(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1)
        sch = plan_ssi(inst)
        iters = sch.meta["iterations"]
        assert points_close((iters[0][0], iters[0][1]), (0.5, 0.0), 1e-9)
        assert points_close((iters[1][0], iters[1][1]), (1.0, 0.0), 1e-9)
        assert abs(sch.horizon - 1.0) < 1e-9

    def test_horizon_is_sum_of_steps(self):
        rng = random.Random(314)
        for trial in range(60):
            pts = random_points(rng, rng.randint(2, 8))
            inst = make_instance(pts, max(0, len(pts) - 2))
            sch = plan_ssi(inst)
            total = sum(d for _, _, d in sch.meta["iterations"])
            assert abs(sch.horizon - total) < 1e-9
            assert validate_schedule(inst, sch) == []

    def test_safety_every_robot_clears_step(self):
        # Closest-pair property: every robot is at least d from D when the
        # step of length d toward D is taken.
        rng = random.Random(315)
        for trial in range(60):
            pts = [Point2(*p) for p in random_points(rng, rng.randint(3, 8))]
            inst = make_instance(pts, len(pts) - 2)
            sch = plan_ssi(inst)
            pos = list(pts)
            for dx, dy, d in sch.meta["iterations"]:
                d_pt = Point2(dx, dy)
                for p in pos:
                    assert dist(p, d_pt) >= d - 1e-9
                nxt = []
                for p in pos:
                    r = dist(p, d_pt)
                    if r <= d * (1.0 + 1e-12):
                        nxt.append(d_pt)
                    else:
                        nxt.append(
                            Point2(p.x + (d_pt.x - p.x) / r * d, p.y + (d_pt.y - p.y) / r * d)
                        )
                pos = nxt
            assert all(points_close(p, pos[0], 1e-7) for p in pos)

    def test_closest_pair_violation_raises(self, monkeypatch):
        # A pair that is not the closest moves robots through each other;
        # the check must hold under python -O too, so it is not an assert.
        import byzgather.planners as planners

        def far_pair(pts):
            return 0, 2, dist(pts[0], pts[2])

        monkeypatch.setattr(planners, "closest_distinct_pair", far_pair)
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)], 1)
        with pytest.raises(DegenerateError):
            plan_ssi(inst)


class TestPlanAuto:
    def test_dispatch_table(self):
        rng = random.Random(316)

        def alg(n, f):
            pts = random_points(rng, n)
            return plan_auto(make_instance(pts, f)).algorithm

        assert alg(3, 1) == "opt-f1"
        assert alg(10, 1) == "opt-f1"
        assert alg(10, 2) == "centerpoint"  # 2 < ceil(10/3) = 4
        assert alg(10, 3) == "centerpoint"
        assert alg(10, 4) == "hamsandwich"  # 4 < ceil(10/2) = 5
        assert alg(10, 5) == "ssi"
        assert alg(50, 43) == "ssi"
        assert alg(50, 44) == "grid"
        assert alg(5, 0) == "mec"  # optimal, ahead of centerpoint's 2
        assert alg(2, 0) == "mec"

    def test_n100_f60_grid(self):
        rng = random.Random(317)
        pts = random_points(rng, 100)
        sch = plan_auto(make_instance(pts, 60))
        assert sch.algorithm == "grid"


class TestPlannerTable:
    def test_every_applicable_row_is_valid_and_within_bound(self):
        rng = random.Random(318)
        for name, row in PLANNERS.items():
            for n in range(3, 9):
                for f in range(n - 1):
                    if not row.applies(n, f):
                        continue
                    inst = make_instance(random_points(rng, n), f)
                    sch = row.plan(inst)
                    assert sch.algorithm == name
                    assert validate_schedule(inst, sch) == []
                    rep = overall_cr(inst, sch)
                    assert rep.bound is not None, (name, n, f)
                    assert rep.overall_cr <= rep.bound + BOUND_SLACK, (name, n, f)

    def test_every_row_gathers_at_the_coordinate_bound(self):
        # Robots over the whole ±MAX_COORD box, a quarter of the coordinates
        # on its edges, closest pair at least 1e-3 of the 2e6 span; each row
        # at its budget limit.
        rng = random.Random(320)

        def coord():
            if rng.random() < 0.25:
                return rng.choice((-MAX_COORD, MAX_COORD))
            return rng.uniform(-MAX_COORD, MAX_COORD)

        for trial in range(20):
            n = 3 + trial % 4
            while True:
                pts = [(coord(), coord()) for _ in range(n)]
                if min(math.dist(p, q) for p, q in itertools.combinations(pts, 2)) >= 2e3:
                    break
            for name, row in PLANNERS.items():
                budgets = [f for f in range(n - 1) if row.applies(n, f)]
                if not budgets:
                    continue
                inst = make_instance(pts, max(budgets))
                rep = overall_cr(inst, row.plan(inst))  # raises if a subset never gathers
                assert math.isfinite(rep.overall_cr), (name, trial)
                assert rep.overall_cr >= 1.0 - 1e-9, (name, trial)
                assert rep.bound is None or rep.bound_satisfied, (name, trial)

    def test_budget_planners_refuse_exactly_outside_applies(self):
        # opt-f1, tri, centerpoint and hamsandwich plan exactly where their
        # row applies; mec, ssi and grid plan at every F.
        rng = random.Random(319)
        budgeted = {"opt-f1", "tri", "centerpoint", "hamsandwich"}
        for name, row in PLANNERS.items():
            for n in range(2, 10):
                for f in range(n - 1):
                    inst = make_instance(random_points(rng, n), f)
                    if row.applies(n, f) or name not in budgeted:
                        assert row.plan(inst).algorithm == name
                    else:
                        with pytest.raises(WrongBudgetError, match=f"{name} requires"):
                            row.plan(inst)
