import json
import math
import random

import pytest

from byzgather import (
    DegenerateRatioError,
    Point2,
    Schedule,
    SubsetNeverGathersError,
    TooSmallError,
    bench_table,
    bound_for_report,
    check_lb_achievable,
    competitive_ratio,
    dist,
    lower_bound_f1,
    make_instance,
    oracle_opt_point,
    overall_cr,
    plan_auto,
    plan_centerpoint,
    plan_grid,
    plan_hamsandwich,
    plan_mec,
    plan_opt_f1,
    plan_single_point,
    plan_ssi,
    plan_tri,
    report_to_obj,
    subset_radius_order,
    minidisk,
    Waypoint,
)
from util import EQUILATERAL, LINE3, TRI_202, points_close, random_points

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestCompetitiveRatio:
    def test_line3_full_subset(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        row = competitive_ratio(inst, sch, 0b111)
        assert abs(row.gather_time - 2.5) < 1e-6
        assert abs(row.optimal_time - 2.5) < 1e-9
        assert abs(row.cr - 1.0) < 1e-6

    def test_line3_adversary_subset(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        row = competitive_ratio(inst, sch, 0b110)
        assert abs(row.optimal_time - 2.45) < 1e-9
        assert abs(row.cr - 2.5 / 2.45) < 1e-6

    def test_coincident_subset_ratio_one(self):
        inst = make_instance([(1.0, 1.0), (1.0, 1.0), (5.0, 1.0)], 1)
        sch = plan_opt_f1(inst)
        row = competitive_ratio(inst, sch, 0b011)
        assert row.optimal_time == 0.0
        assert row.cr == 1.0

    def test_never_gathering_raises(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            "mec",
            [
                [Waypoint(0.0, Point2(0.0, 0.0)), Waypoint(1.0, Point2(0.0, 0.0))],
                [Waypoint(0.0, Point2(4.0, 0.0)), Waypoint(1.0, Point2(4.0, 0.0))],
            ],
        )
        with pytest.raises(SubsetNeverGathersError):
            competitive_ratio(inst, sch, 0b11)

    def test_degenerate_ratio_raises(self):
        # start-mismatched schedule: subset optimum is 0 but the meet is late
        inst = make_instance([(0.0, 0.0), (0.0, 0.0)], 0)
        sch = Schedule(
            "mec",
            [
                [Waypoint(0.0, Point2(1.0, 0.0)), Waypoint(1.0, Point2(0.0, 0.0))],
                [Waypoint(0.0, Point2(-1.0, 0.0)), Waypoint(1.0, Point2(0.0, 0.0))],
            ],
        )
        with pytest.raises(DegenerateRatioError):
            competitive_ratio(inst, sch, 0b11)


class TestOverallCr:
    def test_line3_table(self):
        inst = make_instance(LINE3, 1)
        rep = overall_cr(inst, plan_opt_f1(inst))
        assert abs(rep.overall_cr - 2.5 / 2.45) < 1e-6
        assert rep.argmax_mask == 0b110
        by_mask = {row.mask: row for row in rep.subsets}
        assert set(by_mask) == {0b011, 0b101, 0b110, 0b111}
        assert abs(by_mask[0b011].cr - 1.0) < 1e-6
        assert abs(by_mask[0b101].cr - 1.0) < 1e-6
        assert abs(by_mask[0b110].cr - 2.5 / 2.45) < 1e-6
        assert abs(by_mask[0b111].cr - 1.0) < 1e-6

    def test_mec_f0_cr_one(self):
        inst = make_instance(TRI_202, 0)
        rep = overall_cr(inst, plan_mec(inst))
        assert abs(rep.overall_cr - 1.0) < 1e-9
        assert rep.bound == 1.0
        assert rep.bound_satisfied is True

    def test_explicit_masks_respected(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        rep = overall_cr(inst, sch, masks=[0b111, 0b011])
        assert {row.mask for row in rep.subsets} == {0b111, 0b011}
        assert abs(rep.overall_cr - 1.0) < 1e-6

    def test_argmax_first_of_ties(self):
        inst = make_instance(EQUILATERAL, 1)
        rep = overall_cr(inst, plan_opt_f1(inst))
        crs = [row.cr for row in rep.subsets]
        top = max(crs)
        first = next(row.mask for row in rep.subsets if row.cr >= top - 1e-12)
        assert rep.argmax_mask == first


class TestBoundForReport:
    def test_mec_bound_only_for_f0(self):
        inst0 = make_instance(TRI_202, 0)
        sch0 = plan_mec(inst0)
        assert bound_for_report(inst0, sch0, 0b111) == 1.0
        inst1 = make_instance(TRI_202, 1)
        assert bound_for_report(inst1, plan_mec(inst1), 0b111) is None

    def test_predicted_bounds(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        assert abs(bound_for_report(inst, sch, 0b110) - 2.5 / 2.45) < 1e-9
        tri_inst = make_instance(EQUILATERAL, 1)
        tri_sch = plan_tri(tri_inst)
        assert abs(bound_for_report(tri_inst, tri_sch, 0b111) - 2.0 / SQRT3) < 1e-9
        sp = plan_single_point(inst, Point2(0.05, 0.0))
        b = bound_for_report(inst, sp, 0b110)
        assert b is None or b > 0.0

    def test_fixed_bounds(self):
        inst = make_instance(random_points(random.Random(401), 9), 2)
        assert bound_for_report(inst, plan_centerpoint(inst), 0b111) == 2.0
        inst2 = make_instance(random_points(random.Random(402), 9), 4)
        assert bound_for_report(inst2, plan_hamsandwich(inst2), 0b111) == 2.0 * SQRT2
        inst3 = make_instance(random_points(random.Random(403), 6), 4)
        assert bound_for_report(inst3, plan_ssi(inst3), 0b111) == 6.0

    def test_grid_bound_uses_argmax_subset_pair(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (50.0, 0.0)]
        inst = make_instance(pts, 1)
        sch = plan_grid(inst, d_eps=0.5)
        # subset {0, 2}: closest pair 50
        b = bound_for_report(inst, sch, 0b101)
        assert abs(b - 2.0 * SQRT2 * (16.0 + 0.5 / 50.0)) < 1e-9
        # subset {0, 1}: closest pair 1
        b2 = bound_for_report(inst, sch, 0b011)
        assert abs(b2 - 2.0 * SQRT2 * 16.5) < 1e-9

    def test_grid_bound_degenerate_subset(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (9.0, 0.0)]
        inst = make_instance(pts, 1)
        sch = plan_grid(inst)
        assert bound_for_report(inst, sch, 0b011) is None

    def test_relabelled_schedule_outside_budget_gets_no_bound(self):
        # hamsandwich needs F < ceil(6/2) = 3; opt-f1 needs F = 1. Neither
        # label earns its bound for an ssi schedule outside that budget.
        inst = make_instance(random_points(random.Random(403), 6), 4)
        sch = plan_ssi(inst)
        ham = Schedule("hamsandwich", sch.trajectories, sch.meta)
        assert bound_for_report(inst, ham, 0b111111) is None
        rep = overall_cr(inst, ham)
        assert rep.bound is None and rep.bound_satisfied is None
        inst2 = make_instance(random_points(random.Random(405), 6), 2)
        opt = Schedule("opt-f1", plan_ssi(inst2).trajectories, {"predicted_cr": 99.0})
        assert bound_for_report(inst2, opt, 0b111111) is None
        assert overall_cr(inst2, opt).bound is None

    def test_bounds_hold_on_reports(self):
        rng = random.Random(404)
        for planner in (plan_opt_f1, plan_centerpoint, plan_ssi):
            for trial in range(25):
                n = rng.randint(4, 8)
                f = 1 if planner is plan_opt_f1 else (-(-n // 3) - 1 if planner is plan_centerpoint else n - 2)
                inst = make_instance(random_points(rng, n), max(f, 0))
                rep = overall_cr(inst, planner(inst))
                assert rep.bound_satisfied is True


class TestLowerBoundF1:
    def test_line3(self):
        assert abs(lower_bound_f1(make_instance(LINE3, 1)) - 2.5 / 2.45) < 1e-12

    def test_equilateral(self):
        assert abs(lower_bound_f1(make_instance(EQUILATERAL, 1)) - 2.0 / SQRT3) < 1e-12

    def test_triangle_202(self):
        lb = lower_bound_f1(make_instance(TRI_202, 1))
        assert abs(lb - 1.25 / (math.sqrt(5.0) / 2.0)) < 1e-12

    def test_degenerate_infinite(self):
        lb = lower_bound_f1(make_instance([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], 1))
        assert lb == math.inf

    def test_never_exceeds_measured_cr(self):
        rng = random.Random(405)
        for trial in range(60):
            pts = random_points(rng, rng.randint(3, 7))
            inst = make_instance(pts, 1)
            rep = overall_cr(inst, plan_opt_f1(inst))
            assert rep.overall_cr >= lower_bound_f1(inst) - 1e-9


class TestCheckLbAchievable:
    def test_line3_applicable_and_tight(self):
        cert = check_lb_achievable(make_instance(LINE3, 1))
        assert cert.applicable and cert.intersects
        assert sorted(cert.support) == [0, 2]
        assert abs(cert.lower_bound - 2.5 / 2.45) < 1e-12
        assert abs(cert.q - 0.05 * 2.5 / 2.45) < 1e-12

    def test_equilateral_not_applicable(self):
        cert = check_lb_achievable(make_instance(EQUILATERAL, 1))
        assert not cert.applicable
        assert len(cert.support) == 3

    def test_two_support_obtuse(self):
        cert = check_lb_achievable(make_instance([(0.0, 0.0), (2.0, 0.0), (1.0, 0.5)], 1))
        assert cert.applicable
        assert sorted(cert.support) == [0, 1]

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            check_lb_achievable(make_instance([(0.0, 0.0), (1.0, 0.0)], 0))

    def test_tight_cert_implies_measured_tight(self):
        # Constructed family: two spread supports plus a tight cluster near
        # one of them; the bound must then be achieved by the planner.
        rng = random.Random(406)
        hits = 0
        for trial in range(40):
            u = rng.uniform(-0.01, 0.01)
            v = rng.uniform(-0.01, 0.01)
            n_extra = rng.randint(1, 4)
            pts = [(-1.0, 0.0), (1.0, 0.0)]
            for _ in range(n_extra):
                ang = rng.uniform(0.0, 2.0 * math.pi)
                rad = rng.uniform(0.0, 0.02)
                pts.append((-0.9 + u + rad * math.cos(ang), v + rad * math.sin(ang)))
            inst = make_instance(pts, 1)
            cert = check_lb_achievable(inst)
            if not (cert.applicable and cert.intersects):
                continue
            hits += 1
            rep = overall_cr(inst, plan_opt_f1(inst))
            assert abs(rep.overall_cr - cert.lower_bound) < 1e-6
        assert hits >= 30


class TestOracleOptPoint:
    def test_line3(self):
        inst = make_instance(LINE3, 1)
        res = oracle_opt_point(inst, resolution=1e-4)
        assert abs(res.cr - 2.5 / 2.45) < 1e-3
        assert dist(res.point, Point2(0.05, 0.0)) < 0.01

    def test_equilateral(self):
        res = oracle_opt_point(make_instance(EQUILATERAL, 1), resolution=1e-4)
        assert abs(res.cr - 2.0 / SQRT3) < 1e-3

    def test_flat_triangle(self):
        res = oracle_opt_point(make_instance([(0.0, 0.0), (1.0, 0.0), (3.0, 0.1)], 1))
        assert abs(res.cr - math.sqrt(9.01 / 4.01)) < 2e-3

    def test_guarantee_sandwich(self):
        rng = random.Random(407)
        for trial in range(12):
            pts = random_points(rng, rng.randint(3, 6))
            inst = make_instance(pts, 1)
            order = subset_radius_order(inst)
            r0, r1 = order[0][1], order[1][1]
            if r0 <= 1e-9:
                continue
            resolution = 1e-3 * minidisk(pts).radius
            res = oracle_opt_point(inst, resolution=resolution)
            opt = opt_cr = plan_opt_f1(inst).meta["predicted_cr"]
            slack = resolution * (1.0 / r0 + 1.0 / r1) + 1e-9
            assert opt_cr <= res.cr + slack
            assert res.cr >= opt - 1e-9  # oracle never beats the true optimum

    def test_single_point_plan_at_oracle_not_better(self):
        # Measured ratio of the one-target plan at the oracle point is no
        # better than the planner's optimum, within oracle slack.
        rng = random.Random(408)
        for trial in range(8):
            pts = random_points(rng, rng.randint(3, 5))
            inst = make_instance(pts, 1)
            order = subset_radius_order(inst)
            r0, r1 = order[0][1], order[1][1]
            if r0 <= 1e-9:
                continue
            resolution = 1e-3 * minidisk(pts).radius
            res = oracle_opt_point(inst, resolution=resolution)
            rep_orc = overall_cr(inst, plan_single_point(inst, res.point))
            rep_opt = overall_cr(inst, plan_opt_f1(inst))
            slack = resolution * (1.0 / r0 + 1.0 / r1) + 1e-6
            assert rep_orc.overall_cr >= rep_opt.overall_cr - slack

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            oracle_opt_point(make_instance([(0.0, 0.0), (1.0, 0.0)], 0))


class TestReportObj:
    def test_keys_and_roundtrip(self):
        inst = make_instance(LINE3, 1)
        rep = overall_cr(inst, plan_opt_f1(inst))
        obj = report_to_obj(rep)
        assert set(obj) == {
            "algorithm",
            "overall_cr",
            "argmax_mask",
            "bound",
            "bound_satisfied",
            "subsets",
        }
        assert obj["algorithm"] == "opt-f1"
        assert all(
            set(row) == {"mask", "gather_time", "optimal_time", "cr"}
            for row in obj["subsets"]
        )
        json.dumps(obj)  # must be serializable as-is

    def test_deterministic(self):
        rng = random.Random(409)
        for trial in range(20):
            pts = random_points(rng, rng.randint(3, 6))
            inst = make_instance(pts, 1)
            a = json.dumps(report_to_obj(overall_cr(inst, plan_opt_f1(inst))), sort_keys=True)
            b = json.dumps(report_to_obj(overall_cr(inst, plan_opt_f1(inst))), sort_keys=True)
            assert a == b

    def test_auto_deterministic_across_algorithms(self):
        rng = random.Random(410)
        for n, f in ((3, 1), (7, 2), (8, 3), (6, 4)):
            pts = random_points(rng, n)
            inst = make_instance(pts, f)
            a = json.dumps(report_to_obj(overall_cr(inst, plan_auto(inst))), sort_keys=True)
            b = json.dumps(report_to_obj(overall_cr(inst, plan_auto(inst))), sort_keys=True)
            assert a == b


class TestBenchTable:
    def test_smoke_all_rows_ok(self):
        rows = bench_table(seed=5, per_row=4)
        assert len(rows) >= 5
        labels = [row.label for row in rows]
        assert len(set(labels)) == len(labels)
        for row in rows:
            assert row.instances == 4
            assert row.ok, row
            assert row.worst_cr >= 1.0 - 1e-9

    def test_reproducible(self):
        a = bench_table(seed=11, per_row=3)
        b = bench_table(seed=11, per_row=3)
        assert a == b
