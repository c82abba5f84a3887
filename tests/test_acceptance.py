"""End-to-end acceptance checks for the gathering planner and evaluator.

Each test prints one `ACCEPTANCE <k>: PASS|FAIL` line so the suite output
doubles as a checklist. Tolerances are fixed here and must not be loosened
to make a run pass.
"""

import math
import random
import time

from byzgather.errors import DegenerateError
from byzgather.geom import Point2, dist, minidisk
from byzgather.model import (
    ScheduleTimeline,
    enumerate_reliable_subsets,
    make_instance,
    optimal_gather_time,
    validate_schedule,
)
from byzgather.planners import (
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
from byzgather.analysis import (
    bound_for_report,
    check_lb_achievable,
    lower_bound_f1,
    oracle_opt_point,
    overall_cr,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _report(capsys, idx, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {idx}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {idx}: PASS")


def _uniform_instance(rng, n, f):
    pts = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    return make_instance(pts, f)


def test_criterion_1_f1_optimality_sandwich(capsys):
    def body():
        rng = random.Random(1)
        t0 = time.perf_counter()
        for trial in range(1000):
            inst = _uniform_instance(rng, rng.randint(3, 8), 1)
            order = subset_radius_order(inst)
            r0, r1 = order[0][1], order[1][1]
            rs = minidisk(inst.robots).radius
            rep = overall_cr(inst, plan_opt_f1(inst))
            lb = lower_bound_f1(inst)
            assert rep.overall_cr >= lb - 1e-9, (inst.robots, rep.overall_cr, lb)
            oracle = oracle_opt_point(inst, resolution=1e-3 * rs)
            slack = 1e-3 * rs * (1.0 / r0 + 1.0 / r1) + 1e-9
            assert rep.overall_cr <= oracle.cr + slack, (
                inst.robots,
                rep.overall_cr,
                oracle.cr,
                slack,
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"sandwich sweep took {elapsed:.1f}s"

    _report(capsys, 1, body)


def test_criterion_2_triangle_closed_form(capsys):
    def body():
        rng = random.Random(2)
        done = 0
        while done < 10_000:
            pts = [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(3)]
            try:
                tri = triangle_instance(*pts)
            except DegenerateError:
                continue
            cr_tri = tri_opt_point(tri).predicted_cr
            cr_opt = opt_point_f1(make_instance(pts, 1)).predicted_cr
            assert abs(cr_tri - cr_opt) < 1e-6, (pts, cr_tri, cr_opt)
            done += 1

        equil = triangle_instance((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))
        assert abs(tri_opt_point(equil).predicted_cr - 2.0 / SQRT3) < 1e-9

        flat = triangle_instance((3.0, 0.1), (0.0, 0.0), (1.0, 0.0))
        assert abs(tri_opt_point(flat).predicted_cr - math.sqrt(9.01 / 4.01)) < 1e-9

    _report(capsys, 2, body)


def test_criterion_3_centerpoint_bound(capsys):
    def body():
        rng = random.Random(3)
        for trial in range(500):
            n = rng.randint(4, 12)
            f = -(-n // 3) - 1
            inst = _uniform_instance(rng, n, f)
            rep = overall_cr(inst, plan_centerpoint(inst))
            assert rep.overall_cr <= 2.0 + 1e-9, (inst.robots, f, rep.overall_cr)

    _report(capsys, 3, body)


def test_criterion_4_hamsandwich_bound(capsys):
    def body():
        rng = random.Random(4)
        for trial in range(500):
            n = rng.randint(4, 12)
            f = -(-n // 2) - 1
            inst = _uniform_instance(rng, n, f)
            rep = overall_cr(inst, plan_hamsandwich(inst))
            assert rep.overall_cr <= 2.0 * SQRT2 + 1e-9, (inst.robots, f, rep.overall_cr)

    _report(capsys, 4, body)


def test_criterion_5_grid_bound(capsys):
    def body():
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(2, 7)
            f = rng.randint(0, n - 2)
            inst = _uniform_instance(rng, n, f)
            sch = plan_grid(inst)
            rep = overall_cr(inst, sch)
            bound = bound_for_report(inst, sch, rep.argmax_mask)
            assert bound is not None
            assert rep.overall_cr <= bound + 1e-6, (inst.robots, rep.overall_cr, bound)

    _report(capsys, 5, body)


def test_criterion_6_ssi_subset_bound_and_shrink(capsys):
    def body():
        rng = random.Random(6)
        for trial in range(500):
            n = rng.randint(2, 9)
            f = rng.randint(0, n - 2)
            inst = _uniform_instance(rng, n, f)
            sch = plan_ssi(inst)
            tl = ScheduleTimeline(sch)
            for mask in enumerate_reliable_subsets(inst):
                g = tl.gather_time(mask)
                assert g is not None
                opt = optimal_gather_time(inst, mask)
                if opt == 0.0:
                    continue
                size = bin(mask).count("1")
                assert g / opt <= (n - size) + 2.0 + 1e-9, (inst.robots, mask, g / opt)

            # radius-shrink invariant, replayed step by step
            pos = list(inst.robots)
            for dx, dy, d in sch.meta["iterations"]:
                mc = minidisk(pos)
                d_pt = Point2(dx, dy)
                d_inside = dist(d_pt, mc.center) <= mc.radius + 1e-9
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
                r_after = minidisk(pos).radius
                if d_inside:
                    assert r_after <= mc.radius - d / 2.0 + 1e-9, (inst.robots, mc.radius, r_after, d)
                else:
                    assert r_after <= mc.radius + 1e-9

    _report(capsys, 6, body)


def test_criterion_7_lower_bound_achieved_by_construction(capsys):
    def body():
        rng = random.Random(7)
        witnessed = 0
        for trial in range(60):
            n = rng.randint(3, 7)
            u = rng.uniform(-0.01, 0.01)
            v = rng.uniform(-0.01, 0.01)
            pts = [(-1.0, 0.0), (1.0, 0.0)]
            for _ in range(n - 2):
                ang = rng.uniform(0.0, 2.0 * math.pi)
                rad = rng.uniform(0.0, 0.02)
                pts.append((-0.9 + u + rad * math.cos(ang), v + rad * math.sin(ang)))
            inst = make_instance(pts, 1)
            cert = check_lb_achievable(inst)
            if not (cert.applicable and cert.intersects):
                continue
            witnessed += 1
            rep = overall_cr(inst, plan_opt_f1(inst))
            assert abs(rep.overall_cr - cert.lower_bound) < 1e-6, (
                pts,
                rep.overall_cr,
                cert.lower_bound,
            )
        assert witnessed >= 50, f"only {witnessed} certified instances"

    _report(capsys, 7, body)


def _planner_sweep():
    """Schedules from every planner over seeded random instances."""
    rng = random.Random(8)
    out = []
    for trial in range(40):
        out.append((_uniform_instance(rng, rng.randint(2, 7), 0), plan_mec))
    for trial in range(40):
        out.append((_uniform_instance(rng, rng.randint(3, 8), 1), plan_opt_f1))
    for trial in range(30):
        out.append((_uniform_instance(rng, 3, 1), plan_tri))
    for trial in range(40):
        n = rng.randint(4, 10)
        out.append((_uniform_instance(rng, n, -(-n // 3) - 1), plan_centerpoint))
    for trial in range(40):
        n = rng.randint(4, 10)
        out.append((_uniform_instance(rng, n, -(-n // 2) - 1), plan_hamsandwich))
    for trial in range(30):
        n = rng.randint(2, 6)
        out.append((_uniform_instance(rng, n, rng.randint(0, n - 2)), plan_grid))
    for trial in range(40):
        n = rng.randint(2, 8)
        out.append((_uniform_instance(rng, n, rng.randint(0, n - 2)), plan_ssi))
    for trial in range(30):
        n = rng.randint(3, 8)
        out.append((_uniform_instance(rng, n, rng.randint(1, n - 2) if n > 3 else 1), plan_auto))
    for trial in range(20):
        inst = _uniform_instance(rng, rng.randint(3, 6), 1)
        target = Point2(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        out.append((inst, lambda i, t=target: plan_single_point(i, t)))
    return [(inst, planner(inst)) for inst, planner in out]


def test_criterion_8_gather_never_beats_optimum(capsys):
    def body():
        checks = 0
        for inst, sch in _planner_sweep():
            tl = ScheduleTimeline(sch)
            for mask in enumerate_reliable_subsets(inst):
                g = tl.gather_time(mask)
                assert g is not None, (inst.robots, sch.algorithm, mask)
                opt = optimal_gather_time(inst, mask)
                assert g >= opt - 1e-9, (inst.robots, sch.algorithm, mask, g, opt)
                checks += 1
        assert checks > 5000

    _report(capsys, 8, body)


def test_criterion_9_all_schedules_validate(capsys):
    def body():
        count = 0
        for inst, sch in _planner_sweep():
            assert validate_schedule(inst, sch) == [], (inst.robots, sch.algorithm)
            count += 1
        assert count >= 300

    _report(capsys, 9, body)


def test_criterion_10_worked_micro_instance(capsys):
    def body():
        inst = make_instance([(0.0, 0.0), (0.1, 0.0), (5.0, 0.0)], 1)
        sch = plan_opt_f1(inst)
        assert abs(sch.meta["t1"] - 0.05) < 1e-9
        dx, dy = sch.meta["D_prime"]
        assert abs(dx - 2.5) < 1e-9 and abs(dy) < 1e-9
        assert abs(sch.horizon - 2.5) < 1e-9

        rep = overall_cr(inst, sch)
        by_mask = {row.mask: row.cr for row in rep.subsets}
        assert set(by_mask) == {0b011, 0b101, 0b110, 0b111}
        assert abs(by_mask[0b011] - 1.0) < 1e-6
        assert abs(by_mask[0b101] - 1.0) < 1e-6
        assert abs(by_mask[0b110] - 2.5 / 2.45) < 1e-6
        assert abs(by_mask[0b111] - 1.0) < 1e-6
        assert abs(rep.overall_cr - 2.5 / 2.45) < 1e-6
        assert rep.argmax_mask == 0b110

    _report(capsys, 10, body)
