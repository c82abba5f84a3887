import json
import math
import random

import pytest

from byzgather.errors import EmptySetError, TooLargeError
from byzgather.geom import Point2, dist
from byzgather.model import (
    EPS_MEET,
    MAX_COORD,
    Instance,
    Schedule,
    ScheduleTimeline,
    Waypoint,
    dumps,
    enumerate_reliable_subsets,
    instance_from_obj,
    instance_to_obj,
    make_instance,
    optimal_gather_time,
    position_at,
    schedule_from_obj,
    schedule_to_obj,
    validate_schedule,
)
from byzgather.planners import (
    plan_centerpoint,
    plan_grid,
    plan_mec,
    plan_opt_f1,
    plan_single_point,
    plan_ssi,
)
from util import LINE3, TRI_202, popcount, random_points


class TestInstance:
    def test_basic(self):
        inst = make_instance([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)], 1)
        assert inst.n == 3 and inst.f == 1
        assert inst.robots[1] == Point2(1.0, 2.0)

    def test_too_few_robots(self):
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0)], 0)

    def test_budget_range(self):
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0), (1.0, 0.0)], 1)  # F > n-2
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], -1)
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], True)

    def test_finite_coords(self):
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0), (math.nan, 1.0)], 0)
        with pytest.raises(ValueError):
            make_instance([(0.0, 0.0), (math.inf, 1.0)], 0)

    def test_non_numbers_refused(self):
        for bad in ("1", True, None):
            with pytest.raises(ValueError, match="must be a number"):
                make_instance([(0.0, 0.0), (bad, 1.0)], 0)

    def test_coordinate_bound(self):
        inst = make_instance([(-MAX_COORD, MAX_COORD), (MAX_COORD, -MAX_COORD)], 0)
        assert inst.robots == (Point2(-1e6, 1e6), Point2(1e6, -1e6))
        beyond = math.nextafter(MAX_COORD, math.inf)
        for p in ((beyond, 0.0), (0.0, -beyond), (-1e308, 0.0), (10**400, 0.0)):
            with pytest.raises(ValueError):
                make_instance([(0.0, 0.0), p], 0)

    def test_robots_stored_as_point2_floats(self):
        inst = Instance(([0, 1], (2, 3.5)), 0)
        assert inst.robots == (Point2(0.0, 1.0), Point2(2.0, 3.5))
        assert all(type(p) is Point2 and type(p.x) is float for p in inst.robots)


class TestPositionAt:
    def test_interpolation_and_clamping(self):
        traj = [Waypoint(0.0, Point2(0.0, 0.0)), Waypoint(2.0, Point2(2.0, 0.0))]
        assert position_at(traj, -1.0) == Point2(0.0, 0.0)
        assert position_at(traj, 1.0) == Point2(1.0, 0.0)
        assert position_at(traj, 5.0) == Point2(2.0, 0.0)

    def test_repeated_time_wait(self):
        traj = [
            Waypoint(0.0, Point2(1.0, 1.0)),
            Waypoint(1.0, Point2(1.0, 1.0)),
            Waypoint(1.0, Point2(1.0, 1.0)),
            Waypoint(3.0, Point2(3.0, 1.0)),
        ]
        assert position_at(traj, 0.5) == Point2(1.0, 1.0)
        assert position_at(traj, 2.0) == Point2(2.0, 1.0)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            position_at([], 0.0)


class TestValidateSchedule:
    def test_planner_outputs_clean(self):
        rng = random.Random(201)
        for trial in range(50):
            pts = random_points(rng, rng.randint(3, 7))
            inst = make_instance(pts, 1)
            for sch in (plan_mec(inst), plan_opt_f1(inst), plan_ssi(inst)):
                assert validate_schedule(inst, sch) == []

    def test_speed_violation(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=(
                (Waypoint(0.0, Point2(0.0, 0.0)), Waypoint(1.0, Point2(2.0, 0.0))),
                (Waypoint(0.0, Point2(4.0, 0.0)), Waypoint(1.0, Point2(2.0, 0.0))),
            ),
        )
        errs = validate_schedule(inst, sch)
        assert errs and all("speed" in e for e in errs)

    def test_start_mismatch(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=(
                (Waypoint(0.0, Point2(0.5, 0.0)),),
                (Waypoint(0.0, Point2(4.0, 0.0)),),
            ),
        )
        errs = validate_schedule(inst, sch)
        assert any("start" in e for e in errs)

    def test_nonmonotone_times(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=(
                (
                    Waypoint(0.0, Point2(0.0, 0.0)),
                    Waypoint(2.0, Point2(1.0, 0.0)),
                    Waypoint(1.0, Point2(1.0, 0.0)),
                ),
                (Waypoint(0.0, Point2(4.0, 0.0)),),
            ),
        )
        errs = validate_schedule(inst, sch)
        assert any("monotone" in e or "decreas" in e for e in errs)

    def test_wrong_trajectory_count(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0), (1.0, 1.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=((Waypoint(0.0, Point2(0.0, 0.0)),),),
        )
        assert validate_schedule(inst, sch) != []

    def test_non_finite_waypoint(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        nan_t = Waypoint(math.nan, Point2(1.0, 0.0))
        inf_x = Waypoint(1.0, Point2(math.inf, 0.0))
        for bad in (nan_t, inf_x):
            sch = Schedule(
                algorithm="mec",
                trajectories=(
                    (Waypoint(0.0, Point2(0.0, 0.0)), bad),
                    (Waypoint(0.0, Point2(4.0, 0.0)),),
                ),
            )
            assert validate_schedule(inst, sch) == ["robot 0: non-finite waypoint 1"]

    def test_empty_trajectory_and_late_start(self):
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=((), (Waypoint(0.5, Point2(4.0, 0.0)),)),
        )
        assert validate_schedule(inst, sch) == [
            "robot 0: empty trajectory",
            "robot 1: first waypoint at t=0.5, expected t=0",
        ]


class TestGatherTime:
    def test_two_robots_meet_at_midpoint(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        sch = plan_mec(inst)
        assert abs(ScheduleTimeline(sch).gather_time(0b11) - 1.0) < 1e-9

    def test_singleton_zero(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        sch = plan_mec(inst)
        assert ScheduleTimeline(sch).gather_time(0b01) == 0.0

    def test_line3_single_point_schedule(self):
        inst = make_instance(LINE3, 1)
        sch = plan_single_point(inst, Point2(0.05, 0.0))
        tl = ScheduleTimeline(sch)
        assert abs(tl.gather_time(0b011) - 0.05) < 1e-9
        assert abs(tl.gather_time(0b111) - 2.5) < 1e-9

    def test_never_gathers_is_none(self):
        inst = make_instance([(0.0, 0.0), (9.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=(
                (Waypoint(0.0, Point2(0.0, 0.0)), Waypoint(1.0, Point2(0.0, 0.0))),
                (Waypoint(0.0, Point2(9.0, 0.0)), Waypoint(1.0, Point2(9.0, 0.0))),
            ),
        )
        assert ScheduleTimeline(sch).gather_time(0b11) is None

    def test_empty_and_out_of_range_masks(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        tl = ScheduleTimeline(plan_mec(inst))
        with pytest.raises(EmptySetError):
            tl.gather_time(0)
        with pytest.raises(ValueError):
            tl.gather_time(0b100)

    def test_interior_meeting_detected(self):
        # Crossing robots meet strictly between waypoints.
        inst = make_instance([(0.0, 0.0), (4.0, 0.0)], 0)
        sch = Schedule(
            algorithm="mec",
            trajectories=(
                (Waypoint(0.0, Point2(0.0, 0.0)), Waypoint(4.0, Point2(4.0, 0.0))),
                (Waypoint(0.0, Point2(4.0, 0.0)), Waypoint(4.0, Point2(0.0, 0.0))),
            ),
        )
        assert abs(ScheduleTimeline(sch).gather_time(0b11) - 2.0) < 1e-9

    def test_reported_instant_is_a_true_meeting(self):
        rng = random.Random(202)
        for trial in range(60):
            pts = random_points(rng, rng.randint(3, 6))
            inst = make_instance(pts, 1)
            sch = plan_opt_f1(inst)
            tl = ScheduleTimeline(sch)
            for mask in enumerate_reliable_subsets(inst):
                t = tl.gather_time(mask)
                assert t is not None
                sel = [i for i in range(inst.n) if mask >> i & 1]
                pos = [position_at(sch.trajectories[i], t) for i in sel]
                worst = max(
                    dist(a, b) for k, a in enumerate(pos) for b in pos[k + 1 :]
                ) if len(pos) > 1 else 0.0
                assert worst <= 2.0 * EPS_MEET

    def test_subset_no_later_than_full_set(self):
        rng = random.Random(203)
        for trial in range(40):
            pts = random_points(rng, rng.randint(3, 6))
            inst = make_instance(pts, inst_f := rng.randint(1, len(pts) - 2))
            sch = plan_ssi(inst)
            tl = ScheduleTimeline(sch)
            full = (1 << inst.n) - 1
            t_full = tl.gather_time(full)
            assert t_full is not None
            for mask in enumerate_reliable_subsets(inst):
                t = tl.gather_time(mask)
                assert t is not None and t <= t_full + 1e-9

    def test_masks_are_the_meeting_relation_and_gather_is_earliest(self):
        # At every candidate time the packed mask is exactly the relation
        # "within EPS_MEET" of the robots' positions there, and a subset's
        # gather time is the first candidate at which all its pairs meet.
        rng = random.Random(204)
        planners = (plan_ssi, plan_grid, plan_centerpoint, plan_mec)
        for trial in range(60):
            pts = random_points(rng, rng.randint(2, 7))
            if trial % 5 == 0:
                pts[-1] = pts[0]
            inst = make_instance(pts, 0)
            sch = planners[trial % 4](inst)
            tl = ScheduleTimeline(sch)
            n = inst.n
            rels = []
            for t, bits in zip(tl.times, tl.pair_masks):
                pos = [position_at(tr, t) for tr in sch.trajectories]
                rel = {
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if dist(pos[i], pos[j]) <= EPS_MEET
                }
                assert bits == sum(1 << (i * n + j) for i, j in rel), (trial, t)
                rels.append(rel)
            for mask in range(1, 1 << n):
                sel = [i for i in range(n) if mask >> i & 1]
                if len(sel) < 2:
                    continue
                first = next(
                    (
                        t
                        for t, rel in zip(tl.times, rels)
                        if all((i, j) in rel for i in sel for j in sel)
                    ),
                    None,
                )
                assert tl.gather_time(mask) == first, (trial, mask)


class TestOptimalGatherTime:
    def test_examples(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        assert abs(optimal_gather_time(inst, 0b11) - 1.0) < 1e-9
        assert optimal_gather_time(inst, 0b10) == 0.0
        inst3 = make_instance(TRI_202, 0)
        assert abs(optimal_gather_time(inst3, 0b111) - 1.25) < 1e-9

    def test_empty_subset_raises(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        with pytest.raises(EmptySetError):
            optimal_gather_time(inst, 0)

    def test_high_bit_raises(self):
        # Robots 0 and 1 alone are 5 apart; the stray bit must not be dropped.
        inst = make_instance([(0.0, 0.0), (10.0, 0.0), (0.0, 30.0)], 0)
        with pytest.raises(ValueError, match="exceeds 3 robots"):
            optimal_gather_time(inst, (1 << 5) | 3)


class TestEnumerateReliableSubsets:
    def test_n3_f1(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1)
        masks = enumerate_reliable_subsets(inst)
        assert masks == [0b011, 0b101, 0b110, 0b111]

    def test_n3_f0(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 0)
        assert enumerate_reliable_subsets(inst) == [0b111]

    def test_n4_f2_count(self):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 2)
        masks = enumerate_reliable_subsets(inst)
        assert len(masks) == 11
        assert masks == sorted(masks)
        assert all(popcount(m) >= 2 for m in masks)

    def test_too_large_guard(self):
        inst = make_instance([(float(i), 0.0) for i in range(25)], 1)
        with pytest.raises(TooLargeError):
            enumerate_reliable_subsets(inst)

    def test_min_popcount_two(self):
        # F = n - 2 leaves pairs as the smallest adversarial subsets.
        inst = make_instance([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1)
        assert min(popcount(m) for m in enumerate_reliable_subsets(inst)) == 2


class TestJsonFormats:
    def test_instance_round_trip_exact(self):
        rng = random.Random(204)
        for trial in range(50):
            pts = [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(4)]
            inst = make_instance(pts, 2)
            obj = json.loads(dumps(instance_to_obj(inst)))
            back = instance_from_obj(obj)
            assert back.robots == inst.robots  # bit-exact floats
            assert back.f == inst.f

    def test_instance_format_shape(self):
        inst = make_instance([(0.0, 0.0), (0.1, 0.0), (5.0, 0.0)], 1)
        obj = instance_to_obj(inst)
        assert set(obj) == {"robots", "F"}
        assert obj["robots"] == [[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]]
        assert obj["F"] == 1

    def test_instance_malformed(self):
        for bad in (
            [],
            {},
            {"robots": [[0, 0]], "F": 0},
            {"robots": [[0, 0], [1]], "F": 0},
            {"robots": [[0, 0], [1, 0]], "F": "x"},
            {"robots": "nope", "F": 0},
            {"robots": [[0, 0], [10**400, 0]], "F": 0},
        ):
            with pytest.raises(ValueError):
                instance_from_obj(bad)

    def test_schedule_round_trip_exact(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        obj = json.loads(dumps(schedule_to_obj(sch)))
        back = schedule_from_obj(obj)
        assert back.algorithm == sch.algorithm
        assert back.trajectories == sch.trajectories
        assert back.meta == sch.meta

    def test_schedule_format_shape(self):
        inst = make_instance([(0.0, 0.0), (2.0, 0.0)], 0)
        obj = schedule_to_obj(plan_mec(inst))
        assert obj["algorithm"] == "mec"
        assert isinstance(obj["trajectories"], list)
        assert all(len(w) == 3 for traj in obj["trajectories"] for w in traj)

    def test_schedule_malformed(self):
        for bad in (
            [],
            {"algorithm": 3, "trajectories": [[[0, 0, 0]]]},
            {"algorithm": "mec", "trajectories": []},
            {"algorithm": "mec", "trajectories": [[[0, 0]]]},
            {"algorithm": "mec", "trajectories": [[[0, 0, 0]]], "meta": 5},
            {"algorithm": "mec", "trajectories": [[[math.nan, 0, 0]]]},
            {"algorithm": "mec", "trajectories": [[[0, math.inf, 0]]]},
            {"algorithm": "mec", "trajectories": [[[0, 0, -math.inf]]]},
            {"algorithm": "mec", "trajectories": [[[0, 10**400, 0]]]},
        ):
            with pytest.raises(ValueError):
                schedule_from_obj(bad)

    def test_dumps_deterministic(self):
        inst = make_instance(LINE3, 1)
        sch = plan_opt_f1(inst)
        a = dumps(schedule_to_obj(sch))
        b = dumps(schedule_to_obj(plan_opt_f1(inst)))
        assert a == b
        assert a.endswith("\n")
