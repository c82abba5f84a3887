"""Property tests: the all-subset tables against per-subset references.

model.radius_table is checked against exact rational enclosing circles
(util.exact_mec_radii): it may read up to EPS_GEO low (its circles cover
robots within that tolerance) but never more than a few ulps of the
coordinates high, because a radius too large makes a ratio too low.
ScheduleTimeline.gather_table must equal the per-mask gather_time
exactly, and overall_cr with explicit masks must give each mask's row.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from byzgather.analysis import GatherReport, overall_cr  # noqa: E402
from byzgather.geom import EPS_GEO, Point2  # noqa: E402
from byzgather.model import (  # noqa: E402
    MAX_COORD,
    Schedule,
    ScheduleTimeline,
    Waypoint,
    make_instance,
    radius_table,
)
from byzgather.planners import PLANNERS  # noqa: E402
from util import exact_mec_radii, random_points  # noqa: E402

sizes = st.integers(2, 7)


def _uniform(span):
    coord = st.floats(-span, span, allow_nan=False, allow_infinity=False)
    return sizes.flatmap(lambda n: st.lists(st.tuples(coord, coord), min_size=n, max_size=n))


@st.composite
def _duplicates(draw):
    pts = draw(_uniform(100.0).filter(lambda p: len(p) < 7))
    extra = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=7 - len(pts)))
    return draw(st.permutations(pts + extra))


@st.composite
def _near_coincident(draw):
    cx, cy = draw(st.tuples(*[st.floats(1.0 - MAX_COORD, MAX_COORD - 1.0)] * 2))
    spread = 10.0 ** draw(st.integers(-10, -4))
    unit = st.floats(-1.0, 1.0)
    n = draw(sizes)
    return [(cx + spread * draw(unit), cy + spread * draw(unit)) for _ in range(n)]


@st.composite
def _collinear(draw):
    (ox, oy), (dx, dy) = draw(st.tuples(*[st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))] * 2))
    ts = draw(st.lists(st.floats(-900.0, 900.0), min_size=2, max_size=7))
    return [(ox + t * dx, oy + t * dy) for t in ts]


@st.composite
def _cocircular(draw):
    cx, cy = draw(st.tuples(*[st.floats(-1e5, 1e5)] * 2))
    r = draw(st.floats(1e-3, 1e5))
    angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=2, max_size=7))
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]


point_sets = st.one_of(
    _uniform(100.0), _uniform(MAX_COORD), _duplicates(), _near_coincident(), _collinear(), _cocircular()
)


@settings(max_examples=300, deadline=None)
@given(point_sets)
def test_radius_table_within_tolerance_of_exact_circle(pts):
    table = radius_table(make_instance(pts, 0))
    exact = exact_mec_radii(pts)
    high = 1e-14 * (1.0 + max(abs(v) for p in pts for v in p))
    for mask in range(1, 1 << len(pts)):
        assert exact[mask] - EPS_GEO <= table[mask] <= exact[mask] + high, hex(mask)
    for i in range(len(pts)):
        assert table[1 << i] == 0.0


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_radius_table_exact_on_thin_acute_triangles(delta):
    # Apex opposite a short side, all on a circle of radius ~1e6: a
    # circumcenter computed relative to the apex is off by up to ~1e-3.
    high = 1e-14 * (1.0 + 1e6)
    for k in range(20):
        rot = 0.1 + 0.37 * k
        angles = (math.pi + rot, delta + rot, rot - 1.3 * delta)
        pts = [(9.9e5 * math.cos(a), 9.9e5 * math.sin(a)) for a in angles]
        table = radius_table(make_instance(pts, 0))
        assert table[0b111] <= exact_mec_radii(pts)[0b111] + high, k


def _assert_gather_table_matches(sched):
    tl = ScheduleTimeline(sched)
    for k in range(1, tl.n + 1):
        table = tl.gather_table(k)
        assert len(table) == 1 << k
        for mask in range(1, 1 << k):
            g = tl.gather_time(mask)
            assert table[mask] == (math.inf if g is None else g), (k, hex(mask))


# Few distinct places and times, so robots meet, cross and wait often.
places = st.sampled_from([0.0, 1.0, 2.0, 1.0 + 5e-8])
times = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def _random_schedule(draw):
    trajs = []
    for _ in range(draw(st.integers(1, 5))):
        ts = sorted(draw(st.lists(times, min_size=1, max_size=4)))
        trajs.append([Waypoint(t, Point2(draw(places), draw(places))) for t in ts])
    return Schedule("mec", trajs)


@settings(max_examples=200, deadline=None)
@given(_random_schedule())
def test_gather_table_equals_gather_time_on_random_schedules(sched):
    _assert_gather_table_matches(sched)


def test_gather_table_equals_gather_time_on_planned_schedules():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(2, 7)
        pts = random_points(rng, n)
        if trial % 4 == 0 and n > 3:
            pts[-1] = pts[0]
        for row in PLANNERS.values():
            f = rng.choice([k for k in range(n - 1) if row.applies(n, k)] or [None])
            if f is not None:
                _assert_gather_table_matches(row.plan(make_instance(pts, f)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_explicit_masks_give_each_masks_row(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(3, 6))
    inst = make_instance(random_points(rng, n), 1)
    sched = PLANNERS["ssi"].plan(inst)
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=20))
    rep = overall_cr(inst, sched, masks)
    tl, radius = ScheduleTimeline(sched), radius_table(inst)
    expected = []
    for m in masks:
        g, opt = tl.gather_time(m), float(radius[m])
        expected.append(GatherReport(m, g, opt, 1.0 if opt == 0.0 else g / opt))
    assert rep.subsets == expected
    crs = [row.cr for row in expected]
    assert rep.argmax_mask == masks[crs.index(max(crs))]
