"""Property test: the F = 1 oracle against a brute-force lattice minimum.

The oracle prunes cells by a Lipschitz bound; a cell dropped by mistake
shows up only as an oracle value above the brute-force minimum by more
than its guaranteed slack.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from byzgather.geom import minidisk  # noqa: E402
from byzgather.model import make_instance  # noqa: E402
from byzgather.planners import opt_point_f1, subset_radius_order  # noqa: E402
from byzgather.analysis import check_lb_achievable, oracle_opt_point  # noqa: E402
from util import brute_f1_min  # noqa: E402

coord = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
robots = st.lists(st.tuples(coord, coord), min_size=3, max_size=7)


@settings(max_examples=150, deadline=None)
@given(robots)
def test_oracle_within_guarantee_of_brute_minimum(pts):
    inst = make_instance(pts, 1)
    rs = minidisk(pts).radius
    (_, r0), (_, r1) = subset_radius_order(inst)[:2]
    # Skip near-coincident S0 (the oracle returns K0 there) and near-ties
    # between the two cheapest leave-one-out subsets (S0 is then ambiguous).
    assume(r0 > 1e-3 * rs and r1 - r0 > 1e-9 * rs)
    brute, r0, r1 = brute_f1_min(pts)
    resolution = 0.05 * rs
    oracle = oracle_opt_point(inst, resolution=resolution)
    assert oracle.cr >= opt_point_f1(inst).predicted_cr - 1e-9
    assert oracle.cr <= brute + resolution * (1.0 / r0 + 1.0 / r1)


@settings(max_examples=150, deadline=None)
@given(robots)
def test_certified_lower_bound_is_within_oracle_guarantee(pts):
    inst = make_instance(pts, 1)
    cert = check_lb_achievable(inst)
    assume(cert.intersects)
    (_, r0), (_, r1) = subset_radius_order(inst)[:2]
    resolution = 1e-3 * minidisk(pts).radius
    oracle = oracle_opt_point(inst, resolution=resolution)
    assert oracle.cr <= cert.lower_bound + resolution * (1.0 / r0 + 1.0 / r1) + 1e-9
