"""Property test: the F = 1 oracle against a brute-force lattice minimum.

The oracle prunes cells by a Lipschitz bound; a cell dropped by mistake
shows up only as an oracle value above the brute-force minimum by more
than its guaranteed slack.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from byzgather import (  # noqa: E402
    make_instance,
    minidisk,
    opt_point_f1,
    oracle_opt_point,
    subset_radius_order,
)
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
