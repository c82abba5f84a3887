"""Gathering location-aware robots when some of them may be unreliable.

Planners compute trajectory schedules that gather every large-enough
subset of robots; the analysis side simulates schedules exactly and
measures worst-case competitive ratios against the offline optimum (the
radius of a subset's minimum enclosing circle) over all candidate
reliable subsets. The root holds the documented API; everything else is
imported from its submodule (geom, model, planners, analysis, render,
errors).
"""

from .errors import GatheringError
from .model import (
    Instance,
    Schedule,
    Waypoint,
    dumps,
    instance_from_obj,
    instance_to_obj,
    make_instance,
    schedule_from_obj,
    schedule_to_obj,
    validate_schedule,
)
from .planners import (
    PLANNERS,
    opt_point_f1,
    plan_auto,
    plan_centerpoint,
    plan_grid,
    plan_hamsandwich,
    plan_mec,
    plan_opt_f1,
    plan_ssi,
    plan_tri,
)
from .analysis import (
    check_lb_achievable,
    lower_bound_f1,
    oracle_opt_point,
    overall_cr,
    report_to_obj,
)

__version__ = "1.0.0"
