"""Command-line interface for planning and adversarial evaluation.

Subcommands: plan, eval, adversary, oracle, bench, plot. Exit codes:
0 success, 2 unreadable or malformed input, 3 planner precondition
violated (budget, size, degeneracy), 4 evaluation failure (some subset
never gathers).
"""

import argparse
import json
import sys

from .analysis import (
    bench_table,
    overall_cr,
    oracle_opt_point,
    report_to_obj,
)
from .errors import (
    DegenerateRatioError,
    GatheringError,
    SubsetNeverGathersError,
    TooSmallError,
)
from .model import (
    Instance,
    Schedule,
    dumps,
    instance_from_obj,
    schedule_from_obj,
    schedule_to_obj,
    validate_schedule,
)
from .planners import PLANNERS, plan_auto, plan_grid
from .planners import (  # unused here; the benchmark's layer tracer patches them
    plan_centerpoint,
    plan_hamsandwich,
    plan_mec,
    plan_opt_f1,
    plan_ssi,
    plan_tri,
)
from .render import render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_EVAL = 4

ALGORITHMS = (*PLANNERS, "auto")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_instance(path: str) -> Instance:
    return instance_from_obj(_load_json(path))


def _load_schedule(path: str) -> Schedule:
    return schedule_from_obj(_load_json(path))


def _write_text(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plan_for(args, instance: Instance) -> Schedule:
    if args.alg == "auto":
        return plan_auto(instance)
    if args.alg == "grid":
        return plan_grid(instance, d_eps=args.d_eps)
    return PLANNERS[args.alg].plan(instance)


def cmd_plan(args) -> int:
    instance = _load_instance(args.input)
    schedule = _plan_for(args, instance)
    text = dumps(schedule_to_obj(schedule))
    info = sys.stdout if args.output else sys.stderr
    _write_text(args.output, text)
    print(f"algorithm: {schedule.algorithm}", file=info)
    print(f"horizon: {schedule.horizon:.12g}", file=info)
    if "predicted_cr" in schedule.meta:
        print(f"predicted_cr: {schedule.meta['predicted_cr']:.12g}", file=info)
    return EXIT_OK


def _parse_subsets(spec: str, n: int):
    if spec == "all":
        return None
    masks = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        mask = int(part, 0)
        if not 0 < mask < (1 << n):
            raise ValueError(f"subset mask {part} out of range for {n} robots")
        masks.append(mask)
    if not masks:
        raise ValueError("no subset masks given")
    return masks


def cmd_eval(args) -> int:
    instance = _load_instance(args.input)
    schedule = _load_schedule(args.schedule)
    violations = validate_schedule(instance, schedule)
    if violations:
        for v in violations:
            print(f"violation: {v}")
    else:
        print("schedule valid")
    masks = _parse_subsets(args.subsets, instance.n)
    report = overall_cr(instance, schedule, masks)
    for row in report.subsets:
        print(
            f"subset {row.mask:#x}: gather={row.gather_time:.12g} "
            f"optimal={row.optimal_time:.12g} cr={row.cr:.12g}"
        )
    print(f"overall_cr: {report.overall_cr:.12g} (argmax {report.argmax_mask:#x})")
    if args.output:
        _write_text(args.output, dumps(report_to_obj(report)))
    return EXIT_OK


def cmd_adversary(args) -> int:
    instance = _load_instance(args.input)
    schedule = _load_schedule(args.schedule)
    report = overall_cr(instance, schedule)
    text = dumps(report_to_obj(report))
    info = sys.stdout if args.output else sys.stderr
    _write_text(args.output, text)
    print(
        f"overall_cr: {report.overall_cr:.12g} (argmax {report.argmax_mask:#x})",
        file=info,
    )
    if report.bound is not None:
        verdict = "within" if report.bound_satisfied else "EXCEEDS"
        print(f"bound: {report.bound:.12g} ({verdict})", file=info)
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _load_instance(args.input)
    try:
        result = oracle_opt_point(instance, resolution=args.resolution)
    except TooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"D: ({result.point.x:.12g}, {result.point.y:.12g})")
    print(f"cr: {result.cr:.12g}")
    if args.output:
        obj = {"D": [result.point.x, result.point.y], "cr": result.cr}
        _write_text(args.output, dumps(obj))
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench_table(seed=args.seed, per_row=args.per_row)
    header = (
        f"{'regime':<28} {'algorithm':<12} {'runs':>4} "
        f"{'worst_cr':>10} {'bound':<28} {'slack':>10} ok"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.label:<28} {row.algorithm:<12} {row.instances:>4} "
            f"{row.worst_cr:>10.6f} {row.bound_desc:<28} "
            f"{row.worst_slack:>10.2e} {'yes' if row.ok else 'NO'}"
        )
    if args.output:
        obj = [row._asdict() for row in rows]
        _write_text(args.output, dumps(obj))
    return EXIT_OK if all(row.ok for row in rows) else EXIT_EVAL


def cmd_plot(args) -> int:
    instance = _load_instance(args.input)
    schedule = _load_schedule(args.schedule)
    _write_text(args.output, render_svg(instance, schedule))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzgather",
        description="Plan and adversarially evaluate robot gathering schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute a schedule for an instance")
    p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--output", help="schedule JSON path (default stdout)")
    p.add_argument("--d-eps", type=float, help="grid planner cell unit")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", help="validate and evaluate a schedule")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument(
        "--subsets",
        default="all",
        help="'all' or comma-separated subset masks (e.g. 3,5,0x6)",
    )
    p.add_argument("--output", help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("adversary", help="worst-case subset report for a schedule")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument("--output", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("oracle", help="exhaustive-search F=1 target reference")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument(
        "--resolution", type=float, help="finest cell half-diagonal (default r_S/1000)"
    )
    p.add_argument("--output", help="result JSON path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="bound table over random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-row", type=int, default=100, help="instances per regime")
    p.add_argument("--output", help="table JSON path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="render instance and schedule to SVG")
    p.add_argument("--input", required=True, help="instance JSON path")
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument("--output", help="SVG path (default stdout)")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SubsetNeverGathersError, DegenerateRatioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except GatheringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
