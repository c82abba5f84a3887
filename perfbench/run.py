"""Benchmark for byzgather, run from the root of a source checkout.

    python3 perfbench/run.py --workload evaluate-large --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and README.md): evaluate-large, sweep-small.
One process, no extra threads. The program is imported from
./src and sees only the instances generated from --seed.

Each run sets up (imports byzgather, makes the first inputs) once, then
runs whole cycles of ops until the timed op total would pass --seconds.
It sets up again after each cycle, up to SETUP_REPS set-ups in all, and
reports their median, so that set-up time is sampled across the run as
the op times are. Every op is checked outside the timed
region; a failed op is counted and listed on stderr, and the run goes on.

--trace 0 prints the end-to-end metrics. --trace 1 runs each op once
untraced and then replays it with layer spans, checks that the replay
gives the same result, and prints the per-layer metrics as per-op means.
Spans are written to .perfbench_out/ when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exits 2 without a result if ./src/byzgather is missing.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from importlib.metadata import version
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 9
MODULES = ("model", "analysis", "planners", "geom", "cli")


class _Discard:
    """stdout sink for the CLI's progress lines during ops."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def load_byzgather():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return SimpleNamespace(
        **{m: importlib.import_module(f"byzgather.{m}") for m in MODULES}
    )


def set_up(name, seed, workdir):
    """Import byzgather afresh and make the prepared inputs; returns (seconds, workload, ops)."""
    for mod in [m for m in sys.modules if m == "byzgather" or m.startswith("byzgather.")]:
        del sys.modules[mod]
    t0 = perf_counter()
    wl = WORKLOADS[name](load_byzgather(), seed, workdir)
    ops = [wl.make(i) for i in range(wl.prepared)]
    return perf_counter() - t0, wl, ops


def _timed(wl, op):
    with contextlib.redirect_stdout(_Discard()):
        t0 = perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        return perf_counter() - t0, result


def _where(exc):
    """The innermost frame and the message of an exception, on one line."""
    return " ".join("".join(traceback.format_exception(exc)[-2:]).split())


def _verify(wl, op, result):
    if isinstance(result, Exception):
        return ["raised " + _where(result)], None
    try:
        return wl.check(op, result)
    except Exception as exc:
        return ["check raised " + _where(exc)], None


def run_ops(wl, seconds, make, tracer=None, between=None):
    """Run whole cycles of ops until one more cycle would pass `seconds`.

    `between`, if given, is called after each cycle, outside the timing.
    With a tracer, each op is replayed traced right after its untraced run,
    and a replay whose result key differs counts the op as failed.
    Returns (untraced times, traced times, result keys, failures).
    """
    times, traced, keys, failures = [], [], [], []
    spent = 0.0
    i = 0
    while True:
        cycle_start = spent
        for _ in range(wl.cycle):
            op = make(i)
            dt, result = _timed(wl, op)
            problems, key = _verify(wl, op, result)
            spent += dt
            if tracer is not None:
                tracer.begin_op(i)
                try:
                    _, replay = _timed(wl, op)
                finally:
                    dt_traced = tracer.end_op()
                spent += dt_traced
                traced.append(dt_traced)
                replay_key = _verify(wl, op, replay)[1]
                if replay_key != key:
                    problems.append(f"traced replay gave {replay_key}, untraced {key}")
            times.append(dt)
            keys.append(key)
            if problems:
                failures.append((op, problems))
            i += 1
        if between is not None:
            between()
        if i >= wl.digest_ops and spent + (spent - cycle_start) > seconds:
            return times, traced, keys, failures


def digest(wl, ops, keys):
    """Hash of the first `digest_ops` results (12 significant digits)."""
    h = hashlib.sha256()
    for op, key in zip(ops, keys[: wl.digest_ops]):
        text = "none" if key is None else " ".join(
            f"{v:.12g}" if isinstance(v, float) else hex(v) for v in key
        )
        h.update(f"{op.index} {op.regime} {op.instance.n} {text}\n".encode())
    return h.hexdigest()[:16]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "byzgather", "__init__.py")):
        print(f"error: no byzgather sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setups = []

        def set_up_once():
            workdir = os.path.join(tmp, f"setup-{len(setups)}")
            os.mkdir(workdir)
            seconds, wl, prepared = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
            return wl, prepared

        def set_up_again():
            if len(setups) < SETUP_REPS:
                set_up_once()

        # The ops run on the first set-up's modules and inputs; later
        # set-ups import fresh copies, which only their timing uses.
        wl, prepared = set_up_once()

        def make(i):
            return prepared[i] if i < len(prepared) else wl.make(i)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(wl.bz)
        t0 = perf_counter()
        try:
            times, traced, keys, failures = run_ops(
                wl, args.seconds, make, tracer, set_up_again)
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setups) < SETUP_REPS:
            set_up_once()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [make(i) for i in range(min(wl.digest_ops, len(keys)))]
        result_digest = digest(wl, ops, keys)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(times), len(failures)
    print(
        f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={version('numpy')} {platform.machine()}"
    )
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"ops: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    print(f"digest: {result_digest} over the first {len(ops)} ops")
    for op, problems in failures:
        inst = op.instance
        print(
            f"FAILED op {op.index} ({op.regime}, n={inst.n}, F={inst.f}, "
            f"robots={[tuple(p) for p in inst.robots]}): {'; '.join(problems)}",
            file=sys.stderr,
        )

    if tracer is None:
        metrics = {
            "op_s_p50": _metric(statistics.median(times), "s"),
            "op_s_p90": _metric(statistics.quantiles(times, n=10)[8], "s"),
            "ops_per_s": _metric(attempted / sum(times), "1/s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
        }
        print(f"samples: {attempted} ops for op_s_p50 and op_s_p90; {SETUP_REPS} set-ups")
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = _metric(sum(traced) / sum(times) - 1.0, "ratio")
        metrics["trace.ops"] = _metric(tracer.ops, "count")
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path, t0)
        print(f"spans: {spans_path}")
        print("self-time share of traced op time:")
        for name, share in tracer.self_shares():
            if share >= 0.001:
                print(f"  {share:7.1%}  {name}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
