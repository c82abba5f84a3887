"""Property test: the CLI meets any JSON input with a documented exit code.

Starts from a well-formed instance and schedule (planned where the planner
accepts the instance), replaces a few fields with arbitrary JSON values,
and runs plan, eval, adversary, oracle and plot on the result. cli.main
must return 0, 2, 3 or 4; a raised exception is a program bug, not bad
input.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from byzgather.cli import ALGORITHMS, main  # noqa: E402
from byzgather.model import MAX_COORD  # noqa: E402

EXIT_CODES = {0, 2, 3, 4}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
coord = st.floats(-MAX_COORD, MAX_COORD) | st.integers(-2, 2)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _child(node, key):
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list) and isinstance(key, int) and key < len(node):
        return node[key]
    return None


def _corrupt(data, obj, paths):
    """Set one of the given key paths to any JSON value, if it still exists."""
    *parents, last = data.draw(st.sampled_from(paths))
    value = data.draw(json_values)
    for key in parents:
        obj = _child(obj, key)
    if isinstance(obj, dict) or _child(obj, last) is not None:
        obj[last] = value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_exit_code_is_documented_on_any_json(data):
    n = data.draw(st.integers(2, 5))
    robots = data.draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=n, max_size=n))
    inst = {"robots": robots, "F": data.draw(st.integers(0, n - 2))}
    alg = data.draw(st.sampled_from(ALGORITHMS))
    d_eps = [f"--d-eps={data.draw(st.floats())!r}"] if alg == "grid" else []
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        sched_path = os.path.join(tmp, "sched.json")
        _write(inst_path, inst)
        plan = ["plan", "--alg", alg, *d_eps, "--input", inst_path]
        assert _run([*plan, "--output", sched_path]) in EXIT_CODES
        if os.path.exists(sched_path):
            with open(sched_path, encoding="utf-8") as fh:
                sched = json.load(fh)
        else:
            sched = {
                "algorithm": alg,
                "trajectories": [[[0.0, *p], [1.0, 0.0, 0.0]] for p in robots],
                "meta": {"D": [0.0, 0.0]},
            }
        paths = [("robots",), ("F",)] + [("robots", i, j) for i in range(n) for j in (0, 1)]
        for _ in range(data.draw(st.integers(0, 2))):
            _corrupt(data, inst, paths)
        sched.setdefault("meta", {})
        trajs = sched["trajectories"]
        paths = [("algorithm",), ("trajectories",), ("meta",)]
        paths += [("meta", key) for key in ("D", "D_prime", "d_eps")]
        paths += [("trajectories", i) for i in range(len(trajs))]
        paths += [("trajectories", i, k) for i, tr in enumerate(trajs) for k in range(len(tr))]
        paths += [
            ("trajectories", i, k, j)
            for i, tr in enumerate(trajs)
            for k in range(len(tr))
            for j in range(3)
        ]
        for _ in range(data.draw(st.integers(0, 3))):
            _corrupt(data, sched, paths)
        _write(inst_path, inst)
        _write(sched_path, sched)
        inputs = ["--input", inst_path]
        both = [*inputs, "--schedule", sched_path]
        for argv in (
            plan,
            ["eval", *both],
            ["adversary", *both],
            ["oracle", *inputs],
            ["plot", *both],
        ):
            assert _run(argv) in EXIT_CODES, argv
