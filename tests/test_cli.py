import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import byzgather
from byzgather.model import dumps, instance_to_obj, make_instance
from byzgather.planners import PLANNERS
from byzgather.cli import main
from util import LINE3, SQUARE

SVG_NS = "{http://www.w3.org/2000/svg}"
REPO = Path(__file__).resolve().parents[1]

# The exact `adversary --output` bytes for LINE3 at F = 1 under opt-f1.
LINE3_OPT_F1_REPORT = """\
{
  "algorithm": "opt-f1",
  "overall_cr": 1.0204081632653061,
  "argmax_mask": 6,
  "bound": 1.0204081632653061,
  "bound_satisfied": true,
  "subsets": [
    {
      "mask": 3,
      "gather_time": 0.05,
      "optimal_time": 0.05,
      "cr": 1.0
    },
    {
      "mask": 5,
      "gather_time": 2.5,
      "optimal_time": 2.5,
      "cr": 1.0
    },
    {
      "mask": 6,
      "gather_time": 2.5,
      "optimal_time": 2.45,
      "cr": 1.0204081632653061
    },
    {
      "mask": 7,
      "gather_time": 2.5,
      "optimal_time": 2.5,
      "cr": 1.0
    }
  ]
}
"""


def write_instance(tmp_path, pts, f, name="inst.json"):
    path = tmp_path / name
    path.write_text(dumps(instance_to_obj(make_instance(pts, f))))
    return str(path)


class TestPlanEvalRoundTrip:
    def test_line3_pipeline(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", sched]) == 0
        out = capsys.readouterr().out
        assert "algorithm: opt-f1" in out
        assert "horizon: 2.5" in out

        assert main(["eval", "--input", inst, "--schedule", sched]) == 0
        out = capsys.readouterr().out
        assert "schedule valid" in out
        assert "overall_cr: 1.02040816327" in out
        assert "argmax 0x6" in out

        report = str(tmp_path / "report.json")
        assert main(["adversary", "--input", inst, "--schedule", sched, "--output", report]) == 0
        obj = json.loads((tmp_path / "report.json").read_text())
        assert abs(obj["overall_cr"] - 2.5 / 2.45) < 1e-6
        assert obj["argmax_mask"] == 0b110
        assert obj["bound_satisfied"] is True

    def test_line3_adversary_report_bytes(self, tmp_path, capsys):
        # Pins the report format: key order, indentation and float repr.
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        report = tmp_path / "report.json"
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", sched]) == 0
        assert main(["adversary", "--input", inst, "--schedule", sched, "--output", str(report)]) == 0
        capsys.readouterr()
        assert report.read_text() == LINE3_OPT_F1_REPORT

    def test_reports_bit_identical_between_runs(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 1)
        sched = str(tmp_path / "sched.json")
        rep_a = str(tmp_path / "a.json")
        rep_b = str(tmp_path / "b.json")
        assert main(["plan", "--alg", "auto", "--input", inst, "--output", sched]) == 0
        assert main(["adversary", "--input", inst, "--schedule", sched, "--output", rep_a]) == 0
        assert main(["adversary", "--input", inst, "--schedule", sched, "--output", rep_b]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_schedule_json_round_trips(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        s1 = str(tmp_path / "s1.json")
        s2 = str(tmp_path / "s2.json")
        assert main(["plan", "--alg", "ssi", "--input", inst, "--output", s1]) == 0
        assert main(["plan", "--alg", "ssi", "--input", inst, "--output", s2]) == 0
        capsys.readouterr()
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_eval_subset_selection(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", sched]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", inst, "--schedule", sched, "--subsets", "0x6,7"]) == 0
        out = capsys.readouterr().out
        assert "subset 0x6:" in out and "subset 0x7:" in out
        assert "subset 0x3:" not in out

    def test_eval_prints_violations(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0.0, 0.0), (4.0, 0.0)], 0)
        sched = tmp_path / "fast.json"
        sched.write_text(
            json.dumps(
                {
                    "algorithm": "mec",
                    "trajectories": [
                        [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]],
                        [[0.0, 4.0, 0.0], [1.0, 2.0, 0.0]],
                    ],
                }
            )
        )
        assert main(["eval", "--input", inst, "--schedule", str(sched)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "violation: robot 0: speed violation on leg 1 (moved 2 in 1)",
            "violation: robot 1: speed violation on leg 1 (moved 2 in 1)",
        ]
        assert "schedule valid" not in lines

    def test_eval_and_adversary_reports_are_identical(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "hamsandwich", "--input", inst, "--output", sched]) == 0
        for cmd in ("eval", "adversary"):
            out = str(tmp_path / f"{cmd}.json")
            assert main([cmd, "--input", inst, "--schedule", sched, "--output", out]) == 0
        capsys.readouterr()
        assert (tmp_path / "eval.json").read_bytes() == (tmp_path / "adversary.json").read_bytes()

    def test_grid_d_eps_is_stored_and_bounded(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 2)
        sched = str(tmp_path / "sched.json")
        argv = ["plan", "--alg", "grid", "--input", inst, "--output", sched, "--d-eps", "0.37"]
        assert main(argv) == 0
        assert json.loads((tmp_path / "sched.json").read_text())["meta"]["d_eps"] == 0.37
        report = str(tmp_path / "report.json")
        assert main(["adversary", "--input", inst, "--schedule", sched, "--output", report]) == 0
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["bound"] == 2.0 * math.sqrt(2.0) * (16.0 + 0.37)  # closest pair 1
        assert obj["bound_satisfied"] is True
        assert "(within)" in capsys.readouterr().out

    def test_empty_subset_parts_are_skipped(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", sched]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", inst, "--schedule", sched, "--subsets", "3,,5"]) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("subset ")]
        assert [ln.split(":")[0] for ln in rows] == ["subset 0x3", "subset 0x5"]


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["plan", "--alg", "mec", "--input", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", "--alg", "mec", "--input", str(bad)]) == 2
        capsys.readouterr()

    def test_wrong_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"robots": [[0, 0]], "F": 0}')
        assert main(["plan", "--alg", "mec", "--input", str(bad)]) == 2
        capsys.readouterr()

    def test_budget_precondition(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 2)  # F = ceil(4/3) fails centerpoint
        assert main(["plan", "--alg", "centerpoint", "--input", inst]) == 3
        assert "error:" in capsys.readouterr().err

    def test_tri_wrong_size(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 1)
        assert main(["plan", "--alg", "tri", "--input", inst]) == 3
        capsys.readouterr()

    def test_never_gathering_schedule(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0.0, 0.0), (4.0, 0.0)], 0)
        sched = tmp_path / "stay.json"
        sched.write_text(
            json.dumps(
                {
                    "algorithm": "mec",
                    "trajectories": [
                        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                        [[0.0, 4.0, 0.0], [1.0, 4.0, 0.0]],
                    ],
                    "meta": {},
                }
            )
        )
        assert main(["eval", "--input", inst, "--schedule", str(sched)]) == 4
        capsys.readouterr()

    def test_fewer_trajectories_than_robots(self, tmp_path, capsys):
        # Robots 0 and 1 meet, so mask 0x3 scores; mask 0x5 names robot 2,
        # which has no trajectory.
        inst = write_instance(tmp_path, LINE3, 1)
        sched = tmp_path / "two.json"
        sched.write_text(json.dumps({"algorithm": "mec", "trajectories": [
            [[0.0, 0.0, 0.0], [1.0, 0.05, 0.0]],
            [[0.0, 0.1, 0.0], [1.0, 0.05, 0.0]],
        ]}))
        assert main(["adversary", "--input", inst, "--schedule", str(sched)]) == 2
        assert capsys.readouterr().err == "error: subset mask 0x5 exceeds 2 robots\n"

    def test_extra_trajectories_are_ignored(self, tmp_path, capsys):
        # Forty trajectories: no table may be sized by them (2**40 entries).
        inst = write_instance(tmp_path, LINE3, 1)
        sched, extra = tmp_path / "sched.json", tmp_path / "extra.json"
        rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", str(sched)]) == 0
        obj = json.loads(sched.read_text())
        obj["trajectories"] += [[[0.0, 9.0, float(i)]] for i in range(37)]
        extra.write_text(json.dumps(obj))
        for path, out in ((sched, rep_a), (extra, rep_b)):
            argv = ["adversary", "--input", inst, "--schedule", str(path), "--output", str(out)]
            assert main(argv) == 0
        capsys.readouterr()
        assert rep_a.read_text() == rep_b.read_text() == LINE3_OPT_F1_REPORT

    def test_non_finite_waypoint(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0.0, 0.0), (4.0, 0.0)], 0)
        sched = tmp_path / "nan.json"
        sched.write_text(
            json.dumps(
                {
                    "algorithm": "mec",
                    "trajectories": [
                        [[0.0, 0.0, 0.0], [math.nan, 1.0, 0.0]],
                        [[0.0, 4.0, 0.0]],
                    ],
                }
            )
        )
        assert main(["eval", "--input", inst, "--schedule", str(sched)]) == 2
        captured = capsys.readouterr()
        assert "schedule valid" not in captured.out
        assert "finite" in captured.err

    def test_bad_d_eps_on_coincident_robots(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(1.0, 1.0)] * 3, 1)
        out = tmp_path / "sched.json"
        for bad in ("nan", "-1", "0"):
            argv = ["plan", "--alg", "grid", "--input", inst, "--output", str(out)]
            assert main([*argv, "--d-eps", bad]) == 3
            assert "error: d_eps must be" in capsys.readouterr().err
            assert not out.exists()

    def test_overflowing_instance_is_input_error(self, tmp_path, capsys):
        # Finite coordinates whose distances overflow are refused, not planned.
        inst = tmp_path / "inst.json"
        inst.write_text('{"robots": [[-1e308, 0], [1e308, 0]], "F": 0}')
        out = tmp_path / "sched.json"
        assert main(["plan", "--alg", "mec", "--input", str(inst), "--output", str(out)]) == 2
        assert "within" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_subset_mask(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "mec", "--input", inst, "--output", sched]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", inst, "--schedule", sched, "--subsets", "0x100"]) == 2
        capsys.readouterr()


class TestOracleCommand:
    def test_line3(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        out_json = str(tmp_path / "oracle.json")
        code = main(
            ["oracle", "--input", inst, "--resolution", "1e-4", "--output", out_json]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("D: (")
        assert "cr: 1.02" in out
        obj = json.loads((tmp_path / "oracle.json").read_text())
        assert abs(obj["cr"] - 2.5 / 2.45) < 1e-3
        assert abs(obj["D"][0] - 0.05) < 0.01 and abs(obj["D"][1]) < 0.01

    def test_too_small_is_input_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0.0, 0.0), (1.0, 0.0)], 0)
        assert main(["oracle", "--input", inst]) == 2
        capsys.readouterr()

    def test_resolution_below_the_floor_is_precondition_error(self, tmp_path, capsys):
        inst = write_instance(tmp_path, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (5.0, 0.0)], 1)
        assert main(["oracle", "--input", inst, "--resolution", "1e-6"]) == 3
        assert "resolution must be at least" in capsys.readouterr().err


class TestPlotCommand:
    def test_svg_parses_with_polyline_per_robot(self, tmp_path, capsys):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = str(tmp_path / "sched.json")
        svg_path = tmp_path / "out.svg"
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", sched]) == 0
        assert main(
            ["plot", "--input", inst, "--schedule", sched, "--output", str(svg_path)]
        ) == 0
        capsys.readouterr()
        root = ET.fromstring(svg_path.read_text())
        assert root.tag == f"{SVG_NS}svg"
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) >= 3
        assert root.findall(f".//{SVG_NS}circle")

    def test_plot_stdout(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SQUARE, 1)
        sched = str(tmp_path / "sched.json")
        assert main(["plan", "--alg", "centerpoint", "--input", inst, "--output", sched]) == 0
        capsys.readouterr()
        assert main(["plot", "--input", inst, "--schedule", sched]) == 0
        out = capsys.readouterr().out
        ET.fromstring(out)


    @pytest.mark.parametrize("marker", ["[NaN, 1]", "[1e999, 1]", "[null, 1]", '["1", 1]'])
    def test_bad_marker_is_input_error(self, tmp_path, capsys, marker):
        inst = write_instance(tmp_path, LINE3, 1)
        sched = tmp_path / "sched.json"
        assert main(["plan", "--alg", "opt-f1", "--input", inst, "--output", str(sched)]) == 0
        obj = json.loads(sched.read_text())
        obj["meta"]["D"] = "@"
        sched.write_text(json.dumps(obj).replace('"@"', marker))
        svg = tmp_path / "out.svg"
        assert main(["plot", "--input", inst, "--schedule", str(sched), "--output", str(svg)]) == 2
        assert "error: D must be" in capsys.readouterr().err
        assert not svg.exists()


class TestBenchCommand:
    def test_small_run(self, tmp_path, capsys):
        out_json = str(tmp_path / "bench.json")
        assert main(["bench", "--seed", "3", "--per-row", "2", "--output", out_json]) == 0
        out = capsys.readouterr().out
        assert "regime" in out and "worst_cr" in out
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert len(rows) >= 5
        assert all(r["ok"] for r in rows)

    def test_per_row_zero_is_precondition_error(self, tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        assert main(["bench", "--per-row", "0", "--output", str(out_json)]) == 3
        assert "per_row must be at least 1" in capsys.readouterr().err
        assert not out_json.exists()


class TestPlannerNames:
    def test_readme_cli_and_table_agree(self, capsys):
        # The README's planner table, the --alg choices and PLANNERS list
        # the same algorithms in the same order.
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Planners", 1)[1].split("\n\n", 2)[1]
        documented = re.findall(r"^\| `([\w-]+)`", table, re.M)
        with pytest.raises(SystemExit):
            main(["plan", "--help"])
        choices = re.search(r"--alg \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert documented == choices.split(",") == [*PLANNERS, "auto"]


class TestReadmeLibrary:
    def _section(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        return readme.split("## Library", 1)[1].split("\n## ", 1)[0]

    def test_python_block_runs_verbatim(self, capsys):
        block = re.search(r"```python\n(.*?)```", self._section(), re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out == "1.0204081632653061 0x6\n"

    def test_listed_names_are_the_package_root(self):
        # The names the README lists are exactly the public names of the
        # package root, submodules aside.
        listed = self._section().split("The package root exports", 1)[1]
        listed = listed.split("Everything else", 1)[0]
        documented = set(re.findall(r"`(\w+)`", listed))
        exported = {
            name for name, value in vars(byzgather).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert documented == exported and len(exported) == 26


class TestReadmeCli:
    def test_shell_block_output_matches(self, tmp_path, monkeypatch, capsys):
        # Replays the README's `## CLI` session: `cat` writes the shown file,
        # each `byzgather` command must print exactly the lines shown.
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        commands = [c for c in block.split("$ ") if c.strip()]
        assert len(commands) == 3
        for chunk in commands:
            command, *expected = chunk.strip().splitlines()
            prog, *argv = command.split()
            if prog == "cat":
                Path(argv[0]).write_text("\n".join(expected) + "\n")
                continue
            assert prog == "byzgather"
            assert main(argv) == 0, command
            assert capsys.readouterr().out.splitlines() == expected, command


def _script_target():
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "byzgather" in scripts
    return scripts["byzgather"]


def _assert_plan_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: byzgather plan")
    assert "--alg" in proc.stdout


class TestConsoleScript:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "byzgather.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("plan", "eval", "adversary", "oracle", "bench", "plot"):
            assert name in proc.stdout

    def test_entry_point(self):
        # The console script exists only after `pip install`, so check the
        # [project.scripts] mapping itself: run its target the way the
        # generated wrapper does, against this checkout's sources.
        target = _script_target()
        assert re.fullmatch(r"[\w.]+:\w+", target), target
        module, attr = target.split(":")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        code = f"import sys; from {module} import {attr} as f; sys.exit(f())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "plan", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        _assert_plan_help(proc)

    @pytest.mark.skipif(
        shutil.which("byzgather") is None,
        reason="byzgather console script not installed",
    )
    def test_installed_executable(self):
        (ep,) = entry_points(group="console_scripts", name="byzgather")
        assert ep.value == _script_target(), "installed byzgather is out of date"
        proc = subprocess.run(
            ["byzgather", "plan", "--help"], capture_output=True, text=True
        )
        _assert_plan_help(proc)
