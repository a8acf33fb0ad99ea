import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from antnav.cli import main

from test_golden import COMPARE_SHA256, PLOT_SHA256, SWEEP_SHA256, TRAJECTORY_SHA256, sha256

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

MAP = """\
cellsize 1.0
start 2 4 0
goal 8 4
###########
#.........#
#.........#
#....##...#
#....##...#
#.........#
#.........#
#.........#
###########
"""

SCN = """\
format 1
map small.map
seed 4
ants 8
iterations 6
"""


@pytest.fixture
def small_scenario(tmp_path):
    (tmp_path / "small.map").write_text(MAP)
    (tmp_path / "small.scn").write_text(SCN)
    return tmp_path / "small.scn"


class TestCmdRun:
    def test_run_writes_outputs_and_exits_zero(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "plot.svg").exists()
        rows = list(csv.reader((out / "trajectory.csv").open()))
        assert rows[0] == ["cycle", "x", "y", "psi", "dist_to_goal"]
        assert len(rows) > 2
        summary = (out / "summary.txt").read_text()
        assert "status: goal_reached" in summary

    def test_no_plot_flag(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(small_scenario), "--out", str(out), "--no-plot"])
        assert code == 0
        assert not (out / "plot.svg").exists()

    def test_calls_in_one_process_share_no_parse_state(self, small_scenario, tmp_path, capsys):
        # the parser is built once per process: a flag or an error of one call
        # must not reach the next
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(small_scenario), "--plott"])
        assert exc.value.code == 2
        capsys.readouterr()
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--scenario", str(small_scenario), "--out", str(first),
                     "--no-plot"]) == 0
        assert main(["run", "--scenario", str(small_scenario), "--out", str(second)]) == 0
        assert not (first / "plot.svg").exists()
        assert (second / "plot.svg").is_file()
        assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()

    def test_malformed_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format 1\nmap small.map\nseed nope\n")
        code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_malformed_map_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.map").write_text("cellsize 1.0\nstart 0 0 0\ngoal 1 1\n..\n.x#\n")
        (tmp_path / "bad.scn").write_text("format 1\nmap bad.map\n")
        code = main(["run", "--scenario", str(tmp_path / "bad.scn"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 5" in capsys.readouterr().err

    def test_sealed_room_exits_two(self, tmp_path):
        code = main(["run", "--scenario", str(SCENARIOS / "sealed.scn"),
                     "--out", str(tmp_path / "o"), "--no-plot"])
        assert code == 2

    def test_svg_has_exactly_one_polyline(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        svg = (out / "plot.svg").read_text()
        assert svg.count("<polyline") == 1


class TestCmdCompare:
    def test_outputs_and_row_counts(self, small_scenario, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(small_scenario), "--out", str(out),
                     "--repeats", "3"])
        assert code == 0
        rows = list(csv.reader((out / "compare_runs.csv").open()))
        assert len(rows) == 1 + 3 * 3  # header + repeats per planner
        comparison = list(csv.reader((out / "comparison.csv").open()))
        assert comparison[0] == ["planner", "optimal_path_length",
                                 "average_path_length", "failures"]
        assert [r[0] for r in comparison[1:]] == ["proposed", "conventional-aco", "apf"]
        assert (out / "timings.csv").exists()
        assert (out / "distance_proposed.csv").exists()
        assert (out / "aco_series_proposed.csv").exists()
        assert (out / "aco_series_conventional-aco.csv").exists()
        assert not (out / "aco_series_apf.csv").exists()

    def test_unknown_planner_exits_one(self, small_scenario, tmp_path, capsys):
        code = main(["compare", "--scenario", str(small_scenario),
                     "--out", str(tmp_path / "o"), "--planner", "proposed,dijkstra"])
        assert code == 1
        assert "unknown planner" in capsys.readouterr().err

    def test_repeated_planner_exits_one(self, small_scenario, tmp_path, capsys):
        # a repeat would write each of its runs twice and count its failures twice
        code = main(["compare", "--scenario", str(small_scenario),
                     "--out", str(tmp_path / "o"), "--planner", "proposed,apf, proposed"])
        assert code == 1
        assert "planner 'proposed' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_planner_subset(self, small_scenario, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(small_scenario), "--out", str(out),
                     "--planner", "proposed", "--repeats", "2"])
        assert code == 0
        rows = list(csv.reader((out / "compare_runs.csv").open()))
        assert len(rows) == 3


class TestCmdSweep:
    def test_sweep_rows(self, small_scenario, tmp_path):
        groups = tmp_path / "w.groups"
        groups.write_text("g1 4 1.8 1 1 0\ng2 4 1.8 1 0.7 0.3\n")
        out = tmp_path / "swp"
        code = main(["sweep", "--scenario", str(small_scenario), "--out", str(out),
                     "--groups", str(groups), "--repeats", "2"])
        assert code == 0
        agg = list(csv.reader((out / "sweep.csv").open()))
        assert agg[0] == ["group", "metric", "best", "worst", "average"]
        assert len(agg) == 1 + 2 * 2  # two metrics per group
        raw = list(csv.reader((out / "sweep_runs.csv").open()))
        assert len(raw) == 1 + 2 * 2

    def test_empty_groups_exits_one(self, small_scenario, tmp_path, capsys):
        groups = tmp_path / "e.groups"
        groups.write_text("\n")
        code = main(["sweep", "--scenario", str(small_scenario),
                     "--out", str(tmp_path / "o"), "--groups", str(groups)])
        assert code == 1


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_batches_call_the_module_run_with_consecutive_seeds(small_scenario, tmp_path,
                                                           monkeypatch, command):
    # bench/run.py captures compare's runs by rebinding the name run in antnav.cli
    import antnav.cli

    seen = []
    real = antnav.cli.run
    monkeypatch.setattr(antnav.cli, "run", lambda sc: seen.append(sc.seed) or real(sc))
    groups = tmp_path / "w.groups"
    groups.write_text("g1 4 1.8 1 1 0\ng2 4 1.8 1 0.7 0.3\n")
    extra = ["--planner", "proposed,apf"] if command == "compare" else ["--groups", str(groups)]
    code = main([command, "--scenario", str(small_scenario), "--out", str(tmp_path / "o"),
                 "--repeats", "3", "--seed", "10", *extra])
    assert code == 0
    assert seen == [10, 11, 12, 10, 11, 12]


@pytest.mark.parametrize("argv, message", [
    (["run", "--seed", "-1"], "seed must be >= 0"),
    (["compare", "--repeats", "0"], "repeats must be >= 1"),
])
def test_bad_seed_or_repeats_exits_one(small_scenario, tmp_path, capsys, argv, message):
    code = main([*argv, "--scenario", str(small_scenario), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,which", [
    ("run", "--scenario"), ("sweep", "--scenario"), ("sweep", "--groups"),
])
def test_directory_argument_exits_one(small_scenario, tmp_path, capsys, command, which):
    groups = tmp_path / "w.groups"
    groups.write_text("g1 4 1.8 1 1 0\n")
    paths = {"--scenario": str(small_scenario), "--groups": str(groups), which: str(tmp_path)}
    argv = [command, "--scenario", paths["--scenario"], "--out", str(tmp_path / "o")]
    if command == "sweep":
        argv += ["--groups", paths["--groups"]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: "), err


class TestDeterminism:
    def run_cli(self, args, threads):
        # nothing in the package reads REPLAN_THREADS (runs and ants are
        # serial); the byte-identity across its values still holds
        env = dict(os.environ, REPLAN_THREADS=str(threads))
        # -m imports antnav from the working directory: no install or PYTHONPATH needed
        return subprocess.run([sys.executable, "-m", "antnav", *args],
                              capture_output=True, text=True, env=env, cwd=REPO / "src")

    def test_byte_identical_csvs_across_threads(self, small_scenario, tmp_path):
        outs = []
        for threads, name in ((0, "a"), (0, "b"), (2, "c")):
            out = tmp_path / name
            res = self.run_cli(["run", "--scenario", str(small_scenario),
                                "--out", str(out), "--no-plot"], threads)
            assert res.returncode == 0, res.stderr
            outs.append(out)
        ref = (outs[0] / "trajectory.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "trajectory.csv").read_bytes() == ref

    def test_seed_override_changes_output(self, small_scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(small_scenario), "--out", str(a), "--no-plot"])
        main(["run", "--scenario", str(small_scenario), "--out", str(b), "--no-plot",
              "--seed", "123"])
        sa = (a / "summary.txt").read_text()
        sb = (b / "summary.txt").read_text()
        assert "seed: 4" in sa and "seed: 123" in sb


# Blocks every import of numpy, imports each antnav module, runs run (plot on)
# on three scenarios, then compare and sweep, in one interpreter, and prints
# their exit codes and whether sysconfig was ever imported.
NUMPY_FREE_CHILD = """
import importlib, json, pkgutil, sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "dataclasses"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Blocked())
import antnav
for module in pkgutil.iter_modules(antnav.__path__):
    if module.name != "__main__":  # it runs the CLI
        importlib.import_module("antnav." + module.name)
from antnav.cli import main
scenarios, groups, out = sys.argv[1:]
codes = [main(["run", "--scenario", f"{scenarios}/{name}.scn", "--out", f"{out}/{name}"])
         for name in ("corridor", "moving", "multi_obstacle")]
multi = f"{scenarios}/multi_obstacle.scn"
codes += [main(["compare", "--scenario", multi, "--out", out + "/compare", "--repeats", "2"]),
          main(["sweep", "--scenario", multi, "--groups", groups, "--out", out + "/sweep",
                "--repeats", "2"])]
print(json.dumps({"codes": codes, "sysconfig": "sysconfig" in sys.modules}))
"""


def test_commands_run_without_numpy(tmp_path):
    # the commands hand the kernel bytes, so they give their golden bytes with
    # numpy unimportable; the value types generate no code, so no module of
    # the package imports dataclasses; a kernel found built needs no sysconfig
    res = subprocess.run([sys.executable, "-c", NUMPY_FREE_CHILD, str(SCENARIOS),
                          str(SCENARIOS / "weights.groups"), str(tmp_path)],
                         capture_output=True, text=True, cwd=REPO / "src")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.strip().splitlines()[-1]) == {"codes": [0] * 5,
                                                                "sysconfig": False}
    for name, digest in TRAJECTORY_SHA256.items():
        assert sha256(tmp_path / name / "trajectory.csv") == digest, name
        assert sha256(tmp_path / name / "plot.svg") == PLOT_SHA256[name][1], name
    for out, digests in (("compare", COMPARE_SHA256), ("sweep", SWEEP_SHA256)):
        assert {name: sha256(tmp_path / out / name) for name in digests} == digests
