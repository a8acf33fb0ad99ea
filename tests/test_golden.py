"""Golden outputs: the seed-determined bytes of `antnav run`, `compare` and `sweep`.

Every planner change is expected to keep these digests. A change that moves
one on purpose updates it here and says so, with the acceptance verdicts
before and after.
"""
import hashlib
import math
import sys
from pathlib import Path

import pytest

from antnav.cli import main
from antnav.geometry import sequential_sum

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()

TRAJECTORY_SHA256 = {
    "multi_obstacle": "42dc97aa03a1009303300d22367e3d39a9c17bc2c288ddc2a4309f9d3556a6d6",
    "corridor": "70d90862d7c7f207c78ebae735e3b4193748ec03af4cdb59da306dadc83d9a28",
    "moving": "b8c26e356acee4a69556f72da874093e96846f3aa7ef74e3cd41d79c2da34782",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_run_trajectory_digest(name, tmp_path):
    out = tmp_path / name
    code = main(["run", "--scenario", str(SCENARIOS / f"{name}.scn"),
                 "--out", str(out), "--no-plot"])
    assert code == 0
    assert sha256(out / "trajectory.csv") == TRAJECTORY_SHA256[name]


# every compare CSV except timings.csv (wall clock) for multi_obstacle.scn,
# --repeats 2, all three planners
COMPARE_SHA256 = {
    "aco_series_conventional-aco.csv": "8dd2345f8cfbaae5b6b5fb1b501f04987fe0e479d9900d7831a002c350ca0047",
    "aco_series_proposed.csv": "9d32cb932d22a2f81af8f71a56fb645dbb91fa0b7a9caf81d66dbf5c19d721ae",
    "compare_runs.csv": "4f941ccfbac366f5490dae7010e31bafa71642062033c301e5ed4ecdf0e0d268",
    "comparison.csv": "bddfb90d39505d9076f6e784cafd4b90e8809fded182fb1f3e830ed7b489f42e",
    "distance_apf.csv": "05d9b205c41b16775d7e9e6c84879a6bc541c870ae51fad196bb570ba9445752",
    "distance_conventional-aco.csv": "e94ef2a033ebc5036ff9547af82ac45250430b6a00217de7e7b225a12f804ab7",
    "distance_proposed.csv": "b4eda211df02868a45824527dc73ac544b4c1904268c695a8a039a7f33c9a86d",
}


def test_compare_digests(tmp_path):
    code = main(["compare", "--scenario", str(SCENARIOS / "multi_obstacle.scn"),
                 "--out", str(tmp_path), "--repeats", "2"])
    assert code == 0
    written = {p.name for p in tmp_path.glob("*.csv")} - {"timings.csv"}
    assert written == set(COMPARE_SHA256)
    assert {name: sha256(tmp_path / name) for name in written} == COMPARE_SHA256


# both sweep CSVs for multi_obstacle.scn with weights.groups, --repeats 2
SWEEP_SHA256 = {
    "sweep.csv": "c05c23c47c3407584aea5e0a2f6d678c0aec45b427a38481dc452f2486bd3959",
    "sweep_runs.csv": "2a35973ed458f8c1aaf9217054efba206f0101f98bbc4cd7f594b0d07046c5a1",
}


def test_sweep_digests(tmp_path):
    code = main(["sweep", "--scenario", str(SCENARIOS / "multi_obstacle.scn"),
                 "--groups", str(SCENARIOS / "weights.groups"),
                 "--out", str(tmp_path), "--repeats", "2"])
    assert code == 0
    assert {p.name: sha256(p) for p in tmp_path.glob("*.csv")} == SWEEP_SHA256


# plot.svg of `antnav run` (plot on by default) and the run's exit code;
# sealed.scn ends stuck, exit 2
PLOT_SHA256 = {
    "corridor": (0, "1d960ab0b7067c67f76ec366d6c9adfc84c25e34ec9db7c98b0c2694a7cd383f"),
    "moving": (0, "c425ce1c3c55df35e49bde4ee7e1384f5567a2b3e43527dd867306766cc25be1"),
    "multi_obstacle": (0, "9e19bc7bdfa25a77bb88451a75ce07d202ec7a81584807327362edf478712dab"),
    "sealed": (2, "512c382bc8b178ce474a7318f7d1f397fef461bae7f7c612515421f4dbd9f664"),
}


@pytest.mark.parametrize("name", sorted(PLOT_SHA256))
def test_run_plot_digest(name, tmp_path):
    code = main(["run", "--scenario", str(SCENARIOS / f"{name}.scn"), "--out", str(tmp_path)])
    exit_code, digest = PLOT_SHA256[name]
    assert code == exit_code
    assert sha256(tmp_path / "plot.svg") == digest


def neumaier_sum(iterable, /, start=0):
    """sum() as Python 3.12 and later add: ints exactly, then floats with
    Neumaier's compensation, the compensation added once at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        if type(total) is int and type(item) in (int, bool):
            total += item
            continue
        total = total + item  # the first float ends the exact int phase
        break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    comp = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        else:
            total += float(item)
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Every antnav module sees Python 3.12's sum() in place of the builtin."""
    assert neumaier_sum([0.1] * 10) == 1.0 != sequential_sum([0.1] * 10)
    assert neumaier_sum([]) == 0 and type(neumaier_sum([2, True])) is int
    for name, module in list(sys.modules.items()):
        if name == "antnav" or name.startswith("antnav."):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


def test_digests_do_not_depend_on_the_sum_of_the_python_version(compensated_sum, tmp_path):
    for name in sorted(TRAJECTORY_SHA256):
        test_run_trajectory_digest(name, tmp_path)
    test_compare_digests(tmp_path / "compare")
    test_sweep_digests(tmp_path / "sweep")

