"""Golden outputs: the seed-determined bytes of `antnav run` on the shipped scenarios.

Every planner change is expected to keep these digests. A change that moves
one on purpose updates it here and says so, with the acceptance verdicts
before and after.
"""
import hashlib
from pathlib import Path

import pytest

from antnav.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
    digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_SHA256[name]
