import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antnav import (Pose, Scan, PoseInObstacle, PoseOutOfBounds, polar_to_world,
                    simulate_scan)
from antnav.world import MovingObstacle, WorldMap

from oracles import polar_ref, rel_close


def make_world(height=15, width=15, cell_size=1.0, boxes=()):
    static = np.zeros((height, width), bool)
    for r0, c0, r1, c1 in boxes:
        static[r0:r1 + 1, c0:c1 + 1] = True
    return WorldMap(static, cell_size)


class TestPolarToWorld:
    def test_identity_case(self):
        assert polar_to_world(Pose(0, 0, 0), 1, 0) == (1.0, 0.0)

    def test_quarter_turn(self):
        x, y = polar_to_world(Pose(2, 3, math.pi / 2), 2, math.pi / 2)
        assert abs(x - 4) < 1e-12 and abs(y - 3) < 1e-12

    def test_matches_reference_formula(self):
        x, y = polar_to_world(Pose(1, 1, 0.3), 5, 1.0)
        rx, ry = polar_ref(1, 1, 0.3, 5, 1.0)
        assert rel_close(x, rx) and rel_close(y, ry)

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pose = Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-9, 9))
            d, theta = rng.uniform(0, 20), rng.uniform(0, math.tau * 0.999999)
            got = polar_to_world(pose, d, theta)
            ref = polar_ref(pose.x, pose.y, pose.psi, d, theta)
            assert rel_close(got[0], ref[0]) and rel_close(got[1], ref[1])


class TestSimulateScan:
    def test_empty_world_no_samples(self):
        world = make_world()
        scan = simulate_scan(world, Pose(7.5, 7.5, 0.2), 4.0, 360)
        assert scan.samples.shape == (0, 2)

    def test_wall_beyond_radius_invisible(self):
        world = make_world(boxes=[(0, 0, 0, 14)])
        scan = simulate_scan(world, Pose(7.5, 7.5, 0.0), 4.0, 360)
        assert scan.samples.shape == (0, 2)

    def test_single_cell_ahead(self):
        # occupied cell centered 2 m east of the robot, radius 4 m
        world = make_world(boxes=[(7, 9, 7, 9)])
        pose = Pose(7.5, 7.5, 0.0)
        scan = simulate_scan(world, pose, 4.0, 360)
        assert len(scan.samples) > 0
        diag = math.sqrt(2.0)
        for d, theta in scan.samples:
            assert abs(d - 2.0) <= diag
            x, y = polar_to_world(pose, d, theta)
            assert 9.0 - 1e-9 <= x <= 10.0 + 1e-9
            assert 7.0 - 1e-9 <= y <= 8.0 + 1e-9

    def test_round_trip_lands_in_hit_cell(self):
        rng = np.random.default_rng(5)
        world = make_world(boxes=[(7, 6, 8, 8), (3, 10, 4, 12), (11, 2, 12, 3)])
        occ = world.occupancy_grid()
        half_diag = math.sqrt(2.0) / 2.0
        for _ in range(20):
            pose = Pose(rng.uniform(1, 14), rng.uniform(1, 14), rng.uniform(-3, 3))
            if occ[world.cell_of(pose.x, pose.y)]:
                continue
            scan = simulate_scan(world, pose, 5.0, 360)
            for d, theta in scan.samples:
                assert d <= 5.0 + 1e-12
                x, y = polar_to_world(pose, d, theta)
                r, c = world.cell_of(x, y)
                cx, cy = world.cell_center((r, c))
                assert occ[r, c] or math.hypot(x - cx, y - cy) <= half_diag + 1e-9

    def test_deterministic(self):
        world = make_world(boxes=[(7, 6, 8, 8)])
        pose = Pose(3.5, 3.5, 0.7)
        a = simulate_scan(world, pose, 6.0, 240)
        b = simulate_scan(world, pose, 6.0, 240)
        assert np.array_equal(a.samples, b.samples)
        assert (a.radius, a.n_rays, a.origin) == (b.radius, b.n_rays, b.origin)

    def test_pose_errors(self):
        world = make_world(boxes=[(7, 6, 8, 8)])
        with pytest.raises(PoseOutOfBounds):
            simulate_scan(world, Pose(-1.0, 2.0, 0.0), 4.0, 90)
        with pytest.raises(PoseInObstacle):
            simulate_scan(world, Pose(6.5, 7.5, 0.0), 4.0, 90)

    @pytest.mark.parametrize("samples", [
        [(5.0, 0.0)],  # beyond the radius
        [(1.0, math.tau)],  # bearing not below 2pi
        [(-0.1, 0.0)],  # negative distance
        [(1.0, -1e-9)],  # negative bearing
        [(math.nan, 0.0)],
        [(1.0, math.nan)],
        [(1.0, 0.1 * k) for k in range(9)],  # more samples than rays
        [(1.0, 0.0, 0.0)],  # not (d, theta) rows
    ])
    def test_scan_invariants_enforced(self, samples):
        with pytest.raises(ValueError):
            Scan(samples, radius=4.0, n_rays=8, origin=Pose(0, 0, 0))

    def test_scan_accepts_rows_on_the_bounds(self):
        scan = Scan([(0.0, 0.0), (4.0, math.tau - 1e-9)], radius=4.0, n_rays=2,
                    origin=Pose(0, 0, 0))
        assert scan.samples.dtype == float and scan.samples.shape == (2, 2)
        assert Scan((), radius=4.0, n_rays=1, origin=Pose(0, 0, 0)).samples.shape == (0, 2)


@st.composite
def scan_scenes(draw):
    """A random world (static cells plus parked movers, at some tick), a pose on
    a free cell anywhere inside it, a scan radius and a ray count."""
    rows, cols = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    cell_size = draw(st.sampled_from([0.3, 0.7, 1.0, 1.5]))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    static = np.array(bits, bool).reshape(rows, cols)
    static[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = False
    movers = tuple(MovingObstacle((draw(st.tuples(st.integers(0, rows - 1),
                                                  st.integers(0, cols - 1))),))
                   for _ in range(draw(st.integers(0, 2))))
    world = WorldMap(static, cell_size, movers, tick=draw(st.integers(0, 5)))
    free = np.argwhere(~world.occupancy_grid())
    if not len(free):  # the movers covered the one free cell
        world = WorldMap(static, cell_size)
        free = np.argwhere(~static)
    r, c = (int(v) for v in free[draw(st.integers(0, len(free) - 1))])
    x = (c + draw(st.floats(0.0, 1.0, exclude_max=True))) * cell_size
    y = (r + draw(st.floats(0.0, 1.0, exclude_max=True))) * cell_size
    if world.cell_of(x, y) != (r, c):  # rounding moved the point off its cell
        x, y = world.cell_center((r, c))
    pose = Pose(x, y, draw(st.floats(-10.0, 10.0)))
    return world, pose, draw(st.floats(0.05, 12.0)), draw(st.integers(1, 400))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scan_scenes())
# pose on a grid line; a ray a hair off vertical leaves it into column 0 at once
@example((WorldMap(np.array([[True, False]]), 0.3), Pose(0.3, 0.0, 0.0), 1.0, 4))
# the ray enters the hit cell exactly at the scan radius
@example((WorldMap(np.array([[False] * 4] * 2 + [[False, False, True, False]]), 1.0),
          Pose(3.5, 2.5, 0.0), 0.5, 2))
def test_samples_map_back_into_occupied_cells(scene):
    """Every sample's world point lies in a cell occupied at that tick, or on its border.

    The point sits on the hit cell's border when the ray runs along a grid line
    within rounding distance (first example: origin + d * (cos, sin) rounds back
    onto the line the ray left at t = 0) or enters the hit cell exactly at the
    radius, where d is clipped (second example). So the point is checked 1e-9
    cells either way; which cell a corner-grazing ray hits is left to the
    differential tests in test_perception.py.
    """
    world, pose, radius, n_rays = scene
    occ = world.occupancy_grid()
    eps = 1e-9 * world.cell_size
    for d, theta in simulate_scan(world, pose, radius, n_rays).samples:
        x, y = polar_to_world(pose, d, theta)
        near = {world.cell_of(x + ex, y + ey) for ex in (-eps, 0.0, eps) for ey in (-eps, 0.0, eps)}
        assert any(world.in_bounds(cell) and occ[cell] for cell in near), (d, theta, pose, radius)
