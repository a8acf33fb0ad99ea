import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antnav import PlannerConfig, Pose, PoseInObstacle, PoseOutOfBounds
from antnav.grid import MAX_RAYS
from antnav.world import MovingObstacle, WorldMap

from oracles import polar_ref
from probes import kernel_hits, kernel_scan
from stages import occupancy, perceive


def make_world(height=15, width=15, cell_size=1.0, boxes=()):
    static = np.zeros((height, width), bool)
    for r0, c0, r1, c1 in boxes:
        static[r0:r1 + 1, c0:c1 + 1] = True
    return WorldMap(static, cell_size)


class TestSimulateScan:
    def test_empty_world_no_samples(self):
        world = make_world()
        ranges = kernel_scan(world, Pose(7.5, 7.5, 0.2), 4.0, 360)
        assert ranges.dtype == np.float64 and ranges.shape == (360,)
        assert np.isinf(ranges).all()

    def test_wall_beyond_radius_invisible(self):
        world = make_world(boxes=[(0, 0, 0, 14)])
        assert np.isinf(kernel_scan(world, Pose(7.5, 7.5, 0.0), 4.0, 360)).all()

    def test_single_cell_ahead(self):
        # occupied cell centered 2 m east of the robot, radius 4 m
        world = make_world(boxes=[(7, 9, 7, 9)])
        pose = Pose(7.5, 7.5, 0.0)
        samples = kernel_hits(world, pose, 4.0, 360)
        assert samples
        diag = math.sqrt(2.0)
        for d, theta in samples:
            assert abs(d - 2.0) <= diag
            x, y = polar_ref(pose.x, pose.y, pose.psi, d, theta)
            assert 9.0 - 1e-9 <= x <= 10.0 + 1e-9
            assert 7.0 - 1e-9 <= y <= 8.0 + 1e-9

    def test_round_trip_lands_in_hit_cell(self):
        rng = np.random.default_rng(5)
        world = make_world(boxes=[(7, 6, 8, 8), (3, 10, 4, 12), (11, 2, 12, 3)])
        occ = occupancy(world)
        half_diag = math.sqrt(2.0) / 2.0
        for _ in range(20):
            pose = Pose(rng.uniform(1, 14), rng.uniform(1, 14), rng.uniform(-3, 3))
            if occ[world.cell_of(pose.x, pose.y)]:
                continue
            for d, theta in kernel_hits(world, pose, 5.0, 360):
                assert d <= 5.0 + 1e-12
                x, y = polar_ref(pose.x, pose.y, pose.psi, d, theta)
                r, c = world.cell_of(x, y)
                cx, cy = world.cell_center((r, c))
                assert occ[r, c] or math.hypot(x - cx, y - cy) <= half_diag + 1e-9

    def test_deterministic(self):
        world = make_world(boxes=[(7, 6, 8, 8)])
        pose = Pose(3.5, 3.5, 0.7)
        a = kernel_scan(world, pose, 6.0, 240)
        b = kernel_scan(world, pose, 6.0, 240)
        assert a.shape == (240,) and np.array_equal(a, b)

    def test_pose_errors(self):
        world = make_world(boxes=[(7, 6, 8, 8)])
        with pytest.raises(PoseOutOfBounds):
            kernel_scan(world, Pose(-1.0, 2.0, 0.0), 4.0, 90)
        with pytest.raises(PoseInObstacle):
            kernel_scan(world, Pose(6.5, 7.5, 0.0), 4.0, 90)

    @pytest.mark.parametrize("radius, n_rays, message", [
        (0.0, 90, "lidar_radius must be positive and finite, got 0.0"),
        (-1.0, 90, "lidar_radius must be positive and finite, got -1.0"),
        (math.nan, 90, "lidar_radius must be positive and finite, got nan"),
        (math.inf, 90, "lidar_radius must be positive and finite, got inf"),
        (4.0, 0, "n_rays must be in 1..65536, got 0"),
        (4.0, -3, "n_rays must be in 1..65536, got -3"),
        # one past the cap, and one past the kernel's int: rejected before the
        # ray table and the ranges are allocated
        (4.0, 65537, "n_rays must be in 1..65536, got 65537"),
        (4.0, 2**31, "n_rays must be in 1..65536, got 2147483648"),
    ], ids=["radius-zero", "radius-negative", "radius-nan", "radius-inf", "rays-zero",
            "rays-negative", "rays-over-cap", "rays-int-overflow"])
    def test_scan_arguments_rejected(self, radius, n_rays, message):
        # the planner's configuration runs perceive's check, with its message
        world, pose = make_world(), Pose(7.5, 7.5, 0.0)
        calls = [lambda: perceive(world, pose, radius, n_rays, 1.0, 3, 1),
                 lambda: PlannerConfig(lidar_radius=radius, n_rays=n_rays)]
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert type(got.value) is ValueError and str(got.value) == message

    def test_ray_cap_is_accepted(self):
        grid = perceive(make_world(), Pose(7.5, 7.5, 0.0), 4.0, MAX_RAYS, 1.0, 3, 1)
        assert len(grid.ranges) == MAX_RAYS == PlannerConfig(n_rays=MAX_RAYS).n_rays


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
    free = np.argwhere(~occupancy(world))
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
    """Every hit's world point lies in a cell occupied at that tick, or on its border.

    The point sits on the hit cell's border when the ray runs along a grid line
    within rounding distance (first example: origin + d * (cos, sin) rounds back
    onto the line the ray left at t = 0) or enters the hit cell exactly at the
    radius, where d is clipped (second example). So the point is checked 1e-9
    cells either way; which cell a corner-grazing ray hits is left to the
    differential tests in test_perception.py.
    """
    world, pose, radius, n_rays = scene
    occ = occupancy(world)
    eps = 1e-9 * world.cell_size
    for d, theta in kernel_hits(world, pose, radius, n_rays):
        x, y = polar_ref(pose.x, pose.y, pose.psi, d, theta)
        near = {world.cell_of(x + ex, y + ey) for ex in (-eps, 0.0, eps) for ey in (-eps, 0.0, eps)}
        assert any(world.in_bounds(cell) and occ[cell] for cell in near), (d, theta, pose, radius)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scan_scenes())
def test_every_range_is_a_miss_or_within_the_radius(scene):
    """One float64 range per ray: +inf for a miss, else a distance in [0, radius]."""
    world, pose, radius, n_rays = scene
    ranges = kernel_scan(world, pose, radius, n_rays)
    assert ranges.dtype == np.float64 and ranges.shape == (n_rays,)
    hit = np.isfinite(ranges)
    assert (ranges[~hit] == math.inf).all()
    assert (ranges[hit] >= 0.0).all() and (ranges[hit] <= radius).all()
