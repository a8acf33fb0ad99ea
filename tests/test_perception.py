"""Differential tests: the compiled perception stage against the per-ray and
per-cell reference loops in oracles.py, compared for exact equality."""
import math
import struct

import numpy as np
import pytest

from antnav import (MovingObstacle, MoverPolicy, PlannerConfig, Pose, PoseInObstacle,
                    PoseOutOfBounds, kernel)
from antnav.grid import _scan_args, local_grid, memo_key, ray_table
from antnav.world import WorldMap

from oracles import (FREE, ROBOT, candidates_ref, clamp_ref, local_grid_ref, occlude_ref,
                     reachable_ref, scan_ref, without_cells)
from probes import kernel_hits, kernel_scan
from stages import CellState, GridGraph, NoCandidates, candidate_cells, occupancy, perceive

STEP_HEADINGS = [math.atan2(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                 if (dr, dc) != (0, 0)]
RAY_COUNTS = [360, 7, 97, 250, 361]


def random_world(rng, cell_size, border):
    rows, cols = (int(v) for v in rng.integers(8, 30, size=2))
    static = rng.random((rows, cols)) < rng.uniform(0.03, 0.3)
    if border:
        static[[0, -1], :] = True
        static[:, [0, -1]] = True
    movers = []
    for _ in range(int(rng.integers(0, 3))):
        wps = [(int(rng.integers(1, rows - 1)), int(rng.integers(1, cols - 1)))]
        for _ in range(int(rng.integers(1, 6))):
            r, c = wps[-1]
            wps.append((min(max(r + int(rng.integers(-1, 2)), 0), rows - 1),
                        min(max(c + int(rng.integers(-1, 2)), 0), cols - 1)))
        movers.append(MovingObstacle(tuple(wps), int(rng.integers(1, 3)),
                                     MoverPolicy.PINGPONG))
    return WorldMap(static, cell_size, tuple(movers), tick=int(rng.integers(0, 10)))


def random_pose(rng, world, on_edge):
    occ = occupancy(world)
    free = np.argwhere(~occ)
    if on_edge:
        rows, cols = occ.shape
        free = free[(free[:, 0] < 2) | (free[:, 0] >= rows - 2)
                    | (free[:, 1] < 2) | (free[:, 1] >= cols - 2)]
    if not len(free):
        return None
    r, c = (int(v) for v in free[rng.integers(len(free))])
    heading = rng.integers(3)
    psi = (STEP_HEADINGS[int(rng.integers(8))] if heading == 0
           else math.radians(float(rng.integers(0, 360))) if heading == 1
           else float(rng.uniform(-7.0, 7.0)))
    if rng.random() < 0.7:  # planner poses sit on cell centers
        x, y = world.cell_center((r, c))
    else:
        x = (c + float(rng.uniform(0.01, 0.99))) * world.cell_size
        y = (r + float(rng.uniform(0.01, 0.99))) * world.cell_size
    return Pose(x, y, psi)


def reference_chain(world, pose, samples, n_rays, cell_size, h, rings):
    origin = (pose.x, pose.y, pose.psi)
    cells = local_grid_ref(samples, world.cell_size, origin, cell_size, h, rings)
    occluded = occlude_ref(cells, samples, n_rays, origin, cell_size, h)
    return cells, occluded, clamp_ref(occluded, origin, cell_size, h,
                                      occupancy(world).shape, world.cell_size)


@pytest.mark.parametrize("cell_size", [0.3, 1.0, 1.5])
def test_perception_matches_reference_loops(cell_size):
    rng = np.random.default_rng(int(cell_size * 10))
    fired = {"occlusion": 0, "clamp": 0, "samples": 0, "candidates": 0}
    cases = 0
    while cases < 120:
        world = random_world(rng, cell_size, border=rng.random() < 0.5)
        pose = random_pose(rng, world, on_edge=rng.random() < 0.3)
        if pose is None:
            continue
        cases += 1
        n_rays = RAY_COUNTS[int(rng.integers(len(RAY_COUNTS)))]
        h = int(rng.integers(2, 6))
        rings = int(rng.integers(0, 3))
        radius = h * cell_size * (1.0 if rng.random() < 0.5 else float(rng.uniform(1.0, 1.6)))

        samples = scan_ref(occupancy(world), world.cell_size, pose.x, pose.y,
                           pose.psi, radius, n_rays)
        assert kernel_hits(world, pose, radius, n_rays) == without_cells(samples)
        fired["samples"] += len(samples)

        grid = perceive(world, pose, radius, n_rays, cell_size, h, rings)
        raw, occluded, expected = reference_chain(world, pose, samples, n_rays,
                                                  cell_size, h, rings)
        assert grid.cells.dtype == np.int8
        assert np.array_equal(grid.cells, expected)
        # local_grid hands perceive no range array: it casts into scratch of its own
        scan = _scan_args(radius, n_rays, cell_size, h, rings)
        kept, _, _ = local_grid(world, pose, scan, memo_key(world, pose, scan))
        assert bytes(kept) == grid.cells.tobytes()
        fired["occlusion"] += int((occluded != raw).any())
        fired["clamp"] += int((expected != occluded).any())

        ref_candidates = candidates_ref(expected, (pose.x, pose.y), cell_size, h)
        if ref_candidates:
            assert candidate_cells(grid).cells == tuple(ref_candidates)
            fired["candidates"] += 1
        else:
            with pytest.raises(NoCandidates):
                candidate_cells(grid)

        # the planner's reachability: traversable_mask, then the kernel's search
        reach = GridGraph(grid.traversable_mask(), cell_size).reachable_from(grid.center_cell)
        traversable = [[state in (FREE, ROBOT) for state in row] for row in expected.tolist()]
        assert set(map(tuple, np.argwhere(reach).tolist())) == reachable_ref(traversable, (h, h))
    # every branch the reference takes was exercised
    assert all(count > 0 for count in fired.values()), fired


def test_kernel_matches_scalar_rays_in_open_and_cluttered_worlds():
    rng = np.random.default_rng(41)
    for density in (0.0, 0.05, 0.5):
        for _ in range(30):
            cell_size = float(rng.choice([0.3, 1.0, 1.5]))
            static = rng.random((25, 25)) < density
            static[12, 12] = False
            world = WorldMap(static, cell_size)
            pose = Pose(*world.cell_center((12, 12)), float(rng.uniform(-4, 4)))
            n_rays = RAY_COUNTS[int(rng.integers(len(RAY_COUNTS)))]
            radius = float(rng.uniform(0.5, 20.0)) * cell_size
            assert kernel_hits(world, pose, radius, n_rays) == without_cells(scan_ref(
                static, cell_size, pose.x, pose.y, pose.psi, radius, n_rays))


def test_occlusion_bearing_on_a_half_sector_tie():
    # The diagonal cell three rows up and three columns left of this off-center
    # pose lies half-way between rays 1 and 2 of 12 (math.atan2 gives
    # 1.4999999999999993 sectors here, so it reads ray 1, a close hit, and is
    # occluded); a bearing one ulp larger, as np.arctan2 gives, reads ray 2,
    # which has no hit, and leaves it free.
    static = np.zeros((14, 26), bool)
    static[6, 16] = True
    world = WorldMap(static, 1.0)
    pose = Pose(18.394643278335018, 5.934330455755014, math.pi)
    dx, dy = (pose.x - 3.0) - pose.x, (pose.y + 3.0) - pose.y
    bearing = (pose.psi - math.atan2(dy, dx)) % math.tau / (math.tau / 12)
    assert abs(bearing - 1.5) < 1e-12
    grid = perceive(world, pose, 4.0, 12, 1.0, 4, 0)
    samples = scan_ref(static, 1.0, pose.x, pose.y, pose.psi, 4.0, 12)
    raw, occluded, expected = reference_chain(world, pose, samples, 12, 1.0, 4, 0)
    assert raw[7, 1] == CellState.FREE
    assert np.array_equal(grid.cells, expected)


def test_every_ray_count_reads_its_own_ray():
    # The kernel's scan is one range per ray, and the occlusion reads a cell's
    # ray at range[round(bearing / sector) % n_rays]: ray i's own bearing,
    # tau * i / n_rays, must map back to i for every ray count.
    rng = np.random.default_rng(64)
    occluded = 0
    for n_rays in [*range(1, 65), 720, 1009, 3600]:
        worlds = 0
        while worlds < 3:
            cell_size = float(rng.choice([0.3, 1.0, 1.5]))
            world = random_world(rng, cell_size, border=rng.random() < 0.5)
            pose = random_pose(rng, world, on_edge=False)
            if pose is None:
                continue
            worlds += 1
            h, rings = int(rng.integers(2, 6)), int(rng.integers(0, 2))
            radius = h * cell_size * float(rng.uniform(1.0, 1.6))
            samples = scan_ref(occupancy(world), world.cell_size, pose.x, pose.y,
                               pose.psi, radius, n_rays)
            assert kernel_hits(world, pose, radius, n_rays) == without_cells(samples)
            raw, masked, expected = reference_chain(world, pose, samples, n_rays,
                                                    cell_size, h, rings)
            grid = perceive(world, pose, radius, n_rays, cell_size, h, rings)
            assert np.array_equal(grid.cells, expected), n_rays
            occluded += int((masked != raw).any())
    assert occluded >= 100, occluded


def assert_grid_marks_the_hit_cells(world, pose, h):
    """For a pose on a cell center, equal cell sizes and the default radius
    h * cell_size: every OCCUPIED in-world cell of perceive's grid is occupied
    in the world, and every hit cell inside the square is OCCUPIED."""
    cs, occ = world.cell_size, occupancy(world)
    grid = perceive(world, pose, h * cs, 360, cs, h, 0)
    r0, c0 = (v - h for v in world.cell_of(pose.x, pose.y))  # world cell of local (0, 0)
    for r, c in np.argwhere(grid.cells == CellState.OCCUPIED).tolist():
        cell = (r0 + r, c0 + c)
        assert not world.in_bounds(cell) or occ[cell], (pose, h, cell)
    for _, _, (hr, hc) in scan_ref(occ, cs, pose.x, pose.y, pose.psi, h * cs, 360):
        r, c = hr - r0, hc - c0
        if 0 <= r <= 2 * h and 0 <= c <= 2 * h:
            assert grid.cells[r, c] == CellState.OCCUPIED, (pose, h, (hr, hc))


@pytest.mark.parametrize("psi", [-math.pi / 2, math.pi], ids=["psi-minus-half-pi", "psi-pi"])
def test_hit_at_the_radius_marks_its_own_cell(psi):
    # The ray at world angle -30 degrees enters cell (2, 4) at t = 1.0, the
    # radius. Its clipped range, read back as a polar point, lies on the
    # cell's top border and would round into the free cell east of the robot.
    static = np.zeros((7, 7), bool)
    static[2, 4] = True
    world, pose = WorldMap(static, 1.0), Pose(3.5, 3.5, psi)
    assert perceive(world, pose, 1.0, 360, 1.0, 1, 0).cells.tolist() == [
        [0, 0, 1], [0, 3, 0], [0, 0, 0]]
    assert_grid_marks_the_hit_cells(world, pose, 1)


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_grid_marks_exactly_the_hit_cells(h):
    rng = np.random.default_rng(500 + h)
    for _ in range(150):
        world = random_world(rng, float(rng.choice([0.3, 1.0, 1.5])), rng.random() < 0.5)
        free = np.argwhere(~occupancy(world))
        x, y = world.cell_center(tuple(free[rng.integers(len(free))].tolist()))
        pose = Pose(x, y, math.pi * int(rng.integers(-4, 5)) / 4)
        assert_grid_marks_the_hit_cells(world, pose, h)


def kernel_hit_cells(world, pose, radius, n_rays):
    """The world cells the kernel's rays hit, read off perceive's grid of local
    cells half a world cell wide: the mark of a hit then lands on the local cell
    centered on the hit cell's center, one local cell per hit cell and never the
    robot's, for a pose on cell centers and boundaries. The square spans the
    radius; the clamp's OCCUPIED cells, centered off the world, are left out."""
    h = int(2 * radius / world.cell_size)
    grid = perceive(world, pose, radius, n_rays, world.cell_size / 2, h, 0)
    cells = {world.cell_of(*grid.world_center(cell))
             for cell in map(tuple, np.argwhere(grid.cells == CellState.OCCUPIED).tolist())}
    return {cell for cell in cells if world.in_bounds(cell)}


AXIS_HEADINGS = [0.0, math.pi / 2, -math.pi / 2, math.pi]


@pytest.mark.parametrize("cell_size", [1.0, 1.5, 0.3])
def test_ray_steps_on_cell_boundaries_corners_and_axes(cell_size):
    # From a cell corner, a ray toward lower x and lower y starts with
    # t_max_x == t_max_y == -0.0, and every other ray with a -0.0 on one axis
    # when it heads toward lower x or lower y, as does a ray from a cell
    # boundary; later boundaries tie at exact corner crossings. A heading
    # along an axis with n_rays a multiple of 4 casts a ray of direction
    # exactly (1, 0), whose y delta is infinite, and rays about 1e-16 off an
    # axis, which run along a grid line from a boundary pose. The kernel's
    # ranges must be scan_ref's to the bit, the sign of a zero included, and
    # its hit cells scan_ref's.
    rng = np.random.default_rng(2028)
    on_line = {"corner": (True, True), "vertical": (True, False),
               "horizontal": (False, True), "center": (False, False)}
    for trial in range(48):
        static = rng.random((10, 10)) < rng.uniform(0.05, 0.4)
        kind = list(on_line)[trial % 4]
        r, c = (int(v) for v in rng.integers(1, 9, size=2))
        x, y = ((v + (0.0 if line else 0.5)) * cell_size
                for v, line in zip((c, r), on_line[kind]))
        psi = AXIS_HEADINGS[int(rng.integers(4))] if trial % 3 else \
            math.pi * int(rng.integers(-3, 5)) / 4
        n_rays = 4 * int(rng.choice([1, 2, 9, 90]))
        static[int(math.floor(y / cell_size)), int(math.floor(x / cell_size))] = False
        world, pose = WorldMap(static, cell_size), Pose(x, y, psi)  # on a free cell
        # the second radius passes the world's diagonal, so that every hit cell
        # lies in kernel_hit_cells's square
        for radius in (float(rng.uniform(0.5, 4.0)) * cell_size, 15.0 * cell_size):
            samples = scan_ref(static, cell_size, x, y, psi, radius, n_rays)
            want = [math.inf] * n_rays
            for d, theta, _ in samples:
                want[round(theta / math.tau * n_rays)] = d
            got = kernel_scan(world, pose, radius, n_rays).tolist()
            assert [struct.pack("d", v) for v in got] == [struct.pack("d", v) for v in want], \
                (kind, pose, radius, n_rays)
        assert kernel_hit_cells(world, pose, radius, n_rays) == {
            cell for _, _, cell in samples}, (kind, pose, n_rays)


def test_perceive_rejects_what_scan_and_grid_reject():
    # PlannerConfig runs the same scan and grid checks, with the same messages
    static = np.zeros((10, 10), bool)
    static[6, 6] = True
    world = WorldMap(static, 1.0)
    good = dict(pose=Pose(4.5, 4.5, 0.3), lidar_radius=4.0, n_rays=90, cell_size=1.0,
                half_extent=3, inflation_rings=1)
    bad = [("pose", Pose(-1.0, 2.0, 0.0), PoseOutOfBounds, "pose (-1.0, 2.0) outside the world"),
           ("pose", Pose(6.5, 6.5, 0.0), PoseInObstacle,
            "pose (6.5, 6.5) lies on an occupied cell (6, 6)"),
           ("lidar_radius", 0.0, ValueError, "lidar_radius must be positive and finite, got 0.0"),
           ("n_rays", 0, ValueError, "n_rays must be in 1..65536, got 0"),
           ("n_rays", 90.0, TypeError, "n_rays must be an integer, got 90.0"),
           ("half_extent", 0, ValueError, "half_extent must be >= 1"),
           ("half_extent", 5, ValueError,
            "half_extent 5 x cell_size 1.0 exceeds lidar_radius 4.0"),
           # past the grid cap, far below the 23170 at which the grid's cells pass a C int
           ("half_extent", 257, ValueError, "half_extent must be <= 256, got 257"),
           ("half_extent", 23170, ValueError, "half_extent must be <= 256, got 23170"),
           ("inflation_rings", -1, ValueError, "inflation_rings must be >= 0")]
    for key, value, error, message in bad:
        args = {**good, key: value}
        calls = [lambda: perceive(world, **args)]
        if key != "pose":
            calls.append(lambda: PlannerConfig(**{k: v for k, v in args.items() if k != "pose"}))
        for call in calls:
            with pytest.raises(error) as got:
                call()
            assert type(got.value) is error and str(got.value) == message, (key, value)


def test_ray_directions_are_the_bearing_expression_bit_for_bit():
    # the ray table is the only place a ray bearing is computed: entry i must
    # be math.cos / math.sin of psi - tau * i / n, the expression the cast
    # used per cycle, to the last bit
    rng = np.random.default_rng(19)
    headings = rng.uniform(-math.pi, math.pi, size=12).tolist() + STEP_HEADINGS \
        + [math.pi, -math.pi, 0.0]
    mod = kernel.module()
    for n in [*range(1, 65), 360, 1009, 3600]:
        dirs = mod.ffi.new("double[]", 2 * n)
        for psi in headings:
            mod.lib.ray_directions(psi, n, dirs)
            want = []
            for i in range(n):
                angle = psi - math.tau * i / n
                want += [math.cos(angle).hex(), math.sin(angle).hex()]
            assert [v.hex() for v in mod.ffi.unpack(dirs, 2 * n)] == want, (psi, n)


def test_ray_table_is_one_filled_table_per_heading_and_ray_count():
    mod = kernel.module()
    for psi, n in ((STEP_HEADINGS[0], 360), (STEP_HEADINGS[0], 120), (0.25, 360)):
        table = ray_table(psi, n)
        assert ray_table(psi, n) is table
        fresh = mod.ffi.new("double[]", 2 * n)
        mod.lib.ray_directions(psi, n, fresh)
        assert mod.ffi.unpack(table, 2 * n) == mod.ffi.unpack(fresh, 2 * n)
        assert len(table) == 2 * n
    assert ray_table(0.25, 360) is not ray_table(0.25, 120)
    assert ray_table.cache_info().maxsize <= 16


def test_ray_tables_shared_between_threads_are_whole():
    # kernel calls in different threads share the tables, as they share a
    # world's memo; with more keys than the cache holds, tables are made,
    # evicted and made again while other threads read theirs
    import sys
    import threading

    mod = kernel.module()
    keys = [(psi, n) for psi in STEP_HEADINGS + [0.5, -2.0, 3.0] for n in (90, 360)]
    want = {}
    for psi, n in keys:
        dirs = mod.ffi.new("double[]", 2 * n)
        mod.lib.ray_directions(psi, n, dirs)
        want[psi, n] = mod.ffi.unpack(dirs, 2 * n)
    assert len(keys) > ray_table.cache_info().maxsize
    bad = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            psi, n = keys[int(rng.integers(len(keys)))]
            if mod.ffi.unpack(ray_table(psi, n), 2 * n) != want[psi, n]:
                bad.append((psi, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad, bad[:3]
