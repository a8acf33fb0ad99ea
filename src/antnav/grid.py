"""Perception: the LiDAR scan and the robot-centered local occupancy grid built from it.

Bearings are measured clockwise from the robot heading, so the world-frame
direction of a ray with bearing theta is psi - theta. The grid is
axis-aligned in the world frame and centered on the scan origin, so when the
robot sits on a world cell center with matching cell size, local cells
coincide with world cells. Each hit marks its cell: the local cell that
holds the center of the world cell the ray hit, which is that cell itself
when the local and world cells coincide. Occupied cells are inflated by
marking their 8-neighborhood (configurable ring count) as non-traversable.
Every planner's cycle plans on a local grid that perception.c's perceive
builds whole (pose test, scan, rasterize, inflate, occlusion mask, world
clamp), and planner.c's plan_cycle or apf_cycle reads it, listing the
marginal cells with marginal_cells. The grid is a pure function of the
world's occupancy at a tick, the pose and the scan arguments, so
`local_grid` keeps the grids of a world in a memo that the WorldMap owns
and every tick of it shares: the runs of a batch on one parsed world (the
seeds of compare and sweep, the three planners of compare) cast each
(tick, pose) once. This module holds what the cycle reads from Python: the
one check of the scan and grid arguments (`_scan_args`), `local_grid`, the
rays' directions (`ray_table`, one table per (heading, ray count) filled
once by the kernel's ray_directions: after its first step a robot heads
along one of 8 directions, so a run needs at most 9 tables), and
`pose_error`, which turns the kernel's pose verdict into the exception.
tests/oracles.py keeps the per-ray and per-cell loops the kernel reproduces
as the reference.
"""
from __future__ import annotations

import functools
import math

from . import kernel
from .errors import PoseInObstacle, PoseOutOfBounds
from .geometry import Pose, check_count
from .kernel import INT_MAX
from .world import WorldMap

# The most rays a scan casts: 182 times the default 360. A run's memory grows
# with the ray count (the ray tables ray_table caches and each cycle's ranges),
# so the cap bounds them, at 1.5 MiB for one table and its ranges.
MAX_RAYS = 65_536


def _scan_args(lidar_radius: float, n_rays: int, cell_size: float, half_extent: int,
               inflation_rings: int) -> tuple:
    """The kernel's scan and grid arguments (radius, n_rays, cell_size, half_extent,
    rings) of a PlannerConfig's cycle, once they pass their one check.

    Raises TypeError for an n_rays, half_extent or inflation_rings that is not
    an integer, and ValueError for a lidar_radius that is not positive and
    finite, n_rays outside 1..MAX_RAYS, a cell_size that is not positive and
    finite, a half_extent < 1, a grid of more than INT_MAX cells (the kernel
    indexes them with an int), a square that would poke out of the scan disc
    (half_extent * cell_size > lidar_radius) or inflation_rings < 0.
    """
    if not 0 < lidar_radius < math.inf:
        raise ValueError(f"lidar_radius must be positive and finite, got {lidar_radius}")
    check_count("n_rays", n_rays, 1, MAX_RAYS)
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    check_count("half_extent", half_extent, 1)
    if (2 * half_extent + 1) ** 2 > INT_MAX:
        raise ValueError(f"half_extent {half_extent} makes a local grid of more than "
                         f"{INT_MAX} cells")
    if half_extent * cell_size > lidar_radius + 1e-9:
        raise ValueError(f"half_extent {half_extent} x cell_size {cell_size} "
                         f"exceeds lidar_radius {lidar_radius}")
    check_count("inflation_rings", inflation_rings, 0)
    rings = min(inflation_rings, 2 * half_extent + 1)  # more rings add nothing
    return (lidar_radius, n_rays, cell_size, half_extent, rings)


# The most grids one world's memo keeps (local_grid). A 16-seed pass of the
# shipped corridor or moving scenario keeps 313 or 73 grids, 256 seeds 635
# or 601, at about 190 bytes a grid of 9 x 9 cells. Past the bound grids are
# still made, just not kept, so a long batch of seeds costs at most this many
# grids of memory per world. The memo takes no lock: threads that miss one key
# at once each perceive it and keep the same bytes, and each may keep one grid
# past the bound.
MEMO_GRIDS = 1024


def local_grid(world: WorldMap, pose: Pose, scan: tuple):
    """The side x side local grid (an int8_t[] of cell states) that perceive
    builds at pose on the world's occupancy at its tick, for the scan and
    grid arguments scan (a _scan_args tuple).

    The grid is looked up in the world's memo first, under (the tick when
    the world has movers, else 0; x, y, psi; scan). On a miss perceive
    builds it, and it is kept while the memo holds fewer than MEMO_GRIDS
    grids. A kept grid is never written again, so the cycles that read it
    read the bytes perceive would write for them. A coordinate or heading
    of 0.0 and one of -0.0 compare equal and share an entry: perceive writes
    the same grid for both. Raises PoseOutOfBounds / PoseInObstacle
    (pose_error) for a pose off the world's free cells, and keeps nothing
    then.
    """
    x, y, psi = pose.x, pose.y, pose.psi
    key = (world.tick if world.movers else 0, x, y, psi, scan)
    memo = world._grids
    cells = memo.get(key)
    if cells is None:
        mod = kernel.module()
        ffi, lib = mod.ffi, mod.lib
        n_rays, half_extent = scan[1], scan[3]
        cells = ffi.new("int8_t[]", (2 * half_extent + 1) ** 2)
        code = lib.perceive(*world.kernel_occupancy(), x, y, psi, ray_table(psi, n_rays),
                            *scan, ffi.new("double[]", n_rays), cells)
        if code != lib.OK:
            raise pose_error(code, world, pose)
        if len(memo) < MEMO_GRIDS:
            memo[key] = cells
    return cells


@functools.lru_cache(maxsize=16)
def ray_table(psi: float, n_rays: int):
    """The world-frame directions of the n_rays rays of a scan from heading psi,
    as the kernel's ray_directions writes them: cos and sin of
    psi - tau * i / n_rays for ray i, interleaved in a double[2 * n_rays].

    The table is filled before the cache hands it out and never written
    after, so kernel calls running in other threads may read it at once.
    A run reads at most 9 tables: its start heading and the 8 step
    directions. psi 0.0 and -0.0 share a table; ray 0's sin differs in its
    sign only, which the ray cast reads alike.
    """
    mod = kernel.module()
    dirs = mod.ffi.new("double[]", 2 * n_rays)
    mod.lib.ray_directions(psi, n_rays, dirs)
    return dirs


def pose_error(code: int, world: WorldMap, pose: Pose) -> Exception:
    """PoseOutOfBounds for the kernel's POSE_OFF_WORLD, else PoseInObstacle."""
    if code == kernel.module().lib.POSE_OFF_WORLD:
        return PoseOutOfBounds(f"pose {pose.xy} outside the world")
    cell = world.cell_of(pose.x, pose.y)  # worked out on this error path alone
    return PoseInObstacle(f"pose {pose.xy} lies on an occupied cell {cell}")
