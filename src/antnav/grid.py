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
`local_grid` keeps the grids of a world in the one memo that the WorldMap
owns and every tick of it shares: the runs of a batch on one parsed world
(the seeds of compare and sweep, the three planners of compare) cast each
(tick, pose) once. An entry is (cells, stamp, prelude): the grid, and the
cycle prelude that antnav.planner.plan_cycle last filled on it (what
planner.c's plan_cycle works out before its first random draw) stamped
with its goal and weights, or None and None. `memo_key` and `keep` hold
the memo's one key rule and one bound. This module holds what the cycle
reads from Python: the one check of the scan and grid arguments (`_scan_args`),
`local_grid`, the rays' directions (`ray_table`, one table per (heading,
ray count) filled once by the kernel's ray_directions: after its first step
a robot heads along one of 8 directions, so a run needs at most 9 tables),
and `pose_error`, which turns the kernel's pose verdict into the exception.
tests/oracles.py keeps the per-ray and per-cell loops the kernel reproduces
as the reference.
"""
from __future__ import annotations

import functools
import math

from . import kernel
from .aco import colony_error
from .errors import PoseInObstacle, PoseOutOfBounds
from .geometry import Pose, check_count
from .world import WorldMap

# The most rays a scan casts: 182 times the default 360. A run's memory grows
# with the ray count (the ray tables ray_table caches and the ranges each
# perceive casts into), so the cap bounds them, at 1.5 MiB for one table and
# its ranges.
MAX_RAYS = 65_536
# The widest local grid: 513 x 513 cells, 64 times the default 4. A run's
# memory grows with the cell count (planner.cell_tables's three tuples, about
# 25 MB at the cap, and per kept memo entry the grid and the colony prelude,
# 13 bytes a cell, about 3.4 MB at the cap), so the cap bounds them; without
# it, half_extent 20000 builds tables of 1.6e9 cells at parse time.
MAX_HALF_EXTENT = 256


def _scan_args(lidar_radius: float | None, n_rays: int, cell_size: float, half_extent: int,
               inflation_rings: int) -> tuple:
    """The kernel's scan and grid arguments (radius, n_rays, cell_size, half_extent,
    rings) of a PlannerConfig's cycle, once they pass their one check. A
    lidar_radius of None is half_extent cells, derived once those pass.

    Raises TypeError for an n_rays, half_extent or inflation_rings that is not
    an integer, and ValueError for n_rays outside 1..MAX_RAYS, a cell_size that
    is not positive and finite, a half_extent outside 1..MAX_HALF_EXTENT, a
    lidar_radius that is not positive and finite, a square that would poke
    out of the scan disc (half_extent * cell_size > lidar_radius) or
    inflation_rings < 0.
    """
    check_count("n_rays", n_rays, 1, MAX_RAYS)
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    check_count("half_extent", half_extent, 1)
    if half_extent > MAX_HALF_EXTENT:
        raise ValueError(f"half_extent must be <= {MAX_HALF_EXTENT}, got {half_extent}")
    if lidar_radius is None:
        lidar_radius = half_extent * cell_size
    if not 0 < lidar_radius < math.inf:
        raise ValueError(f"lidar_radius must be positive and finite, got {lidar_radius}")
    if half_extent * cell_size > lidar_radius + 1e-9:
        raise ValueError(f"half_extent {half_extent} x cell_size {cell_size} "
                         f"exceeds lidar_radius {lidar_radius}")
    check_count("inflation_rings", inflation_rings, 0)
    rings = min(inflation_rings, 2 * half_extent + 1)  # more rings add nothing
    return (lidar_radius, n_rays, cell_size, half_extent, rings)


# The most grid cells a world's memo keeps: an entry of a side x side grid is
# kept while the memo holds fewer than MEMO_CELLS // side**2 entries, since an
# entry holds 14 bytes a cell (1 for the grid, 13 for the prelude). That keeps
# 1024 of the shipped 9 x 9 grids (a 16-seed pass of corridor or moving keeps
# 313 or 73, 256 seeds 635 or 601), and none at the 513 x 513 cap (3.7 MB an
# entry), where each cycle perceives afresh. Past the bound entries are still
# made, just not kept; a kept key may still take a new entry. The memo takes
# no lock: a kept buffer is never written again, and an entry is one tuple,
# swapped whole. Threads that miss one key at once each make the entry and
# keep the same bytes, and each may keep one entry past the bound.
MEMO_CELLS = 1024 * 81


def memo_key(world: WorldMap, pose: Pose, scan: tuple) -> tuple:
    """The key of pose's entry in the world's memo: the tick when the world has
    movers, else 0 (a static world is the same at every tick), then x, y, psi
    and the scan arguments. A coordinate or heading of 0.0 and one of -0.0
    compare equal and share an entry."""
    return (world.tick if world.movers else 0, pose.x, pose.y, pose.psi, scan)


def keep(memo: dict, key: tuple, entry: tuple) -> None:
    """Keeps entry in a world's memo under key (a memo_key, whose scan arguments
    give the grid's side, 2 * half_extent + 1) while the memo holds fewer than
    MEMO_CELLS // side**2 entries, or in place of the entry a kept key holds."""
    if len(memo) < MEMO_CELLS // (2 * key[-1][3] + 1) ** 2 or key in memo:
        memo[key] = entry


def local_grid(world: WorldMap, pose: Pose, scan: tuple, key: tuple) -> tuple:
    """The world's memo entry (cells, stamp, prelude) under key, which is
    memo_key(world, pose, scan): cells is the side x side local grid (an
    int8_t[] of cell states) that perceive builds at pose on the world's
    occupancy at its tick, for the scan and grid arguments scan (a _scan_args
    tuple). On a miss perceive builds the grid, and (cells, None, None) is
    kept (keep). A kept grid is never written again, so the cycles that read
    it read the bytes perceive would write for them; perceive writes the same
    grid for a coordinate or heading of 0.0 and of -0.0. Raises
    PoseOutOfBounds / PoseInObstacle (pose_error) for a pose off the world's
    free cells, and MemoryError when perceive cannot allocate its ranges,
    and keeps nothing then.
    """
    memo = world._memo
    entry = memo.get(key)
    if entry is None:
        mod = kernel.module()
        ffi, lib = mod.ffi, mod.lib
        n_rays, half_extent = scan[1], scan[3]
        cells = ffi.new("int8_t[]", (2 * half_extent + 1) ** 2)
        # no range array: perceive casts the rays into scratch of its own
        code = lib.perceive(*world.kernel_occupancy(), pose.x, pose.y, pose.psi,
                            ray_table(pose.psi, n_rays), *scan, ffi.NULL, cells)
        if code != lib.OK:
            raise colony_error(code, None, None) if code == lib.NO_MEMORY \
                else pose_error(code, world, pose)
        entry = (cells, None, None)
        keep(memo, key, entry)
    return entry


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
