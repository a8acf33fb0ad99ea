"""Perception: the LiDAR scan and the robot-centered local occupancy grid built from it.

Bearings are measured clockwise from the robot heading, so the world-frame
direction of a ray with bearing theta is psi - theta. The grid is
axis-aligned in the world frame and centered on the scan origin, so when the
robot sits on a world cell center with matching cell size, local cells
coincide with world cells. Each hit marks its cell: the local cell that
holds the center of the world cell the ray hit, which is that cell itself
when the local and world cells coincide. Occupied cells are inflated by
marking their 8-neighborhood (configurable ring count) as non-traversable.
`perceive` runs the whole stage (pose test, scan, rasterize, inflate,
occlusion mask, world clamp) in one call of the compiled kernel
(perception.c, built on first use by kernel.py), and `pose_error` turns
the kernel's pose verdict into the exception; the grid keeps the scan, one
range per ray. The rays' directions come from `ray_table`, one table per
(heading, ray count) filled once by the kernel's ray_directions: after its
first step a robot heads along one of 8 directions, so a run needs at most
9 tables.
`candidate_cells` lists a grid's marginal cells with planner.c's
marginal_cells. Every planner's cycle runs these same kernel functions in
one call of planner.c's plan_cycle or apf_cycle and builds no LocalGrid.
tests/oracles.py keeps the per-ray and per-cell loops they reproduce as the
reference.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import kernel
from .errors import NoCandidates, PoseInObstacle, PoseOutOfBounds
from .geometry import Cell, Point, Pose, check_count
from .kernel import INT_MAX, pointer
from .world import WorldMap

if TYPE_CHECKING:
    import numpy as np

# The most rays a scan casts: 182 times the default 360. A run's memory grows
# with the ray count (the ray tables ray_table caches and each cycle's ranges),
# so the cap bounds them, at 1.5 MiB for one table and its ranges.
MAX_RAYS = 65_536


class CellState(enum.IntEnum):
    FREE = 0
    OCCUPIED = 1
    INFLATED = 2
    ROBOT = 3


@dataclass(frozen=True, eq=False)
class LocalGrid:
    """Square 2*half_extent+1 grid of CellState; the robot occupies the exact center.

    Grids compare and hash by identity: their cells and ranges are arrays.
    """

    center: Pose
    cell_size: float
    half_extent: int
    cells: np.ndarray  # int8 array of CellState, shape (side, side)
    ranges: np.ndarray  # float64 range per ray of the scan the grid was built from

    @property
    def side(self) -> int:
        return 2 * self.half_extent + 1

    @property
    def center_cell(self) -> Cell:
        return (self.half_extent, self.half_extent)

    def world_center(self, cell: Cell) -> Point:
        r, c = cell
        return (self.center.x + (c - self.half_extent) * self.cell_size,
                self.center.y + (r - self.half_extent) * self.cell_size)

    def traversable_mask(self) -> np.ndarray:
        """Boolean mask of cells an ant may occupy: free cells plus the robot cell. The
        compiled cycles test the same two states on their own cells."""
        return (self.cells == CellState.FREE) | (self.cells == CellState.ROBOT)


@dataclass(frozen=True)
class CandidateSet:
    """Sub-goal candidates: (cell, world center) pairs in row-major order."""

    cells: tuple[tuple[Cell, Point], ...]


def _scan_args(lidar_radius: float, n_rays: int, cell_size: float, half_extent: int,
               inflation_rings: int) -> tuple:
    """The kernel's scan and grid arguments (radius, n_rays, cell_size, half_extent,
    rings) of perceive and PlannerConfig, once they pass the one check of both.

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


def perceive(world: WorldMap, pose: Pose, lidar_radius: float, n_rays: int, cell_size: float,
             half_extent: int, inflation_rings: int) -> LocalGrid:
    """Local grid from a fresh scan: rasterized, inflated, occlusion-masked, clamped to the world.

    The scan casts n_rays equally spaced rays against the world at its
    current tick; ray i has bearing tau * i / n_rays. Each ray is followed
    cell by cell (Amanatides & Woo 1987, x first on ties) to the first
    occupied cell it crosses with real length, not just through a corner;
    its range is the midpoint of the ray's segment inside that cell, clipped
    to the radius, and a ray that passes the radius or leaves the map reads
    inf. The grid keeps the ranges; they do not depend on the grid
    arguments.

    Pure function of its arguments. Raises as _scan_args does, then
    PoseOutOfBounds / PoseInObstacle when the pose's world cell
    (WorldMap.cell_of) lies outside the world or is occupied at its tick.
    """
    import numpy as np
    args = _scan_args(lidar_radius, n_rays, cell_size, half_extent, inflation_rings)
    side = 2 * half_extent + 1
    cells = np.empty((side, side), dtype=np.int8)
    ranges = np.empty(n_rays)
    lib = kernel.module().lib
    code = lib.perceive(
        *world.kernel_occupancy(), pose.x, pose.y, pose.psi, ray_table(pose.psi, n_rays),
        *args, pointer(ranges, np.float64, ranges.shape, writable=True),
        pointer(cells, np.int8, cells.shape, writable=True))
    if code != lib.OK:
        raise pose_error(code, world, pose)
    return LocalGrid(pose, cell_size, half_extent, cells, ranges)


def candidate_cells(grid: LocalGrid) -> CandidateSet:
    """Marginal free cells eligible as sub-goals, by the kernel's marginal_cells.

    A free cell is marginal when it lies on the outer ring of the square or is
    8-adjacent to an occupied/inflated cell. Raises NoCandidates when the set
    is empty (robot enclosed).
    """
    import numpy as np
    ids = np.empty(grid.cells.size, dtype=np.int32)
    k = kernel.module().lib.marginal_cells(pointer(grid.cells, np.int8, (grid.side,) * 2),
                                           grid.side,
                                           pointer(ids, np.int32, ids.shape, writable=True))
    if not k:
        raise NoCandidates("no free marginal cells around the robot")
    cells = [divmod(i, grid.side) for i in ids[:k].tolist()]
    return CandidateSet(tuple((cell, grid.world_center(cell)) for cell in cells))
