"""Perception: the LiDAR scan and the robot-centered local occupancy grid built from it.

Bearings are measured clockwise from the robot heading, so the world-frame
direction of a ray with bearing theta is psi - theta. The grid is
axis-aligned in the world frame and centered on the scan origin, so when the
robot sits on a world cell center with matching cell size, local cells
coincide with world cells. Each hit marks its cell: the local cell that
holds the center of the world cell the ray hit, which is that cell itself
when the local and world cells coincide. Occupied cells are inflated by
marking their 8-neighborhood (configurable ring count) as non-traversable.
Every planner's cycle runs the whole stage (pose test, scan, rasterize,
inflate, occlusion mask, world clamp) inside one call of planner.c's
plan_cycle or apf_cycle, through perception.c's perceive, and lists the
marginal cells with planner.c's marginal_cells. This module holds what the
cycle reads from Python: the one check of the scan and grid arguments
(`_scan_args`), the rays' directions (`ray_table`, one table per (heading,
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
