"""LiDAR scan model: an array of polar samples and a ray-cast scan simulator.

Bearings are measured clockwise from the robot heading, so the world-frame
direction of a ray with bearing theta is psi - theta. The kernel's ray cast
gives one range per ray; a Scan keeps the rays that hit something inside
the scan radius, one sample each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import PoseInObstacle, PoseOutOfBounds
from .geometry import Point, Pose
from .kernel import pointer
from .world import WorldMap


@dataclass(frozen=True, eq=False)
class Scan:
    """One LiDAR revolution: a (k, 2) float array of (d, theta) rows, one per returned ray.

    d is the distance in [0, radius] and theta the bearing in [0, 2pi), so
    k <= n_rays. The dataclass == is off because == on arrays is elementwise.
    """

    samples: np.ndarray
    radius: float
    n_rays: int
    origin: Pose

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.size == 0:
            samples = samples.reshape(0, 2)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must be (k, 2) rows of (d, theta), got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)
        if self.radius <= 0:
            raise ValueError("scan radius must be positive")
        if len(samples) > self.n_rays:
            raise ValueError("more samples than rays")
        d, theta = samples.T
        if not ((d >= 0) & (d <= self.radius)).all():
            raise ValueError(f"sample distances must be in [0, {self.radius}]")
        if not ((theta >= 0) & (theta < math.tau)).all():
            raise ValueError("sample bearings must be in [0, 2pi)")


def polar_to_world(origin: Pose, d: float, theta: float) -> Point:
    """World point of a sample: origin + d * (cos(psi - theta), sin(psi - theta))."""
    ang = origin.psi - theta
    return (origin.x + d * math.cos(ang), origin.y + d * math.sin(ang))


def simulate_scan(world: WorldMap, pose: Pose, radius: float, n_rays: int) -> Scan:
    """Cast n_rays equally spaced rays against the world occupancy at its current tick.

    Ray i has bearing tau * i / n_rays. The kernel's cast_rays (perception.c)
    follows each ray cell by cell (Amanatides & Woo 1987, x first on ties) to
    the first occupied cell it crosses with real length, not just through a
    corner; the sample distance is the midpoint of the ray's segment inside
    that cell, clipped to the radius. A ray that passes the radius or leaves
    the map returns no sample.

    Pure function of (world, pose, radius, n_rays); identical inputs give
    identical scans. Raises PoseOutOfBounds / PoseInObstacle when the pose is
    not on a free in-bounds cell.
    """
    occ = checked_occupancy(world, pose, radius, n_rays)
    ranges = np.empty(n_rays)
    kernel.module().lib.cast_rays(
        pointer(occ, np.bool_, occ.shape), *occ.shape, world.cell_size, pose.x, pose.y,
        pose.psi, radius, n_rays, pointer(ranges, np.float64, ranges.shape, writable=True))
    hit = np.flatnonzero(ranges < math.inf)
    # the kernel's bearing arithmetic, so the rows keep its bits
    return Scan(np.column_stack((ranges[hit], math.tau * hit / n_rays)), radius, n_rays, pose)


def checked_occupancy(world: WorldMap, pose: Pose, radius: float, n_rays: int) -> np.ndarray:
    """The world occupancy a scan from pose is cast against, once the scan arguments pass.

    Raises ValueError for a radius <= 0 or fewer than one ray, and
    PoseOutOfBounds / PoseInObstacle when the pose is not on a free
    in-bounds cell.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    cell = world.cell_of(pose.x, pose.y)
    if not world.in_bounds(cell):
        raise PoseOutOfBounds(f"pose {pose.xy} outside the world")
    occ = world.occupancy_grid()
    if occ[cell]:
        raise PoseInObstacle(f"pose {pose.xy} lies on an occupied cell {cell}")
    return occ
