"""LiDAR scan model: an array of polar samples and a ray-cast scan simulator.

Bearings are measured clockwise from the robot heading, so the world-frame
direction of a ray with bearing theta is psi - theta. Rays that hit nothing
inside the scan radius produce no sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoseInObstacle, PoseOutOfBounds
from .geometry import Point, Pose
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


_OUTSIDE = 2  # sentinel framing the occupancy grid in the ray-cast kernel


def _cast_rays(occ: np.ndarray, cell_size: float, x0: float, y0: float,
               angles: np.ndarray, radius: float) -> np.ndarray:
    """Distance to the first occupied cell along every ray, NaN where there is none.

    Exact cell-by-cell traversal (Amanatides & Woo 1987) run in lock-step over
    all rays: each pass moves every live ray one axis step (x first on ties),
    so no cell is skipped regardless of resolution. A hit returns the midpoint
    of the ray segment inside the hit cell, clipped to the radius, which keeps
    the reconstructed point in the hit cell (on its border when the cell is
    entered exactly at the radius, or when the ray runs along a grid line
    within rounding distance). Rays leave the working arrays once they hit,
    pass the radius or leave the map.
    """
    rows, cols = occ.shape
    width = cols + 2
    framed = np.full((rows + 2, width), _OUTSIDE, dtype=np.uint8)
    framed[1:-1, 1:-1] = occ
    framed = framed.ravel()
    c = math.floor(x0 / cell_size)
    r = math.floor(y0 / cell_size)
    n = len(angles)
    dx = np.fromiter(map(math.cos, angles.tolist()), float, n)
    dy = np.fromiter(map(math.sin, angles.tolist()), float, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max_x = np.where(dx > 0, ((c + 1) * cell_size - x0) / dx,
                           np.where(dx < 0, (c * cell_size - x0) / dx, np.inf))
        t_max_y = np.where(dy > 0, ((r + 1) * cell_size - y0) / dy,
                           np.where(dy < 0, (r * cell_size - y0) / dy, np.inf))
        t_delta_x = cell_size / np.abs(dx)  # inf where the ray never crosses x
        t_delta_y = cell_size / np.abs(dy)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64) * width
    at = np.full(n, (r + 1) * width + c + 1)  # flat index into framed
    ray = np.arange(n)
    dist = np.full(n, np.nan)
    # a ray through a cell corner grazes the side cells with a (numerically
    # near-)zero-length segment; only cells crossed with real interior length
    # count, which also keeps the midpoint strictly inside the hit cell
    graze_tol = 1e-9 * cell_size
    while ray.size:
        x_first = t_max_x <= t_max_y
        t_entry = np.minimum(t_max_x, t_max_y)  # the crossing x_first picks
        np.add(t_max_x, t_delta_x, out=t_max_x, where=x_first)
        np.add(t_max_y, t_delta_y, out=t_max_y, where=~x_first)
        at += np.where(x_first, step_x, step_y)
        t_exit = np.minimum(t_max_x, t_max_y)
        cell = framed[at]
        beyond = t_entry > radius
        hit = (cell == 1) & ~beyond & (t_exit - t_entry > graze_tol)
        done = hit | beyond | (cell == _OUTSIDE)
        if done.any():
            dist[ray[hit]] = np.minimum(0.5 * (t_entry[hit] + t_exit[hit]), radius)
            live = ~done
            ray, at, step_x, step_y, t_max_x, t_max_y, t_delta_x, t_delta_y = (
                a[live] for a in (ray, at, step_x, step_y, t_max_x, t_max_y, t_delta_x, t_delta_y))
    return dist


def simulate_scan(world: WorldMap, pose: Pose, radius: float, n_rays: int) -> Scan:
    """Cast n_rays equally spaced rays against the world occupancy at its current tick.

    Pure function of (world, pose, radius, n_rays); identical inputs give
    identical scans. Raises PoseOutOfBounds / PoseInObstacle when the pose is
    not on a free in-bounds cell.
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
    thetas = math.tau * np.arange(n_rays) / n_rays
    dist = _cast_rays(occ, world.cell_size, pose.x, pose.y, pose.psi - thetas, radius)
    hit = ~np.isnan(dist)
    return Scan(np.column_stack((dist[hit], thetas[hit])), radius, n_rays, pose)
