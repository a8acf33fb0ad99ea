"""LiDAR scan model: polar samples, sector bucketing, and a ray-cast scan simulator.

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


@dataclass(frozen=True)
class ScanSample:
    """One returned ray: relative distance d (m) and relative bearing theta in [0, 2pi)."""

    d: float
    theta: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("sample distance must be >= 0")
        if not 0.0 <= self.theta < math.tau:
            raise ValueError("sample bearing must be in [0, 2pi)")


@dataclass(frozen=True)
class Scan:
    """One LiDAR revolution: only returned rays are stored, so len(samples) <= n_rays."""

    samples: tuple[ScanSample, ...]
    radius: float
    n_rays: int
    origin: Pose

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("scan radius must be positive")
        if len(self.samples) > self.n_rays:
            raise ValueError("more samples than rays")
        for s in self.samples:
            if s.d > self.radius:
                raise ValueError(f"sample distance {s.d} exceeds radius {self.radius}")


def polar_to_world(origin: Pose, sample: ScanSample) -> Point:
    """World point of a sample: origin + d * (cos(psi - theta), sin(psi - theta))."""
    ang = origin.psi - sample.theta
    return (origin.x + sample.d * math.cos(ang), origin.y + sample.d * math.sin(ang))


def sector_of(sample: ScanSample, n_sectors: int) -> int:
    """Sector id in 1..n_sectors for a bearing; sectors equally divide [0, 2pi)."""
    if n_sectors < 1:
        raise ValueError("n_sectors must be >= 1")
    idx = int(sample.theta / (math.tau / n_sectors))
    return min(idx, n_sectors - 1) + 1


def sector_counts(scan: Scan, n_sectors: int) -> list[int]:
    """Number of returned samples per sector, index 0 holding sector 1."""
    counts = [0] * n_sectors
    for s in scan.samples:
        counts[sector_of(s, n_sectors) - 1] += 1
    return counts


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
    samples = tuple(map(ScanSample, dist[hit].tolist(), thetas[hit].tolist()))
    return Scan(samples, radius, n_rays, pose)
