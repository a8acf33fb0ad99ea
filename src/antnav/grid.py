"""Perception: the robot-centered local occupancy grid built from one scan.

The grid is axis-aligned in the world frame and centered on the scan origin,
so when the robot sits on a world cell center with matching cell size, local
cells coincide with world cells. Occupied cells are inflated by marking their
8-neighborhood (configurable ring count) as non-traversable. `perceive` runs
the whole stage (scan, rasterize, inflate, occlusion mask, world clamp) in
one call of the compiled kernel (perception.c, built on first use by
kernel.py) and builds no Scan; `build_local_grid` rasterizes and inflates a
given Scan, without occlusion. tests/oracles.py keeps the per-ray and
per-cell loops they reproduce as the reference.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InvalidExtent, NoCandidates
from .geometry import Cell, Point, Pose
from .kernel import pointer
from .scan import Scan, checked_occupancy
from .world import WorldMap


class CellState(enum.IntEnum):
    FREE = 0
    OCCUPIED = 1
    INFLATED = 2
    ROBOT = 3


@dataclass(frozen=True)
class LocalGrid:
    """Square 2*half_extent+1 grid of CellState; the robot occupies the exact center."""

    center: Pose
    cell_size: float
    half_extent: int
    cells: np.ndarray  # int8 array of CellState, shape (side, side)

    @property
    def side(self) -> int:
        return 2 * self.half_extent + 1

    @property
    def center_cell(self) -> Cell:
        return (self.half_extent, self.half_extent)

    def world_center(self, cell: Cell) -> Point:
        r, c = cell
        h = self.half_extent
        return (self.center.x + (c - h) * self.cell_size,
                self.center.y + (r - h) * self.cell_size)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World x of every column and world y of every row (the world_center arithmetic)."""
        offsets = np.arange(self.side) - self.half_extent
        return self.center.x + offsets * self.cell_size, self.center.y + offsets * self.cell_size

    def cell_containing(self, point: Point) -> Cell | None:
        """Grid cell containing a world point, or None when outside the square."""
        h = self.half_extent
        dc = math.floor((point[0] - self.center.x) / self.cell_size + 0.5)
        dr = math.floor((point[1] - self.center.y) / self.cell_size + 0.5)
        r, c = h + int(dr), h + int(dc)
        if 0 <= r < self.side and 0 <= c < self.side:
            return (r, c)
        return None

    def traversable_mask(self) -> np.ndarray:
        """Boolean mask of cells an ant may occupy (free cells plus the robot cell): the one
        traversability rule, which the colony, the reachability search and APF read."""
        return (self.cells == CellState.FREE) | (self.cells == CellState.ROBOT)


@dataclass(frozen=True)
class CandidateSet:
    """Sub-goal candidates: (cell, world center) pairs in row-major order."""

    cells: tuple[tuple[Cell, Point], ...]


def _kernel_rings(radius: float, cell_size: float, half_extent: int,
                  inflation_rings: int) -> int:
    """The ring count handed to the kernel, once the local grid arguments pass.

    Raises InvalidExtent when half_extent < 1 or the square would poke out of
    the scan disc (half_extent * cell_size > radius), ValueError when
    inflation_rings < 0.
    """
    if half_extent < 1:
        raise InvalidExtent("half_extent must be >= 1")
    if half_extent * cell_size > radius + 1e-9:
        raise InvalidExtent(
            f"half_extent {half_extent} x cell_size {cell_size} exceeds scan radius {radius}")
    if inflation_rings < 0:
        raise ValueError("inflation_rings must be >= 0")
    return min(inflation_rings, 2 * half_extent + 1)  # more rings add nothing


def build_local_grid(scan: Scan, cell_size: float, half_extent: int,
                     inflation_rings: int = 1) -> LocalGrid:
    """Rasterize a scan into the local grid and inflate obstacles; no occlusion mask.

    Samples landing outside the square or on the robot cell are discarded.
    Raises InvalidExtent when the square would poke out of the scan disc
    (half_extent * cell_size > scan radius).
    """
    rings = _kernel_rings(scan.radius, cell_size, half_extent, inflation_rings)
    side = 2 * half_extent + 1
    cells = np.empty((side, side), dtype=np.int8)
    samples = np.ascontiguousarray(scan.samples)
    origin = scan.origin
    kernel.module().lib.rasterize(
        pointer(samples, np.float64, samples.shape), len(samples), origin.x, origin.y,
        origin.psi, cell_size, half_extent, rings,
        pointer(cells, np.int8, cells.shape, writable=True))
    return LocalGrid(origin, cell_size, half_extent, cells)


def perceive(world: WorldMap, pose: Pose, radius: float, n_rays: int, cell_size: float,
             half_extent: int, inflation_rings: int) -> LocalGrid:
    """Local grid from a fresh scan: rasterized, inflated, occlusion-masked, clamped to the world.

    Takes simulate_scan's and build_local_grid's arguments and raises as they do.
    """
    occ = checked_occupancy(world, pose, radius, n_rays)
    rings = _kernel_rings(radius, cell_size, half_extent, inflation_rings)
    side = 2 * half_extent + 1
    cells = np.empty((side, side), dtype=np.int8)
    ranges = np.empty(n_rays)  # the kernel's scan: one range per ray
    kernel.module().lib.perceive(
        pointer(occ, np.bool_, occ.shape), *occ.shape, world.cell_size, pose.x, pose.y,
        pose.psi, radius, n_rays, cell_size, half_extent, rings,
        pointer(ranges, np.float64, ranges.shape, writable=True),
        pointer(cells, np.int8, cells.shape, writable=True))
    return LocalGrid(pose, cell_size, half_extent, cells)


def candidate_cells(grid: LocalGrid) -> CandidateSet:
    """Marginal free cells eligible as sub-goals.

    A free cell is marginal when it lies on the outer ring of the square or is
    8-adjacent to an occupied/inflated cell. Raises NoCandidates when the set
    is empty (robot enclosed).
    """
    cells = grid.cells
    blocked = ~grid.traversable_mask()
    # beyond the edge counts as blocked, so the outer ring is always marginal
    framed = np.ones((grid.side + 2,) * 2, dtype=bool)
    framed[1:-1, 1:-1] = blocked
    across = framed[:-2] | framed[1:-1] | framed[2:]
    near = across[:, :-2] | across[:, 1:-1] | across[:, 2:]
    marginal = (cells == CellState.FREE) & near
    rows, cols = np.nonzero(marginal)
    if not rows.size:
        raise NoCandidates("no free marginal cells around the robot")
    xs, ys = grid.cell_centers()
    return CandidateSet(tuple(zip(zip(rows.tolist(), cols.tolist()),
                                  zip(xs[cols].tolist(), ys[rows].tolist()))))

