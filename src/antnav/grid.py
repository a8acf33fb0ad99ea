"""Perception: the robot-centered local occupancy grid built from one scan.

The grid is axis-aligned in the world frame and centered on the scan origin,
so when the robot sits on a world cell center with matching cell size, local
cells coincide with world cells. Occupied cells are inflated by marking their
8-neighborhood (configurable ring count) as non-traversable. `perceive` runs
the whole stage (scan, rasterize, inflate, occlusion mask, world clamp). Each
step is one call of the compiled kernel (perception.c, built on first use by
kernel.py); tests/oracles.py keeps the per-ray and per-cell loops they
reproduce as the reference.
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
from .scan import Scan, simulate_scan
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

    def state_at(self, cell: Cell) -> CellState:
        return CellState(self.cells[cell])

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


def build_local_grid(scan: Scan, cell_size: float, half_extent: int,
                     inflation_rings: int = 1) -> LocalGrid:
    """Rasterize a scan into the local grid and inflate obstacles.

    Samples landing outside the square or on the robot cell are discarded.
    Raises InvalidExtent when the square would poke out of the scan disc
    (half_extent * cell_size > scan radius).
    """
    if half_extent < 1:
        raise InvalidExtent("half_extent must be >= 1")
    if half_extent * cell_size > scan.radius + 1e-9:
        raise InvalidExtent(
            f"half_extent {half_extent} x cell_size {cell_size} exceeds scan radius {scan.radius}")
    if inflation_rings < 0:
        raise ValueError("inflation_rings must be >= 0")

    side = 2 * half_extent + 1
    cells = np.empty((side, side), dtype=np.int8)
    samples = np.ascontiguousarray(scan.samples)
    origin = scan.origin
    kernel.module().lib.rasterize(
        pointer(samples, np.float64, samples.shape), len(samples), origin.x, origin.y,
        origin.psi, cell_size, half_extent, min(inflation_rings, side),  # more rings add nothing
        pointer(cells, np.int8, cells.shape, writable=True))
    return LocalGrid(origin, cell_size, half_extent, cells)


def _mask_occluded(grid: LocalGrid, scan: Scan) -> None:
    """Mark free cells hidden behind scan hits as non-traversable, in place.

    A free-looking cell whose bearing ray returned a hit closer than the cell
    (by more than half a cell diagonal) was never actually observed; planning
    into such shadows produces phantom passages through walls. Cells in open
    directions (no hit on their ray) stay free, so the optimistic treatment of
    unexplored space is preserved, and so does the ring of cells within one
    cell size of the robot. When several samples fall on one ray, the last
    one counts. The kernel's range is math.hypot's own algorithm (CPython
    3.11), which libm hypot and np.hypot differ from in the last bit.
    """
    samples = np.ascontiguousarray(scan.samples)
    origin = grid.center
    code = kernel.module().lib.mask_occluded(
        pointer(samples, np.float64, samples.shape), len(samples), scan.n_rays, origin.x,
        origin.y, origin.psi, grid.cell_size, grid.half_extent,
        pointer(grid.cells, np.int8, grid.cells.shape, writable=True))
    if code != 0:
        raise MemoryError("the occlusion kernel could not allocate its buffer")


def _clamp_to_world(grid: LocalGrid, world: WorldMap) -> None:
    """Mark local cells lying outside the world map as occupied, in place.

    The local square can poke past the simulated world's envelope; such cells
    can never be scanned and must not look like free space to plan through.
    No inflation is added: out-of-world cells always sit behind the map's own
    boundary obstacles.
    """
    origin = grid.center
    kernel.module().lib.clamp_to_world(
        origin.x, origin.y, grid.cell_size, grid.half_extent, world.cell_size, world.height,
        world.width, pointer(grid.cells, np.int8, grid.cells.shape, writable=True))


def perceive(world: WorldMap, pose: Pose, radius: float, n_rays: int, cell_size: float,
             half_extent: int, inflation_rings: int) -> LocalGrid:
    """Local grid from a fresh scan: rasterized, inflated, occlusion-masked, clamped to the world."""
    scan = simulate_scan(world, pose, radius, n_rays)
    grid = build_local_grid(scan, cell_size, half_extent, inflation_rings)
    _mask_occluded(grid, scan)  # both edit the fresh cells array in place
    _clamp_to_world(grid, world)
    return grid


def candidate_cells(grid: LocalGrid) -> CandidateSet:
    """Marginal free cells eligible as sub-goals.

    A free cell is marginal when it lies on the outer ring of the square or is
    8-adjacent to an occupied/inflated cell. Raises NoCandidates when the set
    is empty (robot enclosed).
    """
    cells = grid.cells
    blocked = (cells == CellState.OCCUPIED) | (cells == CellState.INFLATED)
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

