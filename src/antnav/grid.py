"""Perception: the robot-centered local occupancy grid built from one scan.

The grid is axis-aligned in the world frame and centered on the scan origin,
so when the robot sits on a world cell center with matching cell size, local
cells coincide with world cells. Occupied cells are inflated by marking their
8-neighborhood (configurable ring count) as non-traversable. `perceive` runs
the whole stage (scan, rasterize, inflate, occlusion mask, world clamp); each
step works on the whole side x side array at once.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExtent, NoCandidates
from .geometry import SQRT2, Cell, Point, Pose
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
        """Boolean mask of cells an ant may occupy (free cells plus the robot cell)."""
        return (self.cells == CellState.FREE) | (self.cells == CellState.ROBOT)


@dataclass(frozen=True)
class CandidateSet:
    """Sub-goal candidates: (cell, world center) pairs in row-major order."""

    cells: tuple[tuple[Cell, Point], ...]


def _dilate(mask: np.ndarray, rings: int, edge: bool = False) -> np.ndarray:
    """OR of mask over the (2*rings+1)^2 window around each cell; cells past the edge read `edge`."""
    side = mask.shape[0]
    padded = np.full((side + 2 * rings,) * 2, edge)
    padded[rings:rings + side, rings:rings + side] = mask
    across = np.logical_or.reduce([padded[:, k:k + side] for k in range(2 * rings + 1)])
    return np.logical_or.reduce([across[k:k + side] for k in range(2 * rings + 1)])


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
    h = half_extent
    cells = np.full((side, side), CellState.FREE, dtype=np.int8)
    if len(scan.samples):
        origin = scan.origin
        d, theta = scan.samples.T
        ang = origin.psi - theta
        # polar_to_world's arithmetic term for term, so every sample lands in
        # the cell the per-sample formula gives
        c = h + np.floor((origin.x + d * np.cos(ang) - origin.x) / cell_size + 0.5)
        r = h + np.floor((origin.y + d * np.sin(ang) - origin.y) / cell_size + 0.5)
        inside = (r >= 0) & (r < side) & (c >= 0) & (c < side)
        cells[r[inside].astype(np.intp), c[inside].astype(np.intp)] = CellState.OCCUPIED
        cells[h, h] = CellState.FREE  # a sample on the robot cell is dropped, not inflated
    if inflation_rings > 0:
        near = _dilate(cells == CellState.OCCUPIED, inflation_rings)
        cells[near & (cells == CellState.FREE)] = CellState.INFLATED
    cells[h, h] = CellState.ROBOT
    return LocalGrid(scan.origin, cell_size, half_extent, cells)


def _mask_occluded(grid: LocalGrid, scan: Scan) -> None:
    """Mark free cells hidden behind scan hits as non-traversable, in place.

    A free-looking cell whose bearing ray returned a hit closer than the cell
    was never actually observed; planning into such shadows produces phantom
    passages through walls. Cells in open directions (no hit on their ray)
    stay free, so the optimistic treatment of unexplored space is preserved.
    Bearing and range use math.atan2/math.hypot per cell: their numpy
    counterparts round differently in the last bit.
    """
    if not len(scan.samples):
        return
    n = scan.n_rays
    sector = math.tau / n
    dist, bearing = scan.samples.T
    rays = np.rint(bearing / sector).astype(np.intp) % n  # rounds half to even, as round()
    hit_by_ray = dict(zip(rays.tolist(), dist.tolist()))  # the last sample on a ray wins
    origin = grid.center
    xs, ys = grid.cell_centers()
    dxs, dys = (xs - origin.x).tolist(), (ys - origin.y).tolist()
    cell_size = grid.cell_size
    margin = 0.5 * SQRT2 * cell_size
    hidden = []
    rows, cols = np.nonzero(grid.cells == CellState.FREE)
    for r, c in zip(rows.tolist(), cols.tolist()):
        dx, dy = dxs[c], dys[r]
        d = math.hypot(dx, dy)
        if d <= cell_size:
            continue  # the adjacent ring is always observed
        theta = (origin.psi - math.atan2(dy, dx)) % math.tau
        if hit_by_ray.get(int(round(theta / sector)) % n, math.inf) < d - margin:
            hidden.append((r, c))
    if hidden:
        grid.cells[tuple(zip(*hidden))] = CellState.INFLATED


def _clamp_to_world(grid: LocalGrid, world: WorldMap) -> None:
    """Mark local cells lying outside the world map as occupied, in place.

    The local square can poke past the simulated world's envelope; such cells
    can never be scanned and must not look like free space to plan through.
    No inflation is added: out-of-world cells always sit behind the map's own
    boundary obstacles.
    """
    xs, ys = grid.cell_centers()
    cols = np.floor(xs / world.cell_size)
    rows = np.floor(ys / world.cell_size)
    inside = ((rows >= 0) & (rows < world.height))[:, None] & ((cols >= 0) & (cols < world.width))
    grid.cells[~inside] = CellState.OCCUPIED


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
    marginal = (cells == CellState.FREE) & _dilate(blocked, 1, edge=True)
    rows, cols = np.nonzero(marginal)
    if not rows.size:
        raise NoCandidates("no free marginal cells around the robot")
    xs, ys = grid.cell_centers()
    return CandidateSet(tuple(zip(zip(rows.tolist(), cols.tolist()),
                                  zip(xs[cols].tolist(), ys[rows].tolist()))))


def reachable_component(grid: LocalGrid) -> np.ndarray:
    """Boolean mask of the cells 8-connected to the robot cell through traversable cells."""
    passable = grid.traversable_mask()
    passable[grid.center_cell] = True
    framed = np.zeros((grid.side + 2, grid.side + 2), dtype=bool)  # empty ring outside
    reach = framed[1:-1, 1:-1]
    reach[grid.center_cell] = True
    while True:
        rows = framed[:-2] | framed[1:-1] | framed[2:]
        grown = (rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]) & passable
        if np.array_equal(grown, reach):
            return grown
        reach[...] = grown
