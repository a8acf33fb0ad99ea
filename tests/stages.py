"""The tests' window on each stage's kernel entry point, numpy arrays in and out.

The package plans through one kernel call per cycle (planner.c's plan_cycle
or apf_cycle) and never loads numpy. These wrappers call the entry points
that cycle is built from one stage at a time: perceive (perception.c's
perceive), candidate_cells (planner.c's marginal_cells), rank_candidates,
apf_step, and GridGraph and plan_subpath (colony.c's open_directions,
reachable and colony_run), with the package's own argument builders, so
the tests check each stage of the code the planner runs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from antnav import kernel
from antnav.aco import _entropy_words, colony_error, corner_table
from antnav.errors import AntnavError, NoPathFound
from antnav.geometry import Cell, Point, Pose
from antnav.grid import _scan_args, pose_error, ray_table


class NoCandidates(AntnavError):
    """No sub-goal candidates: the robot is enclosed by obstacles/inflation, or the set is empty."""


class LocalMinimum(AntnavError):
    """Potential-field step found no neighbor below the current potential."""


# numpy dtype name -> the kernel's element type
_CTYPES = {"int32": "int32_t[]", "int8": "int8_t[]", "float64": "double[]",
           "uint32": "uint32_t[]", "uint8": "uint8_t[]", "bool": "_Bool[]"}


def pointer(arr: np.ndarray, dtype, shape: tuple[int, ...], writable: bool = False):
    """A kernel pointer to the numpy array arr after checking its dtype, shape and
    contiguity; no copy."""
    if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous \
            or (writable and not arr.flags.writeable):
        raise ValueError(f"kernel argument must be a C-contiguous {np.dtype(dtype)} array of "
                         f"shape {shape}, got {arr.dtype} {arr.shape}")
    return kernel.module().ffi.from_buffer(_CTYPES[arr.dtype.name], arr, require_writable=writable)


def occupancy(world, static: bool = False) -> np.ndarray:
    """A read-only (height, width) bool view of the world's store: the static cells,
    or the occupancy at its tick, movers included."""
    store = world.cells if static else memoryview(world._occupancy()).toreadonly()
    return np.frombuffer(store, dtype=bool).reshape(world.height, world.width)


class CellState(enum.IntEnum):
    FREE = 0
    OCCUPIED = 1
    INFLATED = 2
    ROBOT = 3


@dataclass(frozen=True, eq=False)
class LocalGrid:
    """Square 2*half_extent+1 grid of CellState (int8); the robot occupies the exact
    center. ranges holds the scan's range per ray. Compares by identity."""

    center: Pose
    cell_size: float
    half_extent: int
    cells: np.ndarray
    ranges: np.ndarray

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
        """The cells an ant may occupy: free cells plus the robot cell, the two states
        the compiled cycles test."""
        return (self.cells == CellState.FREE) | (self.cells == CellState.ROBOT)


@dataclass(frozen=True)
class CandidateSet:
    """Sub-goal candidates: (cell, world center) pairs in row-major order."""

    cells: tuple[tuple[Cell, Point], ...]


def perceive(world, pose: Pose, lidar_radius: float, n_rays: int, cell_size: float,
             half_extent: int, inflation_rings: int) -> LocalGrid:
    """Local grid from a fresh scan at the world's tick: rasterized, inflated,
    occlusion-masked, clamped to the world. Raises as _scan_args does, then
    PoseOutOfBounds / PoseInObstacle as the cycle does."""
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
    """Marginal free cells (on the outer ring, or 8-adjacent to an occupied or
    inflated cell), by marginal_cells. Raises NoCandidates when there are none."""
    ids = np.empty(grid.cells.size, dtype=np.int32)
    k = kernel.module().lib.marginal_cells(pointer(grid.cells, np.int8, (grid.side,) * 2),
                                           grid.side,
                                           pointer(ids, np.int32, ids.shape, writable=True))
    if not k:
        raise NoCandidates("no free marginal cells around the robot")
    cells = [divmod(i, grid.side) for i in ids[:k].tolist()]
    return CandidateSet(tuple((cell, grid.world_center(cell)) for cell in cells))


@dataclass(frozen=True)
class SubGoal:
    cell: Cell
    world: Point
    cost: float


def rank_candidates(candidates: CandidateSet, robot: Pose, goal: Point,
                    weights) -> list[SubGoal]:
    """All candidates sorted ascending by cost, ties by candidate order. Raises
    NoCandidates for an empty set and ValueError for a goal that is not finite."""
    if not candidates.cells:
        raise NoCandidates("candidate set is empty")
    if not (math.isfinite(goal[0]) and math.isfinite(goal[1])):
        raise ValueError(f"goal must be finite, got {goal}")
    k = len(candidates.cells)
    xy = np.array([world for _, world in candidates.cells], dtype=np.float64)
    raw, norm = np.empty((3, k)), np.empty((3, k))  # the families, which probes read
    cost = np.empty(k)
    order = np.empty(k, dtype=np.int32)
    kernel.module().lib.rank_candidates(
        k, pointer(xy, np.float64, (k, 2)), robot.x, robot.y, robot.psi, goal[0], goal[1],
        weights.alpha, weights.beta, weights.omega,
        pointer(raw, np.float64, (3, k), writable=True),
        pointer(norm, np.float64, (3, k), writable=True),
        pointer(cost, np.float64, (k,), writable=True),
        pointer(order, np.int32, (k,), writable=True))
    costs = cost.tolist()
    return [SubGoal(*candidates.cells[i], costs[i]) for i in order.tolist()]


def apf_step(grid: LocalGrid, pose: Pose, goal: Point, params) -> Cell:
    """Free 8-neighbor of the robot cell with the lowest potential, by apf_step.
    Raises LocalMinimum when none improves on the robot cell's potential."""
    if grid.half_extent < 1:
        raise ValueError("half_extent must be >= 1")
    lib = kernel.module().lib
    step = lib.apf_step(pointer(grid.cells, np.int8, (grid.side, grid.side)), grid.half_extent,
                        grid.cell_size, pose.x, pose.y, goal[0], goal[1], params.k_att,
                        params.k_rep, params.resolved_d0(grid.cell_size))
    if step == lib.LOCAL_MINIMUM:
        raise LocalMinimum(f"no neighbor below the potential at {pose.xy}")
    return divmod(step, grid.side)


class GridGraph:
    """The 8-connected graph over the traversable cells of a boolean mask.

    Cell (r, c) has id r * cols + c and its edge in direction d (DIR_OFFSETS
    order) is cid * 8 + d. The graph keeps a read-only copy of the mask and
    the read-only table links open_directions fills: bit d of links[cid] is
    set when cid's neighbour in direction d is on the grid and traversable.
    """

    __slots__ = ("rows", "cols", "n", "cell_size", "mask", "links")

    def __init__(self, mask, cell_size: float):
        try:
            self.mask = np.array(mask, dtype=bool, order="C")
            self.rows, self.cols = self.mask.shape
        except ValueError:  # a ragged mask, or one that is not 2-D
            raise ValueError("mask must be a 2D array") from None
        self.mask.flags.writeable = False
        self.n = self.rows * self.cols
        self.cell_size = float(cell_size)
        if not 0 < self.cell_size < math.inf:  # a negative step passes the weight check at even gamma
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        self.links = np.empty(self.n, dtype=np.uint8)
        kernel.module().lib.open_directions(
            pointer(self.mask, np.bool_, self.mask.shape), self.rows, self.cols,
            pointer(self.links, np.uint8, (self.n,), writable=True))
        self.links.flags.writeable = False

    def id_of(self, cell: Cell) -> int:
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"cell {cell} outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def cell_of(self, cid: int) -> Cell:
        return divmod(cid, self.cols)

    def traversable(self, cell: Cell) -> bool:
        return bool(self.mask.flat[self.id_of(cell)])

    def reachable_from(self, cell: Cell) -> np.ndarray:
        """Boolean mask of the cells 8-connected to cell through traversable cells, cell included."""
        reach = np.empty((self.rows, self.cols), dtype=bool)
        queue = np.empty(self.n, dtype=np.int32)
        kernel.module().lib.reachable(
            pointer(self.links, np.uint8, (self.n,)), self.rows, self.cols, self.id_of(cell),
            pointer(queue, np.int32, queue.shape, writable=True),
            pointer(reach, np.bool_, reach.shape, writable=True))
        return reach


@dataclass(frozen=True)
class AntPath:
    """One constructed walk. Length sums straight/diagonal step costs; corners count direction changes."""

    cells: tuple[Cell, ...]
    length: float
    corners: int
    reached: bool
    dirs: tuple[int, ...] = ()  # direction index per step, as the kernel walked it


def plan_subpath(graph: GridGraph, start: Cell, subgoal: Cell, params,
                 seed) -> tuple[AntPath, list[float]]:
    """The best path from start to subgoal of one colony_run, and the best score so
    far per iteration (inf before the first finisher).

    seed is an int or tuple of non-negative ints; ant k of iteration n walks
    on the stream of key (seed..., n, k) and repair draws from (seed..., n,
    n_ants). Raises NoPathFound as the kernel ends without a path, and
    ColonyWeightError for an unusable roulette total.
    """
    key = np.array(_entropy_words(seed if isinstance(seed, (tuple, list)) else (seed,)),
                   dtype=np.uint32)
    if start == subgoal:
        raise ValueError("start and subgoal must differ")
    if not graph.traversable(start):
        raise ValueError(f"start cell {start} is not traversable")
    if not graph.traversable(subgoal):
        raise ValueError(f"subgoal cell {subgoal} is not traversable")

    colony = params.kernel_args(graph.cell_size, graph.n)
    max_steps, n_iters = params.resolved_max_steps(graph.n), params.n_iters
    tau = np.empty(graph.n * 8)  # the kernel fills it with tau0
    cells = np.empty(max_steps + 1, dtype=np.int32)
    dirs = np.empty(max_steps, dtype=np.int8)
    series = np.empty(n_iters)

    mod = kernel.module()
    counts = mod.ffi.new("int[2]")
    length = mod.ffi.new("double *")
    code = mod.lib.colony_run(
        pointer(graph.links, np.uint8, (graph.n,)), graph.rows, graph.cols,
        pointer(tau, np.float64, (graph.n * 8,), writable=True), graph.cell_size,
        corner_table(), pointer(key, np.uint32, key.shape), len(key),
        graph.id_of(start), graph.id_of(subgoal), *colony,
        pointer(cells, np.int32, (max_steps + 1,), writable=True),
        pointer(dirs, np.int8, (max_steps,), writable=True),
        counts, counts + 1, length,
        pointer(series, np.float64, (n_iters,), writable=True))
    if code == mod.lib.NO_PATH_STREAK:
        raise NoPathFound(f"no ant reached {subgoal} in 3 consecutive iterations")
    if code == mod.lib.NO_PATH:
        raise NoPathFound(f"no ant reached {subgoal} in {n_iters} iterations")
    if code != mod.lib.OK:
        raise colony_error(code, subgoal, params)
    n_steps = counts[0]
    path = AntPath(tuple(map(graph.cell_of, cells[:n_steps + 1].tolist())),
                   length[0], counts[1], True, tuple(dirs[:n_steps].tolist()))
    return path, series.tolist()
