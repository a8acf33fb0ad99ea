"""Ant-colony sub-path planner over 8-connected occupancy grids.

Improved mode adds three mechanisms on top of the classic transition/update
rules: a corner factor in the transition weights (inverse turn angle), a
rank-gated deposit weighted by a length+corner score, and a per-iteration
repair step that hands the incumbent best path to one straggler ant.
Conventional mode is the classic planner: pheromone/heuristic transitions and
length-based deposits from every finished ant, no repair.

plan_subpath runs the whole colony in one call of the compiled kernel
(colony.c, built on first use by kernel.py), the package's only
implementation of the colony rules; tests/oracles.py keeps the Python loop
it reproduces as the reference. The kernel walks a GridGraph's traversable
mask, builds its per-direction heuristic table from the straight and
diagonal weights of eta_gamma and reads the corner factors built here
(_CORNER_FACTORS, from corner_heuristic).

Determinism: every ant walk draws from its own RNG stream, the one numpy's
SeedSequence((seed..., iteration, ant index)) seeds, and ants walk serially.
The kernel seeds each stream itself from the seed's uint32 words (see
_entropy_words).
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernel
from .kernel import INT_MAX, pointer
from .errors import ColonyWeightError, NoPathFound
from .geometry import Cell, DIR_ANGLES, DIR_IS_DIAGONAL, DIR_OFFSETS, SQRT2, wrap_angle


class AcoMode(enum.Enum):
    IMPROVED = "improved"
    CONVENTIONAL = "conventional"


@dataclass(frozen=True)
class AcoParams:
    """Tunables of the colony.

    phi/gamma are the pheromone/heuristic exponents, rho the evaporation rate,
    q the deposit constant, delta/zeta the length/corner weights of the path
    score. max_steps caps the steps of one walk; it defaults to, and is
    clamped to, the number of grid cells minus 1, where the tabu list ends
    every walk. elite_cutoff defaults to n_ants - 1 (the worst-ranked ant
    never deposits).
    """

    phi: float = 1.0
    gamma: float = 5.0
    rho: float = 0.3
    q: float = 1.0
    n_ants: int = 20
    n_iters: int = 50
    delta: float = 0.7
    zeta: float = 0.3
    tau0: float = 1.0
    max_steps: int | None = None
    elite_cutoff: int | None = None
    mode: AcoMode = AcoMode.IMPROVED

    def __post_init__(self):
        for name in ("phi", "gamma", "rho", "q", "delta", "zeta", "tau0"):
            # NaN passes every range check below
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.q <= 0:
            raise ValueError("q must be positive")
        if not 2 <= self.n_ants <= INT_MAX:
            raise ValueError(f"n_ants must be in 2..{INT_MAX}")
        if not 1 <= self.n_iters <= INT_MAX:
            raise ValueError(f"n_iters must be in 1..{INT_MAX}")
        if self.delta <= 0 or self.zeta < 0:
            # a finished path without corners must still score above 0
            raise ValueError("delta must be positive and zeta >= 0")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if self.elite_cutoff is not None and not 1 <= self.elite_cutoff <= self.n_ants - 1:
            raise ValueError("elite_cutoff must be in 1..n_ants-1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def resolved_elite_cutoff(self) -> int:
        return self.elite_cutoff if self.elite_cutoff is not None else self.n_ants - 1

    def resolved_max_steps(self, n_cells: int) -> int:
        """The step cap of a walk on a grid of n_cells: the tabu list ends every
        walk within n_cells - 1 steps."""
        return min(self.max_steps or n_cells - 1, n_cells - 1)


class GridGraph:
    """The 8-connected graph over the traversable cells of a boolean mask.

    Cell (r, c) has id r * cols + c; its neighbour in direction d (DIR_OFFSETS
    order: N, NE, E, SE, S, SW, W, NW) is the cell at that offset when both
    are traversable, over the directed edge cid * 8 + d. steps holds the step
    length per direction. The graph keeps a read-only copy of the mask, so
    later edits of the caller's array do not change it.
    """

    __slots__ = ("rows", "cols", "n", "cell_size", "mask", "steps")

    def __init__(self, mask: np.ndarray, cell_size: float):
        self.mask = np.array(mask, dtype=bool, order="C")
        self.mask.flags.writeable = False
        self.rows, self.cols = self.mask.shape
        self.n = self.rows * self.cols
        self.cell_size = float(cell_size)
        self.steps = tuple(self.cell_size * SQRT2 if diag else self.cell_size
                           for diag in DIR_IS_DIAGONAL)

    def id_of(self, cell: Cell) -> int:
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"cell {cell} outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def cell_of(self, cid: int) -> Cell:
        return divmod(cid, self.cols)

    def traversable(self, cell: Cell) -> bool:
        return bool(self.mask[cell])

    def reachable_from(self, cell: Cell) -> np.ndarray:
        """Boolean mask of the cells 8-connected to cell through traversable cells, cell included."""
        reach = np.empty((self.rows, self.cols), dtype=bool)
        queue = np.empty(self.n, dtype=np.int32)
        kernel.module().lib.reachable(
            pointer(self.mask, np.bool_, reach.shape), self.rows, self.cols, self.id_of(cell),
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


def corner_heuristic(prev_dir: float | None, i: Cell, j: Cell) -> float:
    """Corner factor of the move i -> j: inverse turn angle relative to the
    previous move direction, 1.0 for the first step or a straight continuation."""
    if prev_dir is None:
        return 1.0
    theta = abs(wrap_angle(math.atan2(j[0] - i[0], j[1] - i[1]) - prev_dir))
    return 1.0 if theta == 0.0 else 1.0 / theta


def eta_gamma(steps, gamma: float) -> list[float]:
    """Heuristic weight (1 / step) ** gamma per step length.

    Raises ValueError unless every weight is positive and finite: a weight
    that underflows to 0 or overflows leaves the roulette without a usable
    total.
    """
    try:
        weights = [(1.0 / step) ** gamma for step in steps]
    except OverflowError:
        weights = [math.inf]
    if not all(0.0 < w < math.inf for w in weights):
        raise ValueError(f"gamma {gamma} makes the heuristic weight (1/step)**gamma "
                         f"0 or infinite for steps {tuple(steps)}")
    return weights


# Corner factor per (previous direction index + 1, next direction index); row
# 0 is "no previous direction". The kernel reads this table, built from
# corner_heuristic, so the two cannot drift apart.
_CORNER_FACTORS = np.array(
    [[1.0] * 8]
    + [[corner_heuristic(DIR_ANGLES[p], (0, 0), DIR_OFFSETS[d]) for d in range(8)]
       for p in range(8)])


@functools.cache
def corner_table():
    """The kernel pointer to _CORNER_FACTORS, made once per process."""
    return pointer(_CORNER_FACTORS, np.float64, (9, 8))


_MASK32 = 0xFFFFFFFF


def _entropy_words(key) -> list[int]:
    """The uint32 words SeedSequence reads from a tuple of non-negative ints:
    each int split little-endian into as many words as it needs, 0 as one word."""
    words: list[int] = []
    for v in key:
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"seed key entries must be non-negative, got {v}")
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


def colony_error(code: int, subgoal: Cell, params: AcoParams) -> Exception:
    """The exception of a colony run toward subgoal that ended with colony.c's
    COLONY_BAD_TOTAL or COLONY_NO_MEMORY."""
    if code == kernel.module().lib.COLONY_BAD_TOTAL:
        return ColonyWeightError(
            f"a roulette total toward {subgoal} is 0 or not finite: tau0 {params.tau0}, "
            f"phi {params.phi} and gamma {params.gamma} give unusable weights")
    return MemoryError("the colony kernel could not allocate its buffers")


def plan_subpath(graph: GridGraph, start: Cell, subgoal: Cell, params: AcoParams,
                 seed) -> tuple[AntPath, list[float]]:
    """Plan an 8-connected path from start to subgoal over the graph's traversable cells.

    Runs n_iters iterations of {construct n_ants walks, repair (improved mode,
    once an incumbent exists), update pheromone} and returns the best
    finished path by the mode's score plus the best-score-so-far per
    iteration. The score is delta * length + zeta * corners in improved mode
    and the length in conventional mode. Repair hands the incumbent to an
    unfinished ant, or to any ant when all finished. The update evaporates
    every edge by the factor 1 - rho, then deposits q / score on each edge of
    every finished path; improved mode deposits only for the elite_cutoff
    best-scored paths (stable on ties). Iterations before the first finisher
    record inf in the series; in improved mode three all-fail iterations
    before any finisher raise NoPathFound, as does finishing all iterations
    without one. A roulette total that is 0 or not finite raises
    ColonyWeightError.

    seed is an int or tuple of non-negative ints; ant k of iteration n walks
    on the stream of key (seed..., n, k) and repair draws from (seed..., n,
    n_ants).
    """
    key = np.array(_entropy_words(seed if isinstance(seed, (tuple, list)) else (int(seed),)),
                   dtype=np.uint32)
    if start == subgoal:
        raise ValueError("start and subgoal must differ")
    if not graph.traversable(start):
        raise ValueError(f"start cell {start} is not traversable")
    if not graph.traversable(subgoal):
        raise ValueError(f"subgoal cell {subgoal} is not traversable")

    improved = params.mode is AcoMode.IMPROVED
    max_steps = params.resolved_max_steps(graph.n)
    m, n_iters = params.n_ants, params.n_iters
    tau = np.empty(graph.n * 8)  # the kernel fills it with tau0
    cells = np.empty(max_steps + 1, dtype=np.int32)
    dirs = np.empty(max_steps, dtype=np.int8)
    series = np.empty(n_iters)

    mod = kernel.module()
    counts = mod.ffi.new("int[2]")
    length = mod.ffi.new("double *")
    code = mod.lib.colony_run(
        pointer(graph.mask, np.bool_, (graph.rows, graph.cols)), graph.rows, graph.cols,
        pointer(tau, np.float64, (graph.n * 8,), writable=True), params.tau0,
        graph.cell_size, *eta_gamma((graph.cell_size, graph.cell_size * SQRT2), params.gamma),
        corner_table(),
        pointer(key, np.uint32, key.shape), len(key),
        n_iters, m, max_steps, graph.id_of(start), graph.id_of(subgoal), improved,
        params.phi, params.rho, params.q, params.delta, params.zeta,
        params.resolved_elite_cutoff(),
        pointer(cells, np.int32, (max_steps + 1,), writable=True),
        pointer(dirs, np.int8, (max_steps,), writable=True),
        counts, counts + 1, length,
        pointer(series, np.float64, (n_iters,), writable=True))
    if code == mod.lib.COLONY_NO_PATH_STREAK:
        raise NoPathFound(f"no ant reached {subgoal} in 3 consecutive iterations")
    if code == mod.lib.COLONY_NO_PATH:
        raise NoPathFound(f"no ant reached {subgoal} in {n_iters} iterations")
    if code != mod.lib.COLONY_OK:
        raise colony_error(code, subgoal, params)
    n_steps = counts[0]
    path = AntPath(tuple(map(graph.cell_of, cells[:n_steps + 1].tolist())),
                   length[0], counts[1], True, tuple(dirs[:n_steps].tolist()))
    return path, series.tolist()
