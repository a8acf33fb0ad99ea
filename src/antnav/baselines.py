"""Comparison planners.

The potential-field planner steps to the 8-neighbor with the lowest attractive
plus repulsive potential. The conventional ant-colony baseline is not a
separate implementation: the planner loop runs the aco module with
mode=CONVENTIONAL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LocalMinimum
from .geometry import Cell, Point, Pose
from .grid import CellState, LocalGrid


@dataclass(frozen=True)
class ApfParams:
    """Attractive gain, repulsive gain, repulsion cutoff distance (m)."""

    k_att: float = 1.0
    k_rep: float = 100.0
    d0: float | None = None  # None resolves to 2 * cell_size at use

    def __post_init__(self):
        # NaN passes a sign check
        for name in ("k_att", "k_rep", "d0"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


def _potential(point: Point, goal: Point, obstacles: list[Point],
               k_att: float, k_rep: float, d0: float) -> float:
    dist_goal_sq = (point[0] - goal[0]) ** 2 + (point[1] - goal[1]) ** 2
    u = 0.5 * k_att * dist_goal_sq
    if obstacles:
        d = min(math.hypot(point[0] - ox, point[1] - oy) for ox, oy in obstacles)
        if d < d0:
            u += 0.5 * k_rep * (1.0 / d - 1.0 / d0) ** 2
    return u


def apf_step(grid: LocalGrid, pose: Pose, goal: Point, params: ApfParams) -> Cell:
    """Free 8-neighbor of the robot cell with the lowest potential.

    Obstacle distance is measured to the nearest occupied cell center. Raises
    LocalMinimum when no neighbor improves on the potential at the robot cell
    (ties between neighbors break by lowest row-major index).
    """
    d0 = params.d0 if params.d0 is not None else 2.0 * grid.cell_size
    obstacles = [grid.world_center((r, c))
                 for r, c in np.argwhere(grid.cells == CellState.OCCUPIED)]
    h = grid.half_extent
    free = grid.traversable_mask()
    here = _potential(pose.xy, goal, obstacles, params.k_att, params.k_rep, d0)
    best_cell: Cell | None = None
    best_u = math.inf
    for r in range(h - 1, h + 2):  # half_extent >= 1 keeps all nine cells on the grid
        for c in range(h - 1, h + 2):
            if (r, c) == (h, h) or not free[r, c]:
                continue
            u = _potential(grid.world_center((r, c)), goal, obstacles,
                           params.k_att, params.k_rep, d0)
            if u < best_u:
                best_u = u
                best_cell = (r, c)
    if best_cell is None or best_u >= here:
        raise LocalMinimum(f"no neighbor below potential {here:.6g} at {pose.xy}")
    return best_cell
