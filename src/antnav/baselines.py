"""Comparison planners.

The potential-field planner steps to the 8-neighbor with the lowest attractive
plus repulsive potential. Its rule runs in the compiled kernel (planner.c's
apf_step), the same code the APF planning cycle steps with (apf_cycle);
tests/oracles.py keeps the Python rule as the reference. The conventional
ant-colony baseline is not a separate implementation: the planner loop runs
the aco module with mode=CONVENTIONAL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernel
from .errors import LocalMinimum
from .geometry import Cell, Point, Pose
from .grid import LocalGrid
from .kernel import pointer


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

    def resolved_d0(self, cell_size: float) -> float:
        return self.d0 if self.d0 is not None else 2.0 * cell_size


def apf_step(grid: LocalGrid, pose: Pose, goal: Point, params: ApfParams) -> Cell:
    """Free 8-neighbor of the robot cell with the lowest potential.

    pose is the robot's, at the center of the grid, as perceive builds it.
    The potential is 0.5 * k_att * (squared goal distance), plus
    0.5 * k_rep * (1 / d - 1 / d0) ** 2 when the distance d to the nearest
    occupied cell center is below d0 (2 * cell_size when unset). Raises
    LocalMinimum when no neighbor improves on the potential at the robot cell
    (ties between neighbors break by lowest row-major index).
    """
    import numpy as np
    if grid.half_extent < 1:
        raise ValueError("half_extent must be >= 1")
    lib = kernel.module().lib
    step = lib.apf_step(pointer(grid.cells, np.int8, (grid.side, grid.side)), grid.half_extent,
                        grid.cell_size, pose.x, pose.y, goal[0], goal[1], params.k_att,
                        params.k_rep, params.resolved_d0(grid.cell_size))
    if step == lib.LOCAL_MINIMUM:
        raise LocalMinimum(f"no neighbor below the potential at {pose.xy}")
    return divmod(step, grid.side)
