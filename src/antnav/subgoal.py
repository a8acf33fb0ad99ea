"""Multi-constraint sub-goal selection over candidate cells.

Each candidate is scored by three constraints: Euclidean distance from the
cell to the goal, the bearing deviation from the robot heading to the cell,
and the bearing deviation from the robot heading of the cell-to-goal
direction. Constraint families are normalized across candidates before the
weighted sum, and the minimum-cost cell wins. The rule runs in the compiled
kernel (planner.c's rank_candidates), the same code the planning cycle
scores its candidates with; tests/oracles.py keeps the Python formulas as
the reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernel
from .errors import NoCandidates
from .geometry import Cell, Point, Pose
from .grid import CandidateSet
from .kernel import pointer


@dataclass(frozen=True)
class CostWeights:
    """Weights of the three constraints: alpha distance, beta robot-to-cell bearing, omega cell-to-goal bearing."""

    alpha: float = 4.0
    beta: float = 1.8
    omega: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "omega"):
            # NaN passes the sign checks; an inf weight times a 0 family is a NaN cost
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"weight {name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0 or self.omega < 0:
            raise ValueError("weights must be >= 0")
        if self.alpha + self.beta + self.omega <= 0:
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class SubGoal:
    cell: Cell
    world: Point
    cost: float


def rank_candidates(candidates: CandidateSet, robot: Pose, goal: Point,
                    weights: CostWeights) -> list[SubGoal]:
    """All candidates scored and sorted ascending by cost, ties by candidate order
    (row-major cell index for candidate_cells' sets).

    Raises NoCandidates for an empty set and ValueError for a goal that is
    not finite, which would make every cost NaN."""
    import numpy as np
    if not candidates.cells:
        raise NoCandidates("candidate set is empty")
    if not (math.isfinite(goal[0]) and math.isfinite(goal[1])):
        raise ValueError(f"goal must be finite, got {goal}")
    k = len(candidates.cells)
    xy = np.array([world for _, world in candidates.cells], dtype=np.float64)
    raw, norm = np.empty((3, k)), np.empty((3, k))  # the families, which tests read
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

