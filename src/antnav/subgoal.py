"""Multi-constraint sub-goal selection over candidate cells.

Each candidate is scored by three constraints: Euclidean distance from the
cell to the goal, the bearing deviation from the robot heading to the cell,
and the bearing deviation from the robot heading of the cell-to-goal
direction. Constraint families are normalized across candidates before the
weighted sum, and the minimum-cost cell wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoCandidates
from .geometry import Cell, Point, Pose, sequential_sum, wrap_angle
from .grid import CandidateSet


@dataclass(frozen=True)
class CostWeights:
    """Weights of the three constraints: alpha distance, beta robot-to-cell bearing, omega cell-to-goal bearing."""

    alpha: float = 4.0
    beta: float = 1.8
    omega: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.omega < 0:
            raise ValueError("weights must be >= 0")
        if self.alpha + self.beta + self.omega <= 0:
            raise ValueError("at least one weight must be positive")


@dataclass(frozen=True)
class SubGoal:
    cell: Cell
    world: Point
    cost: float


def raw_constraints(robot: Pose, cell: Point, goal: Point) -> tuple[float, float, float]:
    """(distance cell->goal, |bearing robot->cell - psi|, |bearing cell->goal - psi|), angles folded to [0, pi]."""
    ds = math.hypot(goal[0] - cell[0], goal[1] - cell[1])
    theta1 = abs(wrap_angle(math.atan2(cell[1] - robot.y, cell[0] - robot.x) - robot.psi))
    theta2 = abs(wrap_angle(math.atan2(goal[1] - cell[1], goal[0] - cell[0]) - robot.psi))
    return ds, theta1, theta2


def normalize(values: list[float]) -> list[float]:
    """Scale non-negative values to sum to 1; an all-zero family becomes uniform."""
    if not values:
        raise ValueError("normalize needs at least one value")
    total = sequential_sum(values)
    if total == 0.0:
        return [1.0 / len(values)] * len(values)
    return [v / total for v in values]


def rank_candidates(candidates: CandidateSet, robot: Pose, goal: Point,
                    weights: CostWeights) -> list[SubGoal]:
    """All candidates scored and sorted ascending by cost, ties by row-major cell index."""
    if not candidates.cells:
        raise NoCandidates("candidate set is empty")
    raw = [raw_constraints(robot, world, goal) for _, world in candidates.cells]
    nds = normalize([t[0] for t in raw])
    nt1 = normalize([t[1] for t in raw])
    nt2 = normalize([t[2] for t in raw])
    scored = [
        SubGoal(cell, world, weights.beta * nt1[i] + weights.alpha * nds[i] + weights.omega * nt2[i])
        for i, (cell, world) in enumerate(candidates.cells)
    ]
    # candidates arrive in row-major order; the stable sort keeps that order on ties
    scored.sort(key=lambda sg: sg.cost)
    return scored


def select_subgoal(candidates: CandidateSet, robot: Pose, goal: Point,
                   weights: CostWeights) -> SubGoal:
    """Minimum-cost candidate; ties broken by lowest row-major cell index."""
    return rank_candidates(candidates, robot, goal, weights)[0]
