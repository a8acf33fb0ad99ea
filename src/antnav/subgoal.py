"""Multi-constraint sub-goal selection over candidate cells.

Each candidate is scored by three constraints: Euclidean distance from the
cell to the goal, the bearing deviation from the robot heading to the cell,
and the bearing deviation from the robot heading of the cell-to-goal
direction. Constraint families are normalized across candidates before the
weighted sum, and the minimum-cost cell wins. The rule runs in the compiled
kernel, inside the planning cycle (planner.c's plan_cycle); this module
holds its weights. tests/oracles.py keeps the Python formulas as the
reference.
"""
from __future__ import annotations

import math

from .geometry import Frozen


class CostWeights(Frozen):
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
