"""Comparison planners.

The potential-field planner steps to the 8-neighbor with the lowest attractive
plus repulsive potential. Its rule runs in the compiled kernel, inside the
APF planning cycle (planner.c's apf_cycle); this module holds its gains.
tests/oracles.py keeps the Python rule as the reference. The conventional
ant-colony baseline is not a separate implementation: the planner's cycle runs
the colony with mode=CONVENTIONAL.
"""
from __future__ import annotations

import math

from .geometry import Frozen


class ApfParams(Frozen):
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
