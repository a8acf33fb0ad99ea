"""Shared helpers: angle wrapping, robot pose, 8-connected grid directions, sequential sums
and the check of a count field."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

Cell = tuple[int, int]  # (row, col); row grows with world +y, col with +x
Point = tuple[float, float]  # world-frame meters

SQRT2 = math.sqrt(2.0)


def sequential_sum(values):
    """Left-to-right sum from int 0: sum() up to Python 3.11, not 3.12's compensated one."""
    total = 0
    for v in values:
        total += v
    return total


def _is_count(value) -> bool:
    """Whether value is an integer: one that operator.index takes, a bool aside."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def check_count(name: str, value, low: int | None, high: int | None = None) -> None:
    """Raise TypeError naming the field unless value is an integer (one that
    operator.index takes, a bool aside), and ValueError unless low <= value <= high;
    low None (with high None) checks the type alone."""
    if not _is_count(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if high is None and low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")


def store_counts(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass obj that holds an integer as
    operator.index of it, so that a numpy integer is kept as an int and never
    turns the floats computed from it into numpy floats. Any other value is left
    as it is, for check_count to reject by name."""
    for name in names:
        value = getattr(obj, name)
        if _is_count(value):
            object.__setattr__(obj, name, operator.index(value))


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    w = math.fmod(a, math.tau)
    if w > math.pi:
        w -= math.tau
    elif w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True, init=False)
class Pose:
    """Robot pose in the world frame, stored as Python floats (so a numpy float
    never reaches the metrics or the outputs); yaw is wrapped to (-pi, pi].

    Raises ValueError for an x, y or psi that is NaN or infinite: the kernel
    would read such a pose as one that sees nothing.
    """

    x: float
    y: float
    psi: float

    def __init__(self, x: float, y: float, psi: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(psi)):
            name, value = next((n, v) for n, v in (("x", x), ("y", y), ("psi", psi))
                               if not math.isfinite(v))
            raise ValueError(f"pose {name} must be finite, got {value}")
        # one write of the three fields, where a frozen dataclass pays one
        # object.__setattr__ each: the planner makes a pose per cycle
        self.__dict__.update(x=float(x), y=float(y), psi=wrap_angle(psi))

    @property
    def xy(self) -> Point:
        return (self.x, self.y)


# Canonical 8-neighbor order used everywhere a neighborhood is enumerated
# (roulette selection, deposits, candidate scans): N, NE, E, SE, S, SW, W, NW,
# with N = +row = +y.
DIR_OFFSETS: tuple[Cell, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)
DIR_ANGLES: tuple[float, ...] = tuple(math.atan2(dr, dc) for dr, dc in DIR_OFFSETS)
