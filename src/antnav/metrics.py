"""Per-run metrics, multi-run aggregates, and deterministic CSV/summary writers.

Wall-clock time is reported in the summary block only; every CSV contains
only seed-determined values so repeated invocations are byte-identical.
"""
from __future__ import annotations

import csv
import enum
import math

from .errors import EmptyRuns
from .geometry import Frozen, Point, sequential_sum


class RunStatus(enum.Enum):
    RUNNING = "running"
    GOAL_REACHED = "goal_reached"
    STUCK = "stuck"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"
    LOCAL_MINIMUM = "local_minimum"
    COLLISION = "collision"


class RunMetrics(Frozen):
    path_length: float
    corners: int
    cycles: int
    dist_series: tuple[float, ...]  # distance to goal, index 0 = before the first cycle
    aco_series: tuple[tuple[float, ...], ...]  # per cycle: best score per iteration
    status: RunStatus
    wall_ms: float


class AggregateStats(Frozen):
    best: float
    worst: float
    average: float


def aggregate(runs: list[RunMetrics]) -> dict[str, AggregateStats]:
    """Best (min), worst (max) and arithmetic mean of path length and corner count."""
    if not runs:
        raise EmptyRuns("aggregate needs at least one run")
    out = {}
    for name, values in (("path_length", [r.path_length for r in runs]),
                         ("corners", [float(r.corners) for r in runs])):
        out[name] = AggregateStats(min(values), max(values), sequential_sum(values) / len(values))
    return out


def corner_count(points: list[Point]) -> int:
    """Direction changes along a polyline of grid hops (45 and 90 degrees alike)."""
    corners = 0
    prev_dir = None
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dx == 0 and dy == 0:
            continue
        step_dir = (_sign(dx), _sign(dy))
        if prev_dir is not None and step_dir != prev_dir:
            corners += 1
        prev_dir = step_dir
    return corners


def path_length(points: list[Point]) -> float:
    return sequential_sum(math.hypot(x1 - x0, y1 - y0)
                          for (x0, y0), (x1, y1) in zip(points, points[1:]))


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def fmt(value) -> str:
    """Deterministic text form: shortest round-trip repr for floats."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    """Header plus one line per row, "\n" line ends; csv writes fmt's form of each value."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_summary(path, entries: dict) -> None:
    """Key: value lines, insertion order preserved."""
    with open(path, "w", encoding="utf-8") as f:
        for key, value in entries.items():
            f.write(f"{key}: {fmt(value)}\n")
