"""Receding-horizon planner loop: scan, local grid, sub-goal, sub-path, one step.

Each cycle replans from scratch against the latest scan and executes exactly
one cell of the planned sub-path; the heading after a cycle is the direction
of the executed step. Moving obstacles advance one schedule tick per cycle
before the scan. For the proposed and conventional-aco planners, scan to
sub-path is one call of the compiled kernel (planner.c's plan_cycle); this
module checks its arguments and turns the returned cells into the cycle's
CycleRecord, which holds the next pose and the verdict; run carries both to
the next cycle. APF perceives with grid.perceive and steps here.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import kernel
from .aco import _CORNER_FACTORS, AcoMode, AcoParams, _entropy_words, colony_error, eta_gamma
from .baselines import ApfParams, apf_step
from .errors import LocalMinimum
from .geometry import SQRT2, Cell, Point, Pose
from .grid import _check_scan, _kernel_rings, cell_center, checked_occupancy, perceive
from .kernel import pointer
from .metrics import RunMetrics, RunStatus, corner_count, path_length
from .subgoal import CostWeights
from .world import WorldMap

if TYPE_CHECKING:
    from .scenario import Scenario


class PlannerKind(enum.Enum):
    PROPOSED = "proposed"
    CONVENTIONAL_ACO = "conventional-aco"
    APF = "apf"


@dataclass(frozen=True)
class PlannerConfig:
    """Everything a run needs besides the world, start, goal and seed."""

    weights: CostWeights = CostWeights()
    aco: AcoParams = AcoParams()
    apf: ApfParams = ApfParams()
    planner: PlannerKind = PlannerKind.PROPOSED
    lidar_radius: float = 6.0
    n_rays: int = 360
    cell_size: float = 1.5
    half_extent: int = 4
    inflation_rings: int = 1
    goal_tolerance: float | None = None  # None = half a cell
    max_robot_steps: int | None = None  # None = 10 * max(world side)

    def __post_init__(self):
        _check_scan(self.lidar_radius, self.n_rays)
        _kernel_rings(self.lidar_radius, self.cell_size, self.half_extent, self.inflation_rings)
        eta_gamma((self.cell_size, self.cell_size * SQRT2), self.aco.gamma)
        if self.goal_tolerance is not None and not 0 <= self.goal_tolerance < math.inf:
            raise ValueError(f"goal_tolerance must be >= 0 and finite, got {self.goal_tolerance}")
        if self.max_robot_steps is not None and self.max_robot_steps < 0:
            raise ValueError("max_robot_steps must be >= 0")

    def resolved_goal_tolerance(self) -> float:
        return self.goal_tolerance if self.goal_tolerance is not None else 0.5 * self.cell_size

    def resolved_max_steps(self, world: WorldMap) -> int:
        if self.max_robot_steps is not None:
            return self.max_robot_steps
        return 10 * max(world.width, world.height)

    def aco_for_planner(self) -> AcoParams:
        """Mode override: the conventional baseline is the same planner in CONVENTIONAL mode."""
        if self.planner is PlannerKind.CONVENTIONAL_ACO:
            return replace(self.aco, mode=AcoMode.CONVENTIONAL)
        return self.aco


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    pose: Pose
    subgoal: Point | None
    subpath: tuple[Point, ...]  # world centers of the planned sub-path cells
    dist_to_goal: float
    aco_series: tuple[float, ...]
    status: RunStatus


@dataclass(frozen=True)
class RunResult:
    poses: tuple[Pose, ...]
    records: tuple[CycleRecord, ...]
    metrics: RunMetrics


def _goal_distance(pose: Pose, goal: Point) -> float:
    return math.hypot(pose.x - goal[0], pose.y - goal[1])


def plan_cycle(world: WorldMap, pose: Pose, goal: Point, config: PlannerConfig, seed: int,
               cycle: int) -> CycleRecord:
    """One replanning cycle from pose against the world at its current tick.

    The proposed and conventional-aco planners run the cycle in one call of
    the kernel's plan_cycle (planner.c): perceive, rank the marginal cells,
    and plan toward the goal cell when it is reachable, then toward the
    reachable candidates by cost, until a colony reaches its sub-goal. Trial
    a plans with seed (seed, cycle, a). The verdict is STUCK when no
    candidate exists, when the reachable cells form a closed pocket without
    the goal, or when no trial succeeds. APF perceives and steps here.

    The record holds the pose after the cycle's one step, heading along it,
    and GOAL_REACHED or RUNNING; a halted cycle keeps pose.
    """
    cs, h = config.cell_size, config.half_extent

    def stepped(next_cell: Cell, subgoal: Point | None = None, subpath=(),
                series=()) -> CycleRecord:
        dr, dc = next_cell[0] - h, next_cell[1] - h
        new_pose = Pose(*cell_center(pose, cs, h, next_cell), math.atan2(dr, dc))
        dist = _goal_distance(new_pose, goal)
        status = RunStatus.GOAL_REACHED if dist <= config.resolved_goal_tolerance() \
            else RunStatus.RUNNING
        return CycleRecord(cycle, new_pose, subgoal, subpath, dist, series, status)

    def halted(status: RunStatus) -> CycleRecord:
        return CycleRecord(cycle, pose, None, (), _goal_distance(pose, goal), (), status)

    if config.planner is PlannerKind.APF:
        grid = perceive(world, pose, config.lidar_radius, config.n_rays, cs, h,
                        config.inflation_rings)
        try:
            return stepped(apf_step(grid, pose, goal, config.apf))
        except LocalMinimum:
            return halted(RunStatus.LOCAL_MINIMUM)

    # the argument checks of perceive and plan_subpath
    occ = checked_occupancy(world, pose, config.lidar_radius, config.n_rays)
    rings = _kernel_rings(config.lidar_radius, cs, h, config.inflation_rings)
    aco = config.aco_for_planner()
    eta_straight, eta_diagonal = eta_gamma((cs, cs * SQRT2), aco.gamma)
    side = 2 * h + 1
    max_steps = aco.resolved_max_steps(side * side)
    mod = kernel.module()
    ffi = mod.ffi
    key = _entropy_words((seed, cycle))
    path = ffi.new("int32_t[]", max_steps + 1)
    out = ffi.new("int[2]")  # path steps, sub-goal cell id
    series = ffi.new("double[]", aco.n_iters)
    w = config.weights
    code = mod.lib.plan_cycle(
        pointer(occ, np.bool_, occ.shape), *occ.shape, world.cell_size, pose.x, pose.y,
        pose.psi, config.lidar_radius, config.n_rays, cs, h, rings, goal[0], goal[1],
        w.alpha, w.beta, w.omega, eta_straight, eta_diagonal,
        pointer(_CORNER_FACTORS, np.float64, (9, 8)), ffi.new("uint32_t[]", key), len(key),
        aco.n_iters, aco.n_ants, max_steps, aco.mode is AcoMode.IMPROVED, aco.phi, aco.rho,
        aco.q, aco.delta, aco.zeta, aco.tau0, aco.resolved_elite_cutoff(),
        path, out, out + 1, series)
    if code == mod.lib.PLAN_STUCK:
        return halted(RunStatus.STUCK)
    subgoal = divmod(out[1], side)
    if code != mod.lib.COLONY_OK:
        raise colony_error(code, subgoal, aco)
    cells = [divmod(i, side) for i in ffi.unpack(path, out[0] + 1)]
    return stepped(cells[1], cell_center(pose, cs, h, subgoal),
                   tuple(cell_center(pose, cs, h, c) for c in cells),
                   tuple(ffi.unpack(series, aco.n_iters)))


def run(scenario: "Scenario") -> RunResult:
    """Run a scenario to a verdict: GoalReached, Stuck, LocalMinimum, StepBudgetExhausted or Collision."""
    config = scenario.config
    world = scenario.world
    goal = scenario.goal
    max_steps = config.resolved_max_steps(world)

    t0 = time.perf_counter()
    pose = scenario.start
    status = RunStatus.GOAL_REACHED \
        if _goal_distance(pose, goal) <= config.resolved_goal_tolerance() else RunStatus.RUNNING
    poses = [pose]
    records: list[CycleRecord] = []
    while status is RunStatus.RUNNING:
        if len(records) >= max_steps:
            status = RunStatus.STEP_BUDGET_EXHAUSTED
            break
        world = world.advanced()
        if world.occupancy_at(world.cell_of(pose.x, pose.y)):
            status = RunStatus.COLLISION
            break
        rec = plan_cycle(world, pose, goal, config, scenario.seed, len(records))
        records.append(rec)
        pose, status = rec.pose, rec.status
        poses.append(pose)
        if status is RunStatus.RUNNING and world.occupancy_at(world.cell_of(pose.x, pose.y)):
            status = RunStatus.COLLISION
    wall_ms = (time.perf_counter() - t0) * 1000.0

    points = [p.xy for p in poses]
    dist_series = (_goal_distance(poses[0], goal),) + tuple(r.dist_to_goal for r in records)
    metrics = RunMetrics(
        path_length=path_length(points),
        corners=corner_count(points),
        cycles=len(records),
        dist_series=dist_series,
        aco_series=tuple(r.aco_series for r in records),
        status=status,
        wall_ms=wall_ms,
    )
    return RunResult(tuple(poses), tuple(records), metrics)
