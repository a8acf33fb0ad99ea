"""Receding-horizon planner loop: scan, local grid, sub-goal, sub-path, one step.

Each cycle replans from scratch against the latest scan and executes exactly
one cell of the planned sub-path; the heading after a cycle is the direction
of the executed step. Moving obstacles advance one schedule tick per cycle
before the scan.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .aco import AcoMode, AcoParams, GridGraph, eta_gamma, plan_subpath
from .baselines import ApfParams, apf_step
from .errors import LocalMinimum, NoCandidates, NoPathFound
from .geometry import SQRT2, Cell, Point, Pose
from .grid import LocalGrid, candidate_cells, perceive
from .metrics import RunMetrics, RunStatus, corner_count, path_length
from .subgoal import CostWeights, rank_candidates
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
        if self.n_rays < 1:
            raise ValueError("n_rays must be >= 1")
        if not 0 < self.lidar_radius < math.inf:
            raise ValueError(f"lidar_radius must be positive and finite, got {self.lidar_radius}")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        eta_gamma((self.cell_size, self.cell_size * SQRT2), self.aco.gamma)
        if self.half_extent < 1:
            raise ValueError("half_extent must be >= 1")
        if self.half_extent * self.cell_size > self.lidar_radius + 1e-9:
            raise ValueError(f"half_extent {self.half_extent} x cell_size {self.cell_size} "
                             f"exceeds lidar_radius {self.lidar_radius}")
        if self.inflation_rings < 0:
            raise ValueError("inflation_rings must be >= 0")
        if self.goal_tolerance is not None and self.goal_tolerance < 0:
            raise ValueError("goal_tolerance must be >= 0")
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
class PlannerState:
    pose: Pose
    step_index: int
    status: RunStatus


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


def _advance_state(state: PlannerState, grid: LocalGrid, next_cell: Cell,
                   goal: Point, tolerance: float) -> PlannerState:
    h = grid.half_extent
    dr, dc = next_cell[0] - h, next_cell[1] - h
    wx, wy = grid.world_center(next_cell)
    pose = Pose(wx, wy, math.atan2(dr, dc))
    status = RunStatus.GOAL_REACHED if _goal_distance(pose, goal) <= tolerance else RunStatus.RUNNING
    return PlannerState(pose, state.step_index + 1, status)


def plan_cycle(world: WorldMap, state: PlannerState, goal: Point,
               config: PlannerConfig, seed: int, cycle: int) -> tuple[PlannerState, CycleRecord]:
    """One replanning cycle against the world at its current tick."""
    if state.status is not RunStatus.RUNNING:
        raise ValueError("plan_cycle requires a running state")
    pose = state.pose
    tolerance = config.resolved_goal_tolerance()
    grid = perceive(world, pose, config.lidar_radius, config.n_rays, config.cell_size,
                    config.half_extent, config.inflation_rings)

    def halted(status: RunStatus) -> tuple[PlannerState, CycleRecord]:
        halted_state = replace(state, status=status)
        rec = CycleRecord(cycle, pose, None, (), _goal_distance(pose, goal), (), status)
        return halted_state, rec

    if config.planner is PlannerKind.APF:
        try:
            next_cell = apf_step(grid, pose, goal, config.apf)
        except LocalMinimum:
            return halted(RunStatus.LOCAL_MINIMUM)
        new_state = _advance_state(state, grid, next_cell, goal, tolerance)
        rec = CycleRecord(cycle, new_state.pose, None, (),
                          _goal_distance(new_state.pose, goal), (), new_state.status)
        return new_state, rec

    try:
        candidates = candidate_cells(grid)
    except NoCandidates:
        return halted(RunStatus.STUCK)

    graph = GridGraph(grid.traversable_mask(), grid.cell_size)  # shared by every trial
    # Cells the robot can actually reach within this grid. When the reachable
    # free space is a closed pocket that touches no grid edge and does not
    # contain the goal, no sub-goal can ever make progress: the robot is stuck.
    component = graph.reachable_from(grid.center_cell)
    goal_cell = grid.cell_containing(goal)
    goal_inside = goal_cell is not None and bool(component[goal_cell])
    if not goal_inside and not (component[[0, -1]].any() or component[:, [0, -1]].any()):
        return halted(RunStatus.STUCK)

    # Terminal capture: a visible free goal cell overrides the cost function,
    # otherwise the chain of sub-goals can orbit the goal forever. Every
    # reachable cell but the robot's is free.
    trials: list[tuple[Cell, Point]] = []
    if goal_inside and goal_cell != grid.center_cell:
        trials.append((goal_cell, grid.world_center(goal_cell)))
    ranked = rank_candidates(candidates, pose, goal, config.weights)
    capture = trials[0][0] if trials else None
    trials.extend((sg.cell, sg.world) for sg in ranked
                  if sg.cell != capture and component[sg.cell])
    if not trials:
        return halted(RunStatus.STUCK)

    aco_params = config.aco_for_planner()
    path = None
    subgoal_world = None
    series: list[float] = []
    for attempt, (cell, wpt) in enumerate(trials):
        try:
            path, series = plan_subpath(graph, grid.center_cell, cell, aco_params,
                                        (seed, cycle, attempt))
        except NoPathFound:
            continue  # unreachable within the local grid; fall back to the next candidate
        subgoal_world = wpt
        break
    if path is None:
        return halted(RunStatus.STUCK)

    new_state = _advance_state(state, grid, path.cells[1], goal, tolerance)
    rec = CycleRecord(cycle, new_state.pose, subgoal_world,
                      tuple(grid.world_center(c) for c in path.cells),
                      _goal_distance(new_state.pose, goal), tuple(series), new_state.status)
    return new_state, rec


def run(scenario: "Scenario") -> RunResult:
    """Run a scenario to a verdict: GoalReached, Stuck, LocalMinimum, StepBudgetExhausted or Collision."""
    config = scenario.config
    world = scenario.world
    goal = scenario.goal
    tolerance = config.resolved_goal_tolerance()
    max_steps = config.resolved_max_steps(world)

    t0 = time.perf_counter()
    state = PlannerState(scenario.start, 0, RunStatus.RUNNING)
    if _goal_distance(state.pose, goal) <= tolerance:
        state = replace(state, status=RunStatus.GOAL_REACHED)

    poses = [state.pose]
    records: list[CycleRecord] = []
    while state.status is RunStatus.RUNNING:
        if state.step_index >= max_steps:
            state = replace(state, status=RunStatus.STEP_BUDGET_EXHAUSTED)
            break
        world = world.advanced()
        robot_cell = world.cell_of(state.pose.x, state.pose.y)
        if world.occupancy_at(robot_cell):
            state = replace(state, status=RunStatus.COLLISION)
            break
        state, rec = plan_cycle(world, state, goal, config, scenario.seed, state.step_index)
        records.append(rec)
        poses.append(state.pose)
        if state.status is RunStatus.RUNNING \
                and world.occupancy_at(world.cell_of(state.pose.x, state.pose.y)):
            state = replace(state, status=RunStatus.COLLISION)
            break
    wall_ms = (time.perf_counter() - t0) * 1000.0

    points = [p.xy for p in poses]
    dist_series = (_goal_distance(poses[0], goal),) + tuple(r.dist_to_goal for r in records)
    metrics = RunMetrics(
        path_length=path_length(points),
        corners=corner_count(points),
        cycles=len(records),
        dist_series=dist_series,
        aco_series=tuple(r.aco_series for r in records),
        status=state.status,
        wall_ms=wall_ms,
    )
    return RunResult(tuple(poses), tuple(records), metrics)
