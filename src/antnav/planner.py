"""Receding-horizon planner loop: scan, local grid, sub-goal, sub-path, one step.

Each cycle replans from scratch against the latest scan and executes exactly
one cell of the planned sub-path; the heading after a cycle is the direction
of the executed step. Moving obstacles advance one schedule tick per cycle
before the scan. Every planner's cycle, scan to step, is one call of the
compiled kernel: planner.c's plan_cycle for the proposed and
conventional-aco planners, its apf_cycle for APF. The arguments that
depend on the config alone are checked and worked out once per
PlannerConfig, and the rays' directions come from grid.ray_table, one table
per heading; each cycle checks only what it can change, the pose and the
goal. The cycle turns the returned cell ids into its CycleRecord, which
holds the next pose and the verdict; run carries both to the next cycle.
"""
from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import kernel
from .aco import AcoMode, AcoParams, _entropy_words, colony_error, corner_table, eta_gamma
from .baselines import ApfParams
from .errors import PoseInObstacle
from .geometry import SQRT2, Point, Pose
from .grid import _check_scan, _kernel_rings, checked_occupancy, ray_table
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
        self._kernel_args  # the scan, grid and colony checks; keeps what they work out
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

    @functools.cached_property
    def _kernel_args(self) -> _KernelArgs:
        _check_scan(self.lidar_radius, self.n_rays)
        cs, h = self.cell_size, self.half_extent
        scan = (self.lidar_radius, self.n_rays, cs, h,
                _kernel_rings(self.lidar_radius, cs, h, self.inflation_rings))
        aco = self.aco_for_planner()
        eta_straight, eta_diagonal = eta_gamma((cs, cs * SQRT2), aco.gamma)
        side = 2 * h + 1
        max_steps = aco.resolved_max_steps(side * side)
        if self.planner is PlannerKind.APF:
            args = (*scan, self.apf.k_att, self.apf.k_rep, self.apf.resolved_d0(cs))
        else:
            w = self.weights
            args = (*scan, w.alpha, w.beta, w.omega, eta_straight, eta_diagonal, aco.n_iters,
                    aco.n_ants, max_steps, aco.mode is AcoMode.IMPROVED, aco.phi, aco.rho,
                    aco.q, aco.delta, aco.zeta, aco.tau0, aco.resolved_elite_cutoff())
        return _KernelArgs(aco, side, max_steps, self.resolved_goal_tolerance(), args)


@dataclass(frozen=True)
class _KernelArgs:
    """What a cycle hands the kernel that depends on its PlannerConfig alone, worked
    out once per config. Plain values only, so a config that has run still copies
    and pickles."""

    aco: AcoParams  # the planner's colony: CONVENTIONAL mode for conventional-aco
    side: int
    max_steps: int  # the step cap of a colony walk
    goal_tolerance: float
    # the cycle call's arguments from the scan radius on: those of apf_cycle for
    # APF, of plan_cycle up to its elite_cutoff otherwise
    args: tuple


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
    the goal, or when no trial succeeds. APF runs the cycle in one call of
    the kernel's apf_cycle: perceive, then baselines.apf_step's rule; the
    verdict is LOCAL_MINIMUM when no neighbour improves on the potential.

    The record holds the pose after the cycle's one step, heading along it,
    and GOAL_REACHED or RUNNING; a halted cycle keeps pose. Raises
    ValueError for a goal that is not finite, and as checked_occupancy does
    for a pose off the world's free cells.
    """
    gx, gy = goal
    if not (math.isfinite(gx) and math.isfinite(gy)):
        raise ValueError(f"goal must be finite, got {goal}")
    k = config._kernel_args
    occ = checked_occupancy(world, pose)
    mod = kernel.module()
    lib, ffi = mod.lib, mod.ffi
    x, y, psi = pose.x, pose.y, pose.psi
    head = (pointer(occ, np.bool_, occ.shape), *occ.shape, world.cell_size, x, y, psi,
            ray_table(psi, config.n_rays), gx, gy)
    # cell id i of the local grid is (r, c) = divmod(i, side), with its center
    # at grid.cell_center's (x + (c - h) * cs, y + (r - h) * cs)
    cs, h, side = config.cell_size, config.half_extent, k.side
    if config.planner is PlannerKind.APF:
        step = lib.apf_cycle(*head, *k.args)
        if step == lib.APF_LOCAL_MINIMUM:
            return CycleRecord(cycle, pose, None, (), _goal_distance(pose, goal), (),
                               RunStatus.LOCAL_MINIMUM)
        if step == lib.APF_NO_MEMORY:
            raise MemoryError("the APF kernel could not allocate its buffers")
        subgoal, subpath, aco_series = None, (), ()
    else:
        key = _entropy_words((seed, cycle))
        path = ffi.new("int32_t[]", k.max_steps + 1)
        out = ffi.new("int[2]")  # path steps, sub-goal cell id
        series = ffi.new("double[]", k.aco.n_iters)
        code = lib.plan_cycle(*head, ffi.new("uint32_t[]", key), len(key), corner_table(),
                              *k.args, path, out, out + 1, series)
        if code == lib.PLAN_STUCK:
            return CycleRecord(cycle, pose, None, (), _goal_distance(pose, goal), (),
                               RunStatus.STUCK)
        r, c = divmod(out[1], side)
        if code != lib.COLONY_OK:
            raise colony_error(code, (r, c), k.aco)
        subgoal = (x + (c - h) * cs, y + (r - h) * cs)
        ids = ffi.unpack(path, out[0] + 1)
        subpath = tuple((x + (i % side - h) * cs, y + (i // side - h) * cs) for i in ids)
        aco_series = tuple(ffi.unpack(series, k.aco.n_iters))
        step = ids[1]
    r, c = divmod(step, side)
    new_pose = Pose(x + (c - h) * cs, y + (r - h) * cs, math.atan2(r - h, c - h))
    dist = _goal_distance(new_pose, goal)
    status = RunStatus.GOAL_REACHED if dist <= k.goal_tolerance else RunStatus.RUNNING
    return CycleRecord(cycle, new_pose, subgoal, subpath, dist, aco_series, status)


def run(scenario: "Scenario") -> RunResult:
    """Run a scenario to a verdict: GoalReached, Stuck, LocalMinimum, StepBudgetExhausted or Collision."""
    config = scenario.config
    world = scenario.world
    goal = scenario.goal
    max_steps = config.resolved_max_steps(world)

    t0 = time.perf_counter()
    pose = scenario.start
    status = RunStatus.GOAL_REACHED \
        if _goal_distance(pose, goal) <= config._kernel_args.goal_tolerance else RunStatus.RUNNING
    poses = [pose]
    records: list[CycleRecord] = []
    while status is RunStatus.RUNNING:
        if len(records) >= max_steps:
            status = RunStatus.STEP_BUDGET_EXHAUSTED
            break
        world = world.advanced()
        try:
            rec = plan_cycle(world, pose, goal, config, scenario.seed, len(records))
        except PoseInObstacle:  # plan_cycle tests the pose before any kernel call
            status = RunStatus.COLLISION
            break
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
