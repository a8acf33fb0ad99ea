"""Receding-horizon planner loop: scan, local grid, sub-goal, sub-path, one step.

Each cycle replans from scratch against the latest scan and executes exactly
one cell of the planned sub-path; the heading after a cycle is the direction
of the executed step. Moving obstacles advance one schedule tick per cycle
before the scan. Every planner's cycle, from the pose test to the step's
collision test, is one call of the compiled kernel: planner.c's plan_cycle
for the proposed and conventional-aco planners, its apf_cycle for APF.
What depends on the config alone is worked out once per PlannerConfig:
the kernel's arguments when the config is made (their checks are its
checks), and on its first cycle the cell tables, the world offset of each
local cell id and the heading of a step onto it. The local grid comes from
grid.local_grid, which perceives each (tick, pose, scan arguments) of a
world once and keeps the grid in the world's memo, so the runs of a batch
on one parsed world share their grids; the occupancy's pointer comes from
WorldMap.kernel_occupancy, one per world tick. What is left per cycle is
the memo lookup, the kernel call, the goal test, and turning the returned
code and cell ids into the CycleRecord that run carries on: each point is
the pose plus a table entry, with no cell arithmetic in Python. run
advances the world only when it has movers; a static world is the same at
every tick.
"""
from __future__ import annotations

import enum
import functools
import math
import numbers
import time
from typing import TYPE_CHECKING

from . import kernel
from .aco import AcoMode, AcoParams, _entropy_words, colony_error, corner_table
from .baselines import ApfParams
from .errors import PoseInObstacle
from .geometry import Frozen, Point, Pose, check_count, store_counts
from .grid import _scan_args, local_grid
from .metrics import RunMetrics, RunStatus, corner_count, path_length
from .subgoal import CostWeights
from .world import WorldMap

if TYPE_CHECKING:
    from .scenario import Scenario


class PlannerKind(enum.Enum):
    PROPOSED = "proposed"
    CONVENTIONAL_ACO = "conventional-aco"
    APF = "apf"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown planner {value!r} (expected proposed, conventional-aco or apf)")


class PlannerConfig(Frozen):
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
        store_counts(self, "n_rays", "half_extent", "inflation_rings", "max_robot_steps")
        for name in ("lidar_radius", "cell_size", "goal_tolerance"):  # as Python floats
            if isinstance(value := getattr(self, name), numbers.Real):
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "planner", PlannerKind(self.planner))  # a member, or ValueError
        self._kernel_args  # the scan, grid and colony checks; keeps what they work out
        if self.goal_tolerance is not None and not 0 <= self.goal_tolerance < math.inf:
            raise ValueError(f"goal_tolerance must be >= 0 and finite, got {self.goal_tolerance}")
        if self.max_robot_steps is not None:
            check_count("max_robot_steps", self.max_robot_steps, 0)

    def resolved_goal_tolerance(self) -> float:
        return self.goal_tolerance if self.goal_tolerance is not None else 0.5 * self.cell_size

    def resolved_max_steps(self, world: WorldMap) -> int:
        if self.max_robot_steps is not None:
            return self.max_robot_steps
        return 10 * max(world.width, world.height)

    def aco_for_planner(self) -> AcoParams:
        """Mode override: the conventional baseline is the same planner in CONVENTIONAL mode."""
        if self.planner is PlannerKind.CONVENTIONAL_ACO:
            return self.aco.replace(mode=AcoMode.CONVENTIONAL)
        return self.aco

    @functools.cached_property
    def _kernel_args(self) -> _KernelArgs:
        cs = self.cell_size
        scan = _scan_args(self.lidar_radius, self.n_rays, cs, self.half_extent,
                          self.inflation_rings)
        aco = self.aco_for_planner()
        side = 2 * self.half_extent + 1
        colony = aco.kernel_args(cs, side * side)
        if self.planner is PlannerKind.APF:
            args = (cs, self.half_extent, self.apf.k_att, self.apf.k_rep,
                    self.apf.resolved_d0(cs))
        else:
            w = self.weights
            args = (cs, self.half_extent, w.alpha, w.beta, w.omega, *colony)
        return _KernelArgs(aco, side, aco.resolved_max_steps(side * side),
                           self.resolved_goal_tolerance(), scan, args)

    @functools.cached_property
    def _cell_tables(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Per cell id i = r * side + c of the local grid: the world offsets
        (c - h) * cell_size and (r - h) * cell_size of its center from the robot,
        added to the robot's x and y, and atan2(r - h, c - h), the heading
        of a step onto it. Built on the config's first cycle, not when it is made."""
        h, cs = self.half_extent, self.cell_size
        cells = [divmod(i, 2 * h + 1) for i in range((2 * h + 1) ** 2)]
        return (tuple((c - h) * cs for _, c in cells), tuple((r - h) * cs for r, _ in cells),
                tuple(math.atan2(r - h, c - h) for r, c in cells))


class _KernelArgs(Frozen):
    """What a cycle hands the kernel that depends on its PlannerConfig alone, worked
    out once per config. Plain values only, so a config that has run still copies
    and pickles. The colony's heuristic goes in as gamma: the kernel computes
    (1 / step) ** gamma itself."""

    aco: AcoParams  # the planner's colony: CONVENTIONAL mode for conventional-aco
    side: int
    max_steps: int  # the step cap of a colony walk
    goal_tolerance: float
    scan: tuple  # _scan_args's: the key of the grid in the world's memo, and perceive's
    # the cycle call's arguments from the cell size on: the cell size and half
    # extent, then those of apf_cycle for APF, or the weights and
    # AcoParams.kernel_args's otherwise
    args: tuple


class CycleRecord(Frozen):
    cycle: int
    pose: Pose
    subgoal: Point | None
    subpath: tuple[Point, ...]  # world centers of the planned sub-path cells
    dist_to_goal: float
    aco_series: tuple[float, ...]
    status: RunStatus

    def __init__(self, cycle: int, pose: Pose, subgoal: Point | None,
                 subpath: tuple[Point, ...], dist_to_goal: float,
                 aco_series: tuple[float, ...], status: RunStatus):
        # one write of every field, past Frozen's own __init__ and its checks
        # of the arguments: the planner makes a record per cycle. The write
        # keeps the instance's dict materialized, which slows a field read
        # (five reads 0.069 us against 0.047 us), but it halves the build
        # (0.50 us against 1.03 us with one object.__setattr__ per field), and
        # a cycle builds one record and reads a few of its fields
        self.__dict__.update(cycle=cycle, pose=pose, subgoal=subgoal, subpath=subpath,
                             dist_to_goal=dist_to_goal, aco_series=aco_series, status=status)


class RunResult(Frozen):
    poses: tuple[Pose, ...]
    records: tuple[CycleRecord, ...]
    metrics: RunMetrics


def _goal_distance(pose: Pose, goal: Point) -> float:
    return math.hypot(pose.x - goal[0], pose.y - goal[1])


def plan_cycle(world: WorldMap, pose: Pose, goal: Point, config: PlannerConfig, seed: int,
               cycle: int) -> CycleRecord:
    """One replanning cycle from pose against the world at its current tick.

    The local grid is grid.local_grid's: perceived once per (tick, pose,
    scan arguments) of the world, and kept in the world's memo. The proposed
    and conventional-aco planners run the rest of the cycle in one call of
    the kernel's plan_cycle (planner.c): rank the grid's marginal cells, and
    plan toward the goal cell when it is reachable, then toward the
    reachable candidates by cost, until a colony reaches its sub-goal. Trial
    a plans with seed (seed, cycle, a). The verdict is STUCK when no
    candidate exists, when the reachable cells form a closed pocket without
    the goal, or when no trial succeeds. APF runs it in one call of the
    kernel's apf_cycle, the kernel's apf_step rule on the grid; the verdict
    is LOCAL_MINIMUM when no neighbour improves on the potential.

    The record holds the pose after the cycle's one step, heading along it,
    and GOAL_REACHED, else COLLISION when the step's world cell is occupied
    at the world's tick, else RUNNING; a halted cycle keeps pose. Raises
    ValueError for a goal that is not finite, and PoseOutOfBounds /
    PoseInObstacle (grid.pose_error) for a pose off the world's free cells.
    """
    gx, gy = goal
    if not (math.isfinite(gx) and math.isfinite(gy)):
        raise ValueError(f"goal must be finite, got {goal}")
    k = config._kernel_args
    dx, dy, heading = config._cell_tables
    cells = local_grid(world, pose, k.scan)
    mod = kernel.module()
    lib, ffi = mod.lib, mod.ffi
    x, y = pose.x, pose.y
    head = (*world.kernel_occupancy(), x, y, cells, gx, gy)
    apf = config.planner is PlannerKind.APF
    if apf:
        out = ffi.new("int32_t[1]")  # the step's cell id
        code = lib.apf_cycle(*head, *k.args, out)
    else:
        key = _entropy_words((seed, cycle))
        # the path's step count, the sub-goal's cell id, then the path's cell ids
        out = ffi.new("int32_t[]", k.max_steps + 3)
        series = ffi.new("double[]", k.aco.n_iters)
        code = lib.plan_cycle(*head, pose.psi, key, len(key), corner_table(), *k.args, out,
                              series)
    ok, step_collision, halts = _verdicts()
    if code != ok and code != step_collision:
        if code in halts:
            return CycleRecord(cycle, pose, None, (), _goal_distance(pose, goal), (), halts[code])
        # NO_MEMORY, or plan_cycle's BAD_TOTAL; APF's out holds its step alone
        raise colony_error(code, None if apf else divmod(out[1], k.side), k.aco)
    # the center of cell id i of the local grid lies at (x + dx[i], y + dy[i])
    if apf:
        subgoal, subpath, aco_series, step = None, (), (), out[0]
    else:
        sub = out[1]
        subgoal = (x + dx[sub], y + dy[sub])
        ids = ffi.unpack(out + 2, out[0] + 1)
        subpath = tuple([(x + dx[i], y + dy[i]) for i in ids])
        aco_series = tuple(ffi.unpack(series, k.aco.n_iters))
        step = ids[1]
    new_pose = Pose(x + dx[step], y + dy[step], heading[step])
    dist = _goal_distance(new_pose, goal)
    status = RunStatus.GOAL_REACHED if dist <= k.goal_tolerance else \
        RunStatus.COLLISION if code == step_collision else RunStatus.RUNNING
    return CycleRecord(cycle, new_pose, subgoal, subpath, dist, aco_series, status)


@functools.cache
def _verdicts() -> tuple:
    """The cycle outcomes, read from the kernel's one outcome enum once: OK,
    STEP_COLLISION, and the halting codes mapped to their RunStatus, STUCK
    (plan_cycle) and LOCAL_MINIMUM (apf_cycle)."""
    lib = kernel.module().lib
    return (lib.OK, lib.STEP_COLLISION,
            {lib.STUCK: RunStatus.STUCK, lib.LOCAL_MINIMUM: RunStatus.LOCAL_MINIMUM})


def run(scenario: "Scenario") -> RunResult:
    """Run a scenario to a verdict: GoalReached, Stuck, LocalMinimum, StepBudgetExhausted or Collision."""
    config, world, goal = scenario.config, scenario.world, scenario.goal
    max_steps = config.resolved_max_steps(world)

    t0 = time.perf_counter()
    pose = scenario.start
    status = RunStatus.GOAL_REACHED \
        if _goal_distance(pose, goal) <= config._kernel_args.goal_tolerance else RunStatus.RUNNING
    poses = [pose]
    records: list[CycleRecord] = []
    moving = bool(world.movers)  # without movers every tick has the same occupancy
    while status is RunStatus.RUNNING:
        if len(records) >= max_steps:
            status = RunStatus.STEP_BUDGET_EXHAUSTED
            break
        if moving:
            world = world.advanced()
        try:
            rec = plan_cycle(world, pose, goal, config, scenario.seed, len(records))
        except PoseInObstacle:  # a mover stepped onto the robot's cell
            status = RunStatus.COLLISION
            break
        records.append(rec)
        pose, status = rec.pose, rec.status
        poses.append(pose)
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
