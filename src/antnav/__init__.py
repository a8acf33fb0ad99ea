"""Receding-horizon grid navigation with an ant-colony sub-path planner.

Pipeline per cycle: simulate a LiDAR scan, rasterize it into a robot-centered
local grid (inflated, occlusion-masked, clamped to the world), pick the minimum-cost sub-goal among marginal free cells, plan an
8-connected sub-path with the ant colony, execute one step, repeat.
"""

from .aco import AcoParams, corner_heuristic
from .baselines import ApfParams
from .errors import (AntnavError, ColonyWeightError, EmptyRuns, MapParseError, NoPathFound,
                     OutOfBounds, PoseInObstacle, PoseOutOfBounds, ScenarioParseError)
from .geometry import Cell, Point, Pose, wrap_angle
from .metrics import (AggregateStats, RunMetrics, RunStatus, aggregate,
                      corner_count, path_length)
from .planner import CycleRecord, PlannerConfig, PlannerKind, RunResult, plan_cycle, run
from .scenario import Scenario, WeightGroup, parse_groups, parse_scenario
from .subgoal import CostWeights
from .world import MovingObstacle, MoverPolicy, ParsedMap, WorldMap, load_map, parse_map

__version__ = "0.1.0"
