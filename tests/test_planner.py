import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antnav import (AcoParams, CandidateSet, ColonyWeightError, CostWeights, GridGraph,
                    LocalGrid, PlannerConfig, PlannerKind, Pose, RunStatus, SubGoal, kernel,
                    perceive, plan_subpath, run)
from antnav import planner
from antnav.geometry import DIR_OFFSETS
from antnav.grid import ray_table
from antnav.planner import CycleRecord, RunResult, plan_cycle
from antnav.scenario import Scenario
from antnav.world import MovingObstacle, MoverPolicy, WorldMap

from oracles import cell_center_ref, plan_cycle_ref


def scenario_from(static, cell_size, start_cell, goal_cell, psi=0.0, movers=(),
                  seed=3, **cfg):
    world = WorldMap(np.asarray(static, bool), cell_size, tuple(movers))
    sx, sy = world.cell_center(start_cell)
    goal = world.cell_center(goal_cell)
    config = PlannerConfig(cell_size=cell_size,
                           lidar_radius=cfg.pop("lidar_radius", 4 * cell_size),
                           **cfg)
    return Scenario(name="inline", map_path="<inline>", world=world,
                    start=Pose(sx, sy, psi), goal=goal, config=config, seed=seed)


def bordered(h, w):
    s = np.zeros((h, w), bool)
    s[0, :] = s[-1, :] = True
    s[:, 0] = s[:, -1] = True
    return s


class TestPlanCycle:
    def test_goal_one_cell_away_single_cycle(self):
        sc = scenario_from(bordered(9, 9), 1.0, (4, 4), (4, 5))
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        assert result.metrics.cycles == 1

    def test_straight_corridor_one_cell_per_cycle(self):
        # corridor 3 cells wide so the center row survives inflation
        s = np.ones((13, 13), bool)
        s[6:9, 1:12] = False
        sc = scenario_from(s, 1.0, (7, 1), (7, 10))
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        assert result.metrics.cycles == 9
        xs = [p.x for p in result.poses]
        assert xs == sorted(xs)
        assert all(p.y == 7.5 for p in result.poses)

    def test_terminal_capture_overrides_cost_function(self):
        sc = scenario_from(bordered(11, 11), 1.0, (5, 3), (5, 6))
        result = run(sc)
        first = result.records[0]
        assert first.subgoal == sc.goal  # visible free goal cell selected directly


class TestRun:
    def test_sealed_room_is_stuck(self):
        s = bordered(13, 13)
        s[3, 3:10] = s[9, 3:10] = True
        s[3:10, 3] = s[3:10, 9] = True
        sc = scenario_from(s, 1.0, (6, 6), (11, 11))
        result = run(sc)
        assert result.metrics.status is RunStatus.STUCK

    def test_start_at_goal(self):
        sc = scenario_from(bordered(9, 9), 1.0, (4, 4), (4, 4))
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        assert result.metrics.cycles == 0

    def test_deterministic_replay(self):
        s = bordered(15, 15)
        s[7, 4:9] = True
        sc = scenario_from(s, 1.0, (3, 3), (12, 12), seed=9)
        a = run(sc)
        b = run(sc)
        assert [p.xy for p in a.poses] == [p.xy for p in b.poses]
        # everything except wall-clock time is seed-determined
        assert a.metrics.path_length == b.metrics.path_length
        assert a.metrics.corners == b.metrics.corners
        assert a.metrics.dist_series == b.metrics.dist_series
        assert a.metrics.aco_series == b.metrics.aco_series
        assert a.metrics.status is b.metrics.status

    def test_step_budget(self):
        sc = scenario_from(bordered(9, 9), 1.0, (4, 4), (4, 6), max_robot_steps=0)
        result = run(sc)
        assert result.metrics.status is RunStatus.STEP_BUDGET_EXHAUSTED

    def test_one_step_commitment_and_heading(self):
        s = bordered(15, 15)
        s[7, 4:9] = True
        sc = scenario_from(s, 1.0, (3, 3), (12, 12), seed=5)
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        for before, after in zip(result.poses, result.poses[1:]):
            dx, dy = after.x - before.x, after.y - before.y
            # at most one 8-connected hop per cycle
            assert abs(dx) <= 1.0 + 1e-9 and abs(dy) <= 1.0 + 1e-9
            if dx or dy:
                assert abs(after.psi - math.atan2(dy, dx)) < 1e-12

    def test_safety_robot_never_on_occupied_cell(self):
        from antnav.world import MovingObstacle, MoverPolicy
        s = bordered(15, 15)
        s[7, 4:7] = True
        mover = MovingObstacle(tuple((r, 10) for r in range(3, 12)), ticks_per_move=2,
                               policy=MoverPolicy.PINGPONG)
        sc = scenario_from(s, 1.0, (7, 1), (7, 12), movers=[mover], seed=8)
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        world = sc.world
        for rec in result.records:
            world = world.advanced()
            assert not world.occupancy_at(world.cell_of(rec.pose.x, rec.pose.y))

    def test_mover_onto_robot_ends_in_collision(self):
        mover = MovingObstacle(tuple((r, 7) for r in range(3, 8)), ticks_per_move=1,
                               policy=MoverPolicy.PINGPONG)
        sc = scenario_from(bordered(11, 11), 1.0, (9, 1), (1, 9), movers=[mover], seed=5,
                           n_rays=120, inflation_rings=0, max_robot_steps=60,
                           aco=AcoParams(n_ants=6, n_iters=5))
        result = run(sc)
        assert result.metrics.status is RunStatus.COLLISION
        assert result.metrics.cycles == 13
        assert result.poses[-1].xy == (7.5, 5.5)

    def test_dist_series_matches_goal_condition(self):
        sc = scenario_from(bordered(11, 11), 1.0, (5, 2), (5, 8))
        result = run(sc)
        m = result.metrics
        tol = sc.config.resolved_goal_tolerance()
        assert (m.dist_series[-1] <= tol) == (m.status is RunStatus.GOAL_REACHED)

    def test_corner_metric_matches_independent_recount(self):
        s = bordered(15, 15)
        s[7, 4:9] = True
        sc = scenario_from(s, 1.0, (3, 3), (12, 12), seed=2)
        result = run(sc)
        # independent recount over executed steps
        dirs = []
        for a, b in zip(result.poses, result.poses[1:]):
            dx, dy = b.x - a.x, b.y - a.y
            if dx == 0 and dy == 0:
                continue
            dirs.append((round(dx), round(dy)))
        recount = sum(1 for u, v in zip(dirs, dirs[1:]) if u != v)
        assert recount == result.metrics.corners

    def test_apf_planner_hits_local_minimum_verdict(self):
        # east-facing pocket dead ahead of the start
        s = bordered(13, 13)
        s[4, 5:9] = True
        s[8, 5:9] = True
        s[4:9, 8] = True
        s[5, 7] = s[7, 7] = True
        sc = scenario_from(s, 1.0, (6, 2), (6, 11), planner=PlannerKind.APF, seed=1)
        result = run(sc)
        assert result.metrics.status is RunStatus.LOCAL_MINIMUM

    def test_apf_planner_reaches_goal_in_open_world(self):
        sc = scenario_from(bordered(11, 11), 1.0, (5, 2), (5, 8),
                           planner=PlannerKind.APF)
        result = run(sc)
        assert result.metrics.status is RunStatus.GOAL_REACHED
        assert result.metrics.cycles == 6


@st.composite
def worlds_with_movers(draw):
    """A bordered map with random blocks, one or two movers on 8-adjacent
    waypoint chains, and free start and goal cells."""
    from antnav.world import MovingObstacle, MoverPolicy
    h, w = draw(st.integers(7, 12)), draw(st.integers(7, 12))
    static = bordered(h, w)
    interior = st.tuples(st.integers(1, h - 2), st.integers(1, w - 2))
    for cell in draw(st.lists(interior, max_size=(h * w) // 6)):
        static[cell] = True
    movers = []
    for _ in range(draw(st.integers(1, 2))):
        chain = [draw(interior)]
        for step in draw(st.lists(st.sampled_from(DIR_OFFSETS), min_size=1, max_size=8)):
            r, c = chain[-1][0] + step[0], chain[-1][1] + step[1]
            if 1 <= r <= h - 2 and 1 <= c <= w - 2:
                chain.append((r, c))
        movers.append(MovingObstacle(tuple(chain), draw(st.integers(1, 3)),
                                     draw(st.sampled_from(list(MoverPolicy)))))
    start, goal = draw(interior), draw(interior)
    occupied_at_start = {m.anchor_at(0) for m in movers}
    assume(start != goal and not static[start] and not static[goal]
           and start not in occupied_at_start)
    planner = draw(st.sampled_from([PlannerKind.PROPOSED, PlannerKind.CONVENTIONAL_ACO]))
    return scenario_from(static, 1.0, start, goal, movers=movers, seed=draw(st.integers(0, 99)),
                         n_rays=120, planner=planner, max_robot_steps=60,
                         aco=AcoParams(n_ants=6, n_iters=5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(worlds_with_movers())
def test_robot_never_stands_on_an_occupied_cell_at_its_tick(sc):
    """At tick t the robot stands on pose t - 1 (while cycle t - 1 plans) and
    then on pose t; neither may be occupied at that tick."""
    result = run(sc)
    world = sc.world
    for t in range(len(result.poses)):
        for k in {max(t - 1, 0), t}:
            cell = world.cell_of(*result.poses[k].xy)
            assert world.in_bounds(cell) and not world.occupancy_at(cell), (k, t)
        world = world.advanced()


COLONY_PLANNERS = [PlannerKind.PROPOSED, PlannerKind.CONVENTIONAL_ACO]


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_plan_cycle_is_one_kernel_call(kind, monkeypatch):
    real = kernel.module()
    calls, built = [], []

    class CountingLib:
        def __getattr__(self, name):
            if not callable(getattr(real.lib, name)):
                return getattr(real.lib, name)  # a verdict code of the kernel's enums

            def call(*args):
                calls.append(name)
                return getattr(real.lib, name)(*args)
            return call

    proxy = mock.Mock(ffi=real.ffi, lib=CountingLib())
    monkeypatch.setattr(kernel, "module", lambda: proxy)
    for cls in (LocalGrid, GridGraph, CandidateSet, SubGoal):
        def init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    s = bordered(15, 15)
    s[7, 4:9] = True
    ray_table.cache_clear()
    result = run(scenario_from(s, 1.0, (3, 3), (12, 12), seed=9, planner=kind))
    assert result.metrics.status is RunStatus.GOAL_REACHED
    name = "apf_cycle" if kind is PlannerKind.APF else "plan_cycle"
    # besides, one fill of the ray table of each heading a cycle started from
    headings = {pose.psi for pose in result.poses[:-1]}
    assert [c for c in calls if c != "ray_directions"] == [name] * result.metrics.cycles
    assert calls.count("ray_directions") == len(headings) <= 9
    assert built == []


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_run_calls_the_module_plan_cycle_once_per_cycle(kind, monkeypatch):
    # bench/run.py times each cycle by wrapping the module attribute
    # antnav.planner.plan_cycle, and reads the fields checked below; a run
    # that bypassed the attribute would leave it no sample, which reads 0 ms
    real, calls = planner.plan_cycle, []

    def wrapped(*args, **kwargs):
        calls.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "plan_cycle", wrapped)
    sc = scenario_from(bordered(11, 11), 1.0, (5, 2), (5, 8), planner=kind)
    result = run(sc)
    assert result.metrics.cycles > 1
    assert calls == list(range(result.metrics.cycles))
    assert len(result.poses) == result.metrics.cycles + 1
    for cls, names in ((CycleRecord, {"subgoal", "subpath", "aco_series"}),
                       (RunResult, {"poses"}), (PlannerConfig, {"cell_size"})):
        assert names <= {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_values_are_rejected_by_name(value):
    # NaN passes every sign check, and a non-finite cell_size must be named
    # before eta_gamma reports it as a bad gamma
    with pytest.raises(ValueError, match="goal_tolerance must be >= 0 and finite"):
        PlannerConfig(goal_tolerance=value)
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        PlannerConfig(cell_size=value)


def test_unusable_colony_weights_raise_what_plan_subpath_raises():
    # tau0 * (1/1.5)**5 rounds to 0 on every edge: no roulette total is usable
    params = AcoParams(tau0=5e-324)
    sc = scenario_from(bordered(11, 11), 1.5, (5, 2), (5, 8), aco=params)
    world = sc.world.advanced()
    with pytest.raises(ColonyWeightError) as raised:
        plan_cycle(world, sc.start, sc.goal, sc.config, sc.seed, 0)
    subgoal = tuple(map(int, re.search(r"toward \((\d+), (\d+)\)", str(raised.value)).groups()))
    config = sc.config
    grid = perceive(world, sc.start, config.lidar_radius, config.n_rays, config.cell_size,
                    config.half_extent, config.inflation_rings)
    graph = GridGraph(grid.traversable_mask(), grid.cell_size)
    with pytest.raises(ColonyWeightError) as expected:
        plan_subpath(graph, grid.center_cell, subgoal, params, (sc.seed, 0, 0))
    assert str(raised.value) == str(expected.value)


def random_cycle_scenario(rng):
    """A bordered random map with movers, a free start on a step heading and a
    free goal, planned by a random colony planner with random weights: one
    weight alone in some (the bearing alone ties every cell on a ray), and a
    short step cap in some (so trials fail and fall back). Most maps have a
    picket fence between the start and the goal: the rays pass between its
    posts and inflation closes the gaps, so free marginal cells behind it
    are seen but not reached."""
    h, w = (int(v) for v in rng.integers(9, 16, size=2))
    static = bordered(h, w)
    static |= rng.random((h, w)) < rng.uniform(0.0, 0.15)
    start = (int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1)))
    axis, line = 0, None  # the fence is row `line` (axis 0) or column `line`
    if rng.random() < 0.7:
        axis = int(rng.integers(2))
        line = start[axis] + int(rng.choice([-3, -2, 2, 3]))
        if 1 <= line <= static.shape[axis] - 2:
            posts = slice(int(rng.integers(1, 3)), None, int(rng.integers(2, 4)))
            static[(line, posts) if axis == 0 else (posts, line)] = True
        else:
            line = None
    static[start] = False
    movers = []
    for _ in range(int(rng.integers(0, 3))):
        chain = [(int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1)))]
        for _ in range(int(rng.integers(1, 6))):
            dr, dc = DIR_OFFSETS[int(rng.integers(8))]
            r, c = chain[-1][0] + dr, chain[-1][1] + dc
            if 1 <= r <= h - 2 and 1 <= c <= w - 2:
                chain.append((r, c))
        movers.append(MovingObstacle(tuple(chain), int(rng.integers(1, 3)),
                                     MoverPolicy.PINGPONG))
    world = WorldMap(static, 1.0, tuple(movers))
    free = [tuple(cell) for cell in np.argwhere(~world.occupancy_grid()).tolist()
            if tuple(cell) != start
            and (line is None or (cell[axis] - line) * (start[axis] - line) < 0)]
    if world.occupancy_at(start) or not free:
        return None
    goal = free[int(rng.integers(len(free)))]
    weights = [CostWeights(), CostWeights(0.0, 1.0, 0.0), CostWeights(1.0, 0.0, 0.0),
               CostWeights(*rng.uniform(0.0, 5.0, 3).tolist())][int(rng.integers(4))]
    half_extent = int(rng.integers(2, 6))
    return scenario_from(
        static, 1.0, start, goal, psi=float(math.atan2(*DIR_OFFSETS[int(rng.integers(8))])),
        movers=movers, seed=int(rng.integers(0, 2**40)), weights=weights,
        half_extent=half_extent, lidar_radius=half_extent * float(rng.uniform(1.0, 1.5)),
        n_rays=int(rng.choice([90, 120, 360])), inflation_rings=int(rng.random() < 0.8),
        planner=COLONY_PLANNERS[int(rng.integers(2))],
        aco=AcoParams(n_ants=int(rng.integers(2, 7)), n_iters=int(rng.integers(1, 6)),
                      max_steps=[None, None, 3][int(rng.integers(3))]))


def test_fused_cycle_matches_the_reference_cycle():
    """plan_cycle against oracles.plan_cycle_ref, cycle by cycle along the run,
    by bits: verdict, sub-goal, path and colony series."""
    rng = np.random.default_rng(1313)
    fired = {"stuck": 0, "captured": 0, "ranked": 0, "cycles": 0}
    cases = 0
    while cases < 60:
        sc = random_cycle_scenario(rng)
        if sc is None:
            continue
        cases += 1
        world, pose = sc.world, sc.start
        config, h = sc.config, sc.config.half_extent
        for cycle in range(4):
            world = world.advanced()
            if world.occupancy_at(world.cell_of(pose.x, pose.y)):
                break
            rec = plan_cycle(world, pose, sc.goal, config, sc.seed, cycle)
            verdict, subgoal, cells, series = plan_cycle_ref(
                world.occupancy_grid(), world.cell_size, (pose.x, pose.y, pose.psi), sc.goal,
                config, sc.seed, cycle)
            fired["cycles"] += 1
            if verdict == "stuck":
                assert rec.status is RunStatus.STUCK and rec.subgoal is None
                fired["stuck"] += 1
                break
            center = [cell_center_ref((pose.x, pose.y), config.cell_size, h, *c)
                      for c in (subgoal, *cells)]
            assert [v.hex() for p in (rec.subgoal, *rec.subpath) for v in p] == \
                [v.hex() for p in center for v in p]
            assert [v.hex() for v in rec.aco_series] == [v.hex() for v in series]
            fired["captured" if rec.subgoal == sc.goal else "ranked"] += 1
            if rec.status is not RunStatus.RUNNING:
                break
            pose = rec.pose
    assert all(count > 0 for count in fired.values()), fired


# Runs one variant of a scenario in a fresh process and prints the repr of
# its seed-determined output; argv: scenario path, planner, half_extent.
FRESH_RUN = """
import sys
from dataclasses import replace
from antnav.planner import PlannerKind, run
from antnav.scenario import parse_scenario, with_planner
sc = with_planner(parse_scenario(sys.argv[1]), PlannerKind(sys.argv[2]))
sc = replace(sc, config=replace(sc.config, half_extent=int(sys.argv[3]),
                                n_rays=int(sys.argv[4])))
result = run(sc)
print(repr((result.metrics.status, result.poses, result.records)))
"""


def test_config_cache_keeps_runs_apart():
    # each PlannerConfig works out its kernel arguments once and keeps them,
    # and grid.ray_table keeps one ray table per (heading, ray count): the
    # variants of one scenario run in one process (a 120-ray run after the
    # 360-ray runs from the same headings), and a config copied or pickled
    # after it ran, must give the bytes of a fresh process
    import copy
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    from antnav.scenario import parse_scenario, with_planner

    repo = Path(__file__).resolve().parent.parent
    path = str(repo / "scenarios" / "multi_obstacle.scn")
    base = parse_scenario(path)

    def output(sc):
        result = run(sc)
        return repr((result.metrics.status, result.poses, result.records))

    variants = [(kind.value, 4, 360) for kind in PlannerKind] \
        + [("proposed", 3, 360), ("apf", 3, 360), ("proposed", 4, 120)]
    scenarios = []
    for name, h, n_rays in variants:
        sc = with_planner(base, PlannerKind(name))
        scenarios.append(dataclasses.replace(
            sc, config=dataclasses.replace(sc.config, half_extent=h, n_rays=n_rays)))
    in_process = [output(sc) for sc in scenarios]
    assert output(scenarios[0]) == in_process[0]  # its config's arguments are kept by now
    for (name, h, n_rays), got in zip(variants, in_process):
        fresh = subprocess.run([sys.executable, "-c", FRESH_RUN, path, name, str(h),
                                str(n_rays)],
                               cwd=repo / "src", capture_output=True, text=True, timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        assert got == fresh.stdout.strip(), (name, h, n_rays)

    sc = with_planner(base, PlannerKind.CONVENTIONAL_ACO)
    ran = output(sc)
    for config in (copy.deepcopy(sc.config), pickle.loads(pickle.dumps(sc.config))):
        assert config == sc.config and hash(config) == hash(sc.config)
        assert output(dataclasses.replace(sc, config=config)) == ran


NON_FINITE_GOAL = """
import math
import numpy as np
from antnav import PlannerConfig, PlannerKind, Pose
from antnav.planner import plan_cycle
from antnav.world import WorldMap
static = np.zeros((11, 11), bool)
static[[0, -1], :] = static[:, [0, -1]] = True
static[3, 1::2] = True  # a picket fence: the goal-less ranking picks an unreachable cell
world = WorldMap(static, 1.0)
for kind in PlannerKind:
    config = PlannerConfig(cell_size=1.0, lidar_radius=4.0, planner=kind)
    for goal in ((5.5, 9.5), (math.nan, math.nan), (5.5, math.nan), (math.inf, 5.5),
                 (5.5, -math.inf)):
        try:
            plan_cycle(world, Pose(5.5, 5.5, 0.0), goal, config, 0, 0)
            print(kind.value, goal, "returned", flush=True)
        except ValueError as exc:
            print(kind.value, goal, exc, flush=True)
"""


def test_non_finite_goal_is_rejected_before_the_kernel():
    # a NaN or infinite goal makes every cost NaN; the kernel's trial loop
    # then kept picking one unreachable candidate and never returned, so the
    # cycle runs in a child with a timeout
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    try:
        res = subprocess.run([sys.executable, "-c", NON_FINITE_GOAL], cwd=src,
                             capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"plan_cycle did not return; printed {exc.stdout!r}")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 5 * len(PlannerKind)
    for kind in PlannerKind:
        assert f"{kind.value} (5.5, 9.5) returned" in lines
        for goal in ("(nan, nan)", "(5.5, nan)", "(inf, 5.5)", "(5.5, -inf)"):
            assert f"{kind.value} {goal} goal must be finite, got {goal}" in lines


@pytest.mark.parametrize("field", ["x", "y", "psi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pose_rejects_a_non_finite_field(field, value):
    # a NaN heading used to reach the kernel, which then saw no wall; an
    # infinite one failed inside wrap_angle's fmod
    args = {"x": 5.5, "y": 5.5, "psi": 0.0, field: value}
    with pytest.raises(ValueError, match=f"^pose {field} must be finite, got {value}$"):
        Pose(**args)
