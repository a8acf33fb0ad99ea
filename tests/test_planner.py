import functools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antnav import (AcoMode, AcoParams, ColonyWeightError, CostWeights, PlannerConfig,
                    PlannerKind, Pose, PoseInObstacle, PoseOutOfBounds, RunStatus, kernel, run)
from antnav import planner
from antnav.geometry import DIR_OFFSETS
from antnav.grid import ray_table
from antnav.planner import CycleRecord, RunResult, plan_cycle
from antnav.scenario import Scenario
from antnav.world import MovingObstacle, MoverPolicy, WorldMap

from oracles import cell_center_ref, plan_cycle_ref
from stages import CandidateSet, GridGraph, LocalGrid, SubGoal, occupancy, perceive, plan_subpath


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
    # one cycle call per cycle, and one perceive per distinct key of the
    # world's grid memo: a (tick, pose) that a run of the same world stood on
    # before perceives nothing
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
    sc = scenario_from(s, 1.0, (3, 3), (12, 12), seed=9, planner=kind)
    name = "apf_cycle" if kind is PlannerKind.APF else "plan_cycle"
    seen: set = set()
    tables = 0
    for seed in (9, 9, 10):
        calls.clear()
        result = run(sc.replace(seed=seed))
        assert result.metrics.status is RunStatus.GOAL_REACHED
        keys = {(0, pose.x, pose.y, pose.psi) for pose in result.poses[:-1]}  # a static world
        assert [c for c in calls if c not in ("ray_directions", "perceive")] == \
            [name] * result.metrics.cycles
        assert calls.count("perceive") == len(keys - seen)
        seen |= keys
        assert len(sc.world._grids) == len(seen)
        tables += calls.count("ray_directions")
    assert calls.count("perceive") < len(keys)  # seed 10 stood where seed 9 stood
    # besides, one fill of the ray table of each heading a cycle perceived from
    assert tables == len({psi for *_, psi in seen}) <= 9
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
        assert names <= set(cls._fields)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_config_values_are_rejected_by_name(value):
    # NaN passes every sign check, and a non-finite cell_size must be named
    # before AcoParams.kernel_args's heuristic_weights check reports it as a bad gamma
    with pytest.raises(ValueError, match="goal_tolerance must be >= 0 and finite"):
        PlannerConfig(goal_tolerance=value)
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        PlannerConfig(cell_size=value)


@pytest.mark.parametrize("make, field, value", [
    (AcoParams, "n_ants", 10.5), (AcoParams, "n_iters", True), (AcoParams, "max_steps", 3.0),
    (AcoParams, "elite_cutoff", 1.5), (PlannerConfig, "n_rays", 360.0),
    (PlannerConfig, "half_extent", 4.0), (PlannerConfig, "inflation_rings", 1.5),
    (PlannerConfig, "max_robot_steps", 2.5), (PlannerConfig, "n_rays", np.True_),
])
def test_non_integer_counts_are_rejected_by_name(make, field, value):
    # a float would reach the kernel's int (or, for max_robot_steps, the step
    # loop) and a bool would count as 1; numpy's integers are integers
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        make(**{field: value})
    assert getattr(make(**{field: np.int64(2)}), field) == 2


def test_numpy_integer_counts_are_stored_as_ints(tmp_path):
    # a numpy half_extent made every cell center a numpy float, and the run's
    # corner count then subtracted numpy booleans (TypeError)
    from pathlib import Path

    from antnav.cli import _write_run_outputs
    from antnav.scenario import parse_scenario

    aco = AcoParams(n_ants=np.int64(4), n_iters=np.int32(3), max_steps=np.uint8(9),
                    elite_cutoff=np.int16(2))
    config = PlannerConfig(n_rays=np.int64(90), half_extent=np.int32(3),
                           inflation_rings=np.uint8(1), max_robot_steps=np.int64(50), aco=aco)
    for owner, names in ((aco, ("n_ants", "n_iters", "max_steps", "elite_cutoff")),
                         (config, ("n_rays", "half_extent", "inflation_rings",
                                   "max_robot_steps"))):
        for name in names:
            assert type(getattr(owner, name)) is int, name
    sc = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "multi_obstacle.scn")
    sc = sc.replace(config=sc.config.replace(half_extent=np.int32(3)))
    result = run(sc)
    assert result.metrics.status is RunStatus.GOAL_REACHED
    assert {type(v) for p in result.poses for v in (p.x, p.y, p.psi)} == {float}
    _write_run_outputs(tmp_path, sc, result, plot=False)
    assert "np." not in (tmp_path / "summary.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("change", ["cell_size", "goal_tolerance", "start"])
def test_numpy_floats_are_stored_as_floats(tmp_path, change):
    # a numpy cell_size or start pose made every pose a numpy float, and the run's
    # corner count then subtracted numpy booleans (TypeError); a numpy
    # goal_tolerance reached summary.txt as np.float64(0.5)
    from pathlib import Path

    from antnav.cli import _write_run_outputs
    from antnav.scenario import parse_scenario

    sc = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "multi_obstacle.scn")
    if change == "start":
        sc = sc.replace(start=Pose(*(np.float64(getattr(sc.start, f)) for f in Pose._fields)))
    else:
        value = np.float64(sc.config.cell_size if change == "cell_size" else 0.5)
        sc = sc.replace(config=sc.config.replace(**{change: value}))
    result = run(sc)
    assert result.metrics.status is RunStatus.GOAL_REACHED
    _write_run_outputs(tmp_path, sc, result, plot=False)
    assert "np." not in (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert {type(v) for p in result.poses for v in (p.x, p.y, p.psi)} == {float}
    if change != "start":
        assert type(getattr(sc.config, change)) is float


def test_enum_fields_store_the_member_their_value_names():
    # a string was stored as given and misread: planner="apf" ran the proposed
    # colony, and mode="improved" the conventional one, as kernel_args tests
    # `mode is AcoMode.IMPROVED`
    from pathlib import Path

    from antnav.scenario import parse_scenario

    sc = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "multi_obstacle.scn")

    def poses(**change):
        return run(sc.replace(config=sc.config.replace(**change))).poses

    assert sc.config.replace(planner="apf").planner is PlannerKind.APF
    assert poses(planner="apf") == poses(planner=PlannerKind.APF)
    aco = sc.config.aco.replace(mode="improved")
    assert aco.mode is AcoMode.IMPROVED
    assert poses(aco=aco) == poses(aco=aco.replace(mode=AcoMode.IMPROVED))
    assert AcoParams(mode="conventional").mode is AcoMode.CONVENTIONAL


@pytest.mark.parametrize("make, field, value, message", [
    (PlannerConfig, "planner", 3, "unknown planner 3 (expected proposed, conventional-aco or apf)"),
    (PlannerConfig, "planner", "dijkstra",
     "unknown planner 'dijkstra' (expected proposed, conventional-aco or apf)"),
    (AcoParams, "mode", "x", "'x' is not a valid AcoMode"),
])
def test_unknown_enum_values_raise_at_construction(make, field, value, message):
    with pytest.raises(ValueError) as got:
        make(**{field: value})
    assert str(got.value) == message


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_cycle_outcomes_decode_by_code_alone(kind, monkeypatch):
    # the kernel's perceive and cycle are replaced by ones that return a chosen
    # outcome code and write nothing: the pose codes come from perceive, which
    # runs first, on a copy of the world whose grid memo is empty, the others
    # from the cycle. Each code means one thing whichever call returns it, and
    # NO_MEMORY reads no entry of out (APF's has one)
    import copy
    import types

    real = kernel.module()
    lib, code = real.lib, None
    pose_codes = (lib.POSE_OFF_WORLD, lib.POSE_IN_OBSTACLE)

    class FixedLib:
        def __getattr__(self, name):
            return getattr(real.lib, name)

        def perceive(self, *args):
            return code if code in pose_codes else real.lib.perceive(*args)

        def plan_cycle(self, *args):
            return code

        def apf_cycle(self, *args):
            return code

    sc = scenario_from(bordered(9, 9), 1.0, (4, 4), (4, 6), planner=kind)
    monkeypatch.setattr(kernel, "module", lambda: types.SimpleNamespace(ffi=real.ffi,
                                                                        lib=FixedLib()))

    def cycle(outcome):
        nonlocal code
        code = outcome
        return plan_cycle(copy.copy(sc.world), sc.start, sc.goal, sc.config, sc.seed, 0)

    for outcome, status in ((lib.STUCK, RunStatus.STUCK),
                            (lib.LOCAL_MINIMUM, RunStatus.LOCAL_MINIMUM)):
        rec = cycle(outcome)
        assert (rec.status, rec.pose, rec.subgoal, rec.subpath) == (status, sc.start, None, ())
    with pytest.raises(PoseOutOfBounds) as got:
        cycle(lib.POSE_OFF_WORLD)
    assert str(got.value) == "pose (4.5, 4.5) outside the world"
    with pytest.raises(PoseInObstacle) as got:
        cycle(lib.POSE_IN_OBSTACLE)
    assert str(got.value) == "pose (4.5, 4.5) lies on an occupied cell (4, 4)"
    with pytest.raises(MemoryError) as got:
        cycle(lib.NO_MEMORY)
    assert str(got.value) == "the kernel could not allocate its buffers"
    if kind is not PlannerKind.APF:  # plan_cycle's alone, with the sub-goal's id in out[1]
        with pytest.raises(ColonyWeightError, match=r"^a roulette total toward \(0, 0\) "):
            cycle(lib.BAD_TOTAL)


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
    free = [tuple(cell) for cell in np.argwhere(~occupancy(world)).tolist()
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
                occupancy(world), world.cell_size, (pose.x, pose.y, pose.psi), sc.goal,
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
from antnav.planner import PlannerKind, run
from antnav.scenario import parse_scenario, with_planner
sc = with_planner(parse_scenario(sys.argv[1]), PlannerKind(sys.argv[2]))
sc = sc.replace(config=sc.config.replace(half_extent=int(sys.argv[3]),
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
        scenarios.append(sc.replace(config=sc.config.replace(half_extent=h, n_rays=n_rays)))
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
        assert output(sc.replace(config=config)) == ran


@pytest.mark.parametrize("name", ["corridor", "moving", "multi_obstacle"])
def test_runs_sharing_a_world_match_runs_on_fresh_worlds(name):
    # the runs of a batch on one parsed world read the grids earlier runs left
    # in the world's memo (moving's movers put the tick in the key); each run
    # must give, field by field, the records it gives on a world parsed for it
    from pathlib import Path

    from antnav.scenario import parse_scenario, with_planner, with_seed

    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.scn"
    shared = parse_scenario(path)
    cycles = 0
    for kind in PlannerKind:
        for seed in range(4):
            batch = run(with_seed(with_planner(shared, kind), seed))
            alone = run(with_seed(with_planner(parse_scenario(path), kind), seed))
            assert batch.metrics.status is alone.metrics.status
            assert batch.poses == alone.poses and batch.records == alone.records
            assert repr((batch.poses, batch.records)) == repr((alone.poses, alone.records))
            cycles += batch.metrics.cycles
    assert len(shared.world._grids) < cycles  # later runs read kept grids


@functools.cache
def _one_value_of_each_type() -> dict:
    """A value of each of the package's immutable value types, most of them from one run."""
    from antnav import (AggregateStats, ApfParams, RunMetrics, WeightGroup, aggregate,
                        parse_map)
    from antnav.planner import _KernelArgs
    from antnav.world import ParsedMap

    sc = scenario_from(bordered(11, 11), 1.0, (5, 2), (5, 8))
    result = run(sc)
    rec = result.records[0]
    assert rec.subpath and rec.aco_series and rec.subgoal is not None
    values = [rec.pose, rec, result, result.metrics, aggregate([result.metrics])["corners"],
              sc.config, sc.config._kernel_args, AcoParams(elite_cutoff=3), ApfParams(d0=2.5),
              CostWeights(1.0, 2.0, 0.5), MovingObstacle(((1, 1), (1, 2)), 2, "loop"),
              parse_map("cellsize 1\nstart 1 1 90\ngoal 2 1\n####\n#..#\n####\n"), sc,
              WeightGroup("g", CostWeights(), 0.7, 0.3)]
    types = (Pose, CycleRecord, RunResult, RunMetrics, AggregateStats, PlannerConfig,
             _KernelArgs, AcoParams, ApfParams, CostWeights, MovingObstacle, ParsedMap,
             Scenario, WeightGroup)
    assert [type(value) for value in values] == list(types)
    return {cls.__name__: value for cls, value in zip(types, values)}


@pytest.mark.parametrize("name, fields", [
    ("Pose", "x y psi"),
    ("CycleRecord", "cycle pose subgoal subpath dist_to_goal aco_series status"),
    ("RunResult", "poses records metrics"),
    ("RunMetrics", "path_length corners cycles dist_series aco_series status wall_ms"),
    ("AggregateStats", "best worst average"),
    ("PlannerConfig", "weights aco apf planner lidar_radius n_rays cell_size half_extent "
                      "inflation_rings goal_tolerance max_robot_steps"),
    ("_KernelArgs", "aco side max_steps goal_tolerance scan args"),
    ("AcoParams", "phi gamma rho q n_ants n_iters delta zeta tau0 max_steps elite_cutoff mode"),
    ("ApfParams", "k_att k_rep d0"),
    ("CostWeights", "alpha beta omega"),
    ("MovingObstacle", "waypoints ticks_per_move policy"),
    ("ParsedMap", "world start goal"),
    ("Scenario", "name map_path world start goal config seed"),
    ("WeightGroup", "name weights delta zeta"),
])
def test_value_types_stay_frozen(name, fields):
    # the value types keep what frozen dataclasses gave them without the
    # dataclasses import: fields in order, positional and keyword
    # construction, immutability, field-wise equality and hash, replace,
    # copy and pickle. Pose and CycleRecord write their fields in one dict
    # update, past the base's own __init__
    import copy
    import inspect
    import pickle

    value = _one_value_of_each_type()[name]
    cls = type(value)
    names = fields.split()
    assert list(cls._fields) == names
    if cls in (Pose, CycleRecord):
        assert list(inspect.signature(cls).parameters) == names
    values = [getattr(value, f) for f in names]
    for f in names:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(value, f))
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert cls(*values) == value and cls(**dict(zip(names, values))) == value
    assert value.replace() == value and hash(value.replace()) == hash(value)
    assert value.replace(**{names[0]: values[0]}) == value
    for same in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and hash(same) == hash(value)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    required = [f for f in names if f not in vars(cls)]  # the fields without a default
    if required:
        with pytest.raises(TypeError, match=f"missing .*'{required[-1]}'"):
            cls(**{f: v for f, v in zip(names, values) if f != required[-1]})


def test_value_types_replace_check_and_print_as_before():
    rec = _one_value_of_each_type()["CycleRecord"]
    pose = rec.pose
    assert rec.replace(cycle=7).cycle == 7 and rec.replace(cycle=7) != rec
    assert pose.replace(psi=3 * math.pi).psi == math.pi  # wrapped again
    with pytest.raises(ValueError, match="n_rays"):
        PlannerConfig().replace(n_rays=0)  # checked again
    with pytest.raises(ValueError, match="finite"):
        pose.replace(x=math.nan)
    # the repr text of the dataclasses these types were
    assert repr(Pose(1.0, 2.0, 0.5)) == "Pose(x=1.0, y=2.0, psi=0.5)"
    aco = ("AcoParams(phi=1.0, gamma=5.0, rho=0.3, q=1.0, n_ants=20, n_iters=50, delta=0.7, "
           "zeta=0.3, tau0=1.0, max_steps=None, elite_cutoff=None, "
           "mode=<AcoMode.IMPROVED: 'improved'>)")
    assert repr(AcoParams()) == aco
    assert repr(PlannerConfig()) == (
        f"PlannerConfig(weights=CostWeights(alpha=4.0, beta=1.8, omega=1.0), aco={aco}, "
        "apf=ApfParams(k_att=1.0, k_rep=100.0, d0=None), "
        "planner=<PlannerKind.PROPOSED: 'proposed'>, lidar_radius=6.0, n_rays=360, "
        "cell_size=1.5, half_extent=4, inflation_rings=1, goal_tolerance=None, "
        "max_robot_steps=None)")


def test_cell_tables_are_built_on_the_first_cycle():
    # a config works out its cell tables when it first runs, not when it is made
    sc = scenario_from(bordered(11, 11), 1.0, (5, 2), (5, 8), half_extent=3)
    assert "_cell_tables" not in vars(sc.config)
    run(sc)
    dx, dy, heading = vars(sc.config)["_cell_tables"]
    assert len(dx) == len(dy) == len(heading) == 49
    assert (dx[0], dy[0], heading[0]) == (-3.0, -3.0, math.atan2(-3, -3))


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


def pose_verdict_ref(world, pose):
    """The Python rule the kernel's pose test replaced: WorldMap.cell_of, then
    in_bounds, then the occupancy at the world's tick. (exception type,
    message), or (None, None) for a pose on a free cell."""
    cell = world.cell_of(pose.x, pose.y)
    if not world.in_bounds(cell):
        return PoseOutOfBounds, f"pose {pose.xy} outside the world"
    if occupancy(world)[cell]:
        return PoseInObstacle, f"pose {pose.xy} lies on an occupied cell {cell}"
    return None, None


def raised(call):
    try:
        return None, None, call()
    except (PoseOutOfBounds, PoseInObstacle) as exc:
        return type(exc), str(exc), None


def random_poses(rng, world):
    """Poses inside and around the world: random, on exact cell borders (and one
    ulp either side), at negative coordinates and far off the world."""
    cs, h, w = world.cell_size, world.height, world.width
    xs = [float(v) for v in rng.uniform(-cs, (w + 1) * cs, 6)]
    ys = [float(v) for v in rng.uniform(-cs, (h + 1) * cs, 6)]
    col, row = int(rng.integers(-1, w + 2)), int(rng.integers(-1, h + 2))
    xs += [col * cs, math.nextafter(col * cs, -math.inf), math.nextafter(col * cs, math.inf),
           w * cs, -0.0, -1e-300, 1e6, -1e300]
    ys += [row * cs, math.nextafter(row * cs, -math.inf), math.nextafter(row * cs, math.inf),
           h * cs, -0.0, -1e-300, -1e6, 1e300]
    psi = [math.atan2(*DIR_OFFSETS[int(rng.integers(8))]) for _ in range(len(xs))]
    return [Pose(x, y, p) for x, y, p in zip(xs, rng.permutation(ys).tolist(), psi)] \
        + [Pose(x, y, 0.0) for x, y in zip(xs[6:], ys[6:])]


def test_kernel_pose_and_step_tests_match_the_python_rules():
    """perceive's and both cycles' pose verdict against pose_verdict_ref, type
    and message, and each cycle's step verdict against WorldMap.occupancy_at
    of the new pose, on random worlds with movers at several ticks. Local
    cells that differ in size from the world's, few rays and poses off the
    cell centers let steps land on occupied world cells."""
    rng = np.random.default_rng(2222)
    fired = dict.fromkeys(("off", "occupied", "free", "step_free", "collision"), 0)
    for case in range(40):
        h, w = (int(v) for v in rng.integers(4, 12, size=2))
        cs = float(rng.choice([0.3, 0.7, 1.0, 1.5]))
        movers = []
        for _ in range(int(rng.integers(1, 4))):
            chain = [(int(rng.integers(h)), int(rng.integers(w)))]
            for _ in range(int(rng.integers(0, 5))):
                dr, dc = DIR_OFFSETS[int(rng.integers(8))]
                if 0 <= chain[-1][0] + dr < h and 0 <= chain[-1][1] + dc < w:
                    chain.append((chain[-1][0] + dr, chain[-1][1] + dc))
            movers.append(MovingObstacle(tuple(chain), 1, MoverPolicy.LOOP))
        world = WorldMap(rng.random((h, w)) < 0.25, cs, tuple(movers))
        for _ in range(int(rng.integers(0, 4))):
            world = world.advanced()
        half_extent = int(rng.integers(1, 4))
        config = PlannerConfig(
            cell_size=cs * float(rng.choice([0.6, 1.0, 1.4])), half_extent=half_extent,
            lidar_radius=3.0 * half_extent * cs, n_rays=int(rng.choice([1, 3, 8, 60])),
            inflation_rings=int(rng.integers(2)), planner=list(PlannerKind)[case % 3],
            aco=AcoParams(n_ants=3, n_iters=2))
        goal = (float(rng.uniform(0, w * cs)), float(rng.uniform(0, h * cs)))
        for pose in random_poses(rng, world):
            expected = pose_verdict_ref(world, pose)
            grid = raised(lambda: perceive(world, pose, config.lidar_radius, config.n_rays,
                                           config.cell_size, half_extent,
                                           config.inflation_rings))
            rec = raised(lambda: plan_cycle(world, pose, goal, config, case, 0))
            assert grid[:2] == expected and rec[:2] == expected, (case, pose)
            fired["off" if expected[0] is PoseOutOfBounds else
                  "occupied" if expected[0] is PoseInObstacle else "free"] += 1
            rec = rec[2]
            if rec is None or rec.status in (RunStatus.STUCK, RunStatus.LOCAL_MINIMUM):
                continue
            cell = world.cell_of(rec.pose.x, rec.pose.y)
            assert world.in_bounds(cell)  # the world clamp keeps every step on the world
            collided = world.occupancy_at(cell)
            want = RunStatus.GOAL_REACHED if rec.dist_to_goal <= config.resolved_goal_tolerance() \
                else RunStatus.COLLISION if collided else RunStatus.RUNNING
            assert rec.status is want, (case, pose, rec.pose)
            fired["collision" if collided else "step_free"] += 1
    assert all(count > 0 for count in fired.values()), fired


@pytest.mark.parametrize("kind", list(PlannerKind))
def test_step_onto_an_unseen_mover_ends_the_run_in_collision(kind):
    # one ray, pointing west: the mover east of the robot goes unseen, and
    # the step toward the goal beyond it lands on it
    sc = scenario_from(bordered(11, 11), 1.0, (5, 5), (5, 7), psi=math.pi,
                       movers=[MovingObstacle(((5, 6),))], n_rays=1, inflation_rings=0,
                       planner=kind, aco=AcoParams(n_ants=4, n_iters=3))
    result = run(sc)
    assert result.metrics.status is RunStatus.COLLISION and result.metrics.cycles == 1
    assert result.records[-1].status is RunStatus.COLLISION
    assert result.poses[-1].xy == (6.5, 5.5)


def test_occupancy_pointer_is_made_once_per_tick(monkeypatch):
    # the occupancy goes to the kernel through one ffi.from_buffer per world
    # tick, and a world without movers hands its pointer on to every tick
    import copy
    import pickle
    import types
    from pathlib import Path

    from antnav.aco import corner_table
    from antnav.scenario import parse_scenario

    corner_table()  # its pointer is made once per process
    real, buffers = kernel.module(), []

    class CountingFFI:
        def __getattr__(self, name):
            return getattr(real.ffi, name)

        def from_buffer(self, ctype, arr, **kwargs):
            buffers.append(arr)
            return real.ffi.from_buffer(ctype, arr, **kwargs)

    monkeypatch.setattr(kernel, "module", lambda: types.SimpleNamespace(ffi=CountingFFI(),
                                                                        lib=real.lib))
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    corridor = parse_scenario(scenarios / "corridor.scn")
    assert not corridor.world.movers
    result = run(corridor)
    assert result.metrics.cycles > 1
    assert len(buffers) == 1 and buffers[0] is corridor.world.cells  # the one store
    buffers.clear()
    moving = parse_scenario(scenarios / "moving.scn")
    assert moving.world.movers
    result = run(moving)
    assert len(buffers) == result.metrics.cycles
    assert len({id(arr) for arr in buffers}) == len(buffers)

    for sc in (corridor, moving):
        ticked = sc.world.advanced().advanced()
        ticked.kernel_occupancy()  # a world that holds its pointer
        for world in (sc.world, ticked):
            for copied in (copy.deepcopy(world), pickle.loads(pickle.dumps(world))):
                assert copied == world and not copied._grids  # a copy starts with no grids
                assert np.array_equal(occupancy(copied), occupancy(world))
                assert copied.kernel_occupancy()[1:] == world.kernel_occupancy()[1:]
        assert repr(run(copy.deepcopy(sc)).poses) == repr(run(sc).poses)
