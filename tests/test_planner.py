import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antnav import (AcoParams, PlannerConfig, PlannerKind, Pose, RunStatus, parse_map, run)
from antnav.geometry import DIR_OFFSETS
from antnav.planner import PlannerState, plan_cycle
from antnav.scenario import Scenario
from antnav.world import WorldMap


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

    def test_requires_running_state(self):
        sc = scenario_from(bordered(9, 9), 1.0, (4, 4), (4, 5))
        state = PlannerState(sc.start, 0, RunStatus.GOAL_REACHED)
        with pytest.raises(ValueError):
            plan_cycle(sc.world, state, sc.goal, sc.config, 0, 0)

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
    occupied_at_start = {cell for m in movers for cell in m.cells_at(0)}
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
