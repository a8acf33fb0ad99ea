import math

import numpy as np
import pytest

from antnav import ApfParams, CellState, LocalMinimum, Pose, apf_step
from antnav.grid import LocalGrid

from test_grid import grid_of, random_grid


def potential_ref(point, goal, obstacles, k_att, k_rep, d0):
    u = 0.5 * k_att * ((point[0] - goal[0]) ** 2 + (point[1] - goal[1]) ** 2)
    if obstacles:
        d = min(math.hypot(point[0] - ox, point[1] - oy) for ox, oy in obstacles)
        if d < d0:
            u += 0.5 * k_rep * (1.0 / d - 1.0 / d0) ** 2
    return u


class TestApfStep:
    def test_no_obstacles_steps_toward_goal(self):
        grid = grid_of()
        nxt = apf_step(grid, Pose(10.5, 10.5, 0.0), (30.0, 10.5), ApfParams())
        assert nxt == (4, 5)

    def test_u_trap_local_minimum(self):
        # robot sits inside a tight east-facing pocket: arms one row above and
        # below, back wall one cell east; the only free neighbor is the mouth
        # to the west, where the goal attraction is strictly worse
        origin = Pose(10.5, 10.5, 0.0)
        cells = np.full((9, 9), CellState.FREE, dtype=np.int8)
        for r, c in [(3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (5, 5), (4, 5)]:
            cells[r, c] = CellState.OCCUPIED
        cells[4, 4] = CellState.ROBOT
        grid = LocalGrid(origin, 1.0, 4, cells, np.empty(0))
        with pytest.raises(LocalMinimum):
            apf_step(grid, origin, (30.0, 10.5), ApfParams())

    def test_matches_exhaustive_potential_evaluation(self):
        rng = np.random.default_rng(19)
        origin = Pose(10.5, 10.5, 0.0)
        params = ApfParams(k_att=1.0, k_rep=100.0, d0=2.0)
        checked = 0
        while checked < 30:
            grid = random_grid(rng, 14)
            goal = (rng.uniform(0, 21), rng.uniform(0, 21))
            obstacles = [grid.world_center((r, c))
                         for r, c in np.argwhere(grid.cells == CellState.OCCUPIED)]
            h = grid.half_extent
            best, best_u = None, math.inf
            for r in range(h - 1, h + 2):
                for c in range(h - 1, h + 2):
                    if (r, c) == (h, h) or CellState(grid.cells[r, c]) is not CellState.FREE:
                        continue
                    u = potential_ref(grid.world_center((r, c)), goal, obstacles,
                                      params.k_att, params.k_rep, params.d0)
                    if u < best_u:
                        best, best_u = (r, c), u
            here = potential_ref(origin.xy, goal, obstacles,
                                 params.k_att, params.k_rep, params.d0)
            try:
                nxt = apf_step(grid, origin, goal, params)
            except LocalMinimum:
                assert best is None or best_u >= here
                checked += 1
                continue
            assert nxt == best
            checked += 1

    def test_never_steps_into_blocked_cells(self):
        rng = np.random.default_rng(37)
        origin = Pose(10.5, 10.5, 0.0)
        for _ in range(30):
            grid = random_grid(rng, 12)
            try:
                nxt = apf_step(grid, origin, (rng.uniform(0, 21), rng.uniform(0, 21)),
                               ApfParams())
            except LocalMinimum:
                continue
            assert CellState(grid.cells[nxt]) is CellState.FREE

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ApfParams(k_att=0.0)
        with pytest.raises(ValueError):
            ApfParams(d0=-1.0)

    def test_non_finite_params_rejected(self):
        # NaN passes a sign check; an infinite gain or cutoff is no usable potential
        for name in ("k_att", "k_rep", "d0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    ApfParams(**{name: value})


class TestConventionalDelegation:
    def test_conventional_planner_is_aco_in_conventional_mode(self):
        from antnav import AcoMode, PlannerConfig, PlannerKind
        cfg = PlannerConfig(planner=PlannerKind.CONVENTIONAL_ACO)
        assert cfg.aco_for_planner().mode is AcoMode.CONVENTIONAL
        cfg2 = PlannerConfig(planner=PlannerKind.PROPOSED)
        assert cfg2.aco_for_planner().mode is AcoMode.IMPROVED
        # identical tunables otherwise: only the mode flag differs
        import dataclasses
        a = dataclasses.asdict(cfg.aco_for_planner())
        b = dataclasses.asdict(cfg2.aco_for_planner())
        a.pop("mode"); b.pop("mode")
        assert a == b
