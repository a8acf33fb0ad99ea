import math

import numpy as np
import pytest

from antnav import ApfParams, Pose

from oracles import apf_step_ref, cell_center_ref
from stages import CellState, LocalGrid, LocalMinimum, apf_step
from test_grid import grid_of, random_grid

# the east-facing pocket of test_u_trap_local_minimum, on a 9 x 9 grid
U_TRAP = [(3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (5, 5), (4, 5)]


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
        # the kernel's step against oracles.apf_step_ref, by the cell it picks
        # and the local-minimum verdict, on random grids, poses, cell sizes and
        # gains: d0 unset and set, goals on a cell center and the U-trap
        rng = np.random.default_rng(19)
        picked = minima = 0
        for case in range(400):
            trap = case % 5 == 0
            h = 4 if trap else int(rng.integers(1, 6))
            side = 2 * h + 1
            cs = float(rng.uniform(0.2, 2.0))
            origin = Pose(float(rng.uniform(-20.0, 20.0)), float(rng.uniform(-20.0, 20.0)), 0.0)
            if trap:
                cells = np.full((side, side), CellState.FREE, dtype=np.int8)
                for cell in U_TRAP:
                    cells[cell] = CellState.OCCUPIED
            else:
                cells = rng.choice(np.array([CellState.FREE, CellState.OCCUPIED,
                                             CellState.INFLATED], dtype=np.int8),
                                   p=[0.6, 0.25, 0.15], size=(side, side))
            cells[h, h] = CellState.ROBOT
            if trap:
                goal = (origin.x + float(rng.uniform(5.0, 30.0)) * cs, origin.y)
            elif case % 5 == 1:
                r, c = rng.integers(-side, 2 * side, 2)
                goal = cell_center_ref(origin.xy, cs, h, int(r), int(c))
            else:
                goal = (origin.x + float(rng.uniform(-15.0, 15.0)),
                        origin.y + float(rng.uniform(-15.0, 15.0)))
            params = ApfParams(k_att=float(rng.uniform(0.1, 5.0)),
                               k_rep=float(rng.uniform(1.0, 500.0)),
                               d0=None if case % 2 else float(rng.uniform(0.5, 4.0)) * cs)
            d0 = params.d0 if params.d0 is not None else 2.0 * cs
            expected = apf_step_ref(cells.tolist(), origin.xy, cs, h, goal, params.k_att,
                                    params.k_rep, d0)
            grid = LocalGrid(origin, cs, h, cells, np.empty(0))
            try:
                got = apf_step(grid, origin, goal, params)
            except LocalMinimum:
                got = None
            assert got == expected, case
            if trap:
                assert got is None, case
            picked += got is not None
            minima += got is None
        assert picked > 200 and minima > 80  # the 80 traps and some random grids

    def test_grid_without_neighbors_is_rejected(self):
        grid = LocalGrid(Pose(0.5, 0.5, 0.0), 1.0, 0, np.full((1, 1), CellState.ROBOT, np.int8),
                         np.empty(0))
        with pytest.raises(ValueError, match="half_extent must be >= 1"):
            apf_step(grid, grid.center, (3.0, 0.5), ApfParams())

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
    def test_the_planner_kind_sets_the_improved_argument_alone(self):
        # the conventional baseline is the proposed planner's cycle with the
        # kernel's improved argument off: the cycle's arguments are the cell
        # size, half extent, alpha, beta and omega, then the colony block
        # gamma, n_iters, n_ants, max_steps, improved, phi, ... elite_cutoff
        from antnav import AcoParams, PlannerConfig, PlannerKind
        aco = AcoParams(gamma=3.0, n_ants=7, n_iters=9, elite_cutoff=4, max_steps=30)
        args = {kind: PlannerConfig(planner=kind, aco=aco)._kernel_args.args
                for kind in PlannerKind}
        proposed, conventional = args[PlannerKind.PROPOSED], args[PlannerKind.CONVENTIONAL_ACO]
        assert proposed[5:10] == (3.0, 9, 7, 30, True) and proposed[9] is True
        assert conventional[9] is False
        assert proposed[:9] + proposed[10:] == conventional[:9] + conventional[10:]
        # APF's cycle takes no colony block: the cell size, half extent and its gains
        assert args[PlannerKind.APF] == (1.5, 4, 1.0, 100.0, 3.0)
