import math

import numpy as np
import pytest

from antnav import PlannerConfig, Pose, WorldMap
from antnav.grid import _scan_args
from antnav.planner import plan_cycle

from oracles import candidates_ref
from stages import CellState, LocalGrid, NoCandidates, candidate_cells, perceive

ORIGIN = Pose(10.5, 10.5, 0.0)


def grid_of(cells=(), origin=ORIGIN, radius=6.0, cell_size=1.0, half_extent=4, rings=1):
    """The grid perceive builds around origin, in a 21 x 21 world of 1 m cells whose
    occupied cells are the given (row, col) cells of that grid."""
    static = np.zeros((21, 21), bool)
    r0, c0 = int(origin.y) - half_extent, int(origin.x) - half_extent
    for r, c in cells:
        static[r0 + r, c0 + c] = True
    return perceive(WorldMap(static, 1.0), origin, radius, 360, cell_size, half_extent, rings)


def random_grid(rng, max_cells, origin=ORIGIN):
    """grid_of up to max_cells - 1 random occupied cells around the robot."""
    cells = {tuple(cell) for cell in rng.integers(0, 9, (int(rng.integers(0, max_cells)), 2))}
    return grid_of(cells - {(4, 4)}, origin)


class TestBuildLocalGrid:
    def test_empty_scan_all_free(self):
        grid = grid_of()
        assert CellState(grid.cells[4, 4]) is CellState.ROBOT
        free = grid.cells == CellState.FREE
        assert free.sum() == 9 * 9 - 1

    def test_single_sample_inflates_neighbors(self):
        # the cell two right, two up from center
        grid = grid_of([(6, 6)])
        assert CellState(grid.cells[6, 6]) is CellState.OCCUPIED
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == dc == 0:
                    continue
                assert CellState(grid.cells[6 + dr, 6 + dc]) is CellState.INFLATED

    def test_robot_cell_never_overwritten(self):
        # an obstacle adjacent to the center: the robot cell keeps its state
        grid = grid_of([(5, 5)])
        assert CellState(grid.cells[5, 5]) is CellState.OCCUPIED
        assert CellState(grid.cells[4, 4]) is CellState.ROBOT

    def test_wall_row_matches_enumeration(self):
        grid = grid_of([(7, c) for c in range(9)])
        expected = np.full((9, 9), CellState.FREE, dtype=np.int8)
        expected[7, :] = CellState.OCCUPIED
        expected[6, :] = CellState.INFLATED
        expected[8, :] = CellState.INFLATED
        expected[4, 4] = CellState.ROBOT
        assert (grid.cells == expected).all()

    def test_extent_must_fit_scan_disc(self):
        with pytest.raises(ValueError, match="exceeds lidar_radius"):
            grid_of(radius=3.0)
        with pytest.raises(ValueError, match="half_extent must be >= 1"):
            grid_of(half_extent=0)
        # equality is allowed: 4 cells * 1.5 m = 6 m radius
        grid_of(radius=6.0, cell_size=1.5)

    def test_grid_of_more_cells_than_an_int_is_rejected(self):
        # 60001^2 cells fit the disc but not the kernel's int; perceive would
        # allocate 3.6 GB and overflow side * side, so only the check is called
        with pytest.raises(ValueError, match="more than 2147483647 cells"):
            _scan_args(6.0, 1, 1e-4, 30000, 1)
        assert _scan_args(6.0, 1, 1e-4, 23169, 1)[4] == 1  # 46339^2 cells fit: 1 ring

    @pytest.mark.parametrize("cell_size", [0.0, -1.0, math.nan, math.inf])
    def test_cell_size_must_be_positive_and_finite(self, cell_size):
        with pytest.raises(ValueError) as got:
            grid_of(cell_size=cell_size)
        assert type(got.value) is ValueError
        assert str(got.value) == f"cell_size must be positive and finite, got {cell_size}"

    def test_inflation_ring_count(self):
        grid = grid_of([(7, 4)], rings=2)
        assert CellState(grid.cells[7, 4]) is CellState.OCCUPIED
        assert CellState(grid.cells[5, 4]) is CellState.INFLATED
        assert CellState(grid.cells[5, 2]) is CellState.INFLATED
        assert CellState(grid.cells[4, 1]) is CellState.FREE

    def test_grids_compare_and_hash_by_identity(self):
        # cells and ranges are arrays, whose == is elementwise and unhashable
        a, b = grid_of(), grid_of()
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2


def marginal_ref(grid):
    """Candidate tuples by the brute-force reference rule."""
    origin = (grid.center.x, grid.center.y)
    return tuple(candidates_ref(grid.cells, origin, grid.cell_size, grid.half_extent))


class TestCandidateCells:
    def test_empty_grid_has_32_ring_cells(self):
        grid = grid_of()
        cands = candidate_cells(grid)
        assert len(cands.cells) == 32
        for (r, c), _ in cands.cells:
            assert r in (0, 8) or c in (0, 8)

    def test_interior_obstacle_matches_enumeration(self):
        grid = grid_of([(6, 6)])
        cands = candidate_cells(grid)
        assert cands.cells == marginal_ref(grid)

    def test_candidates_never_blocked(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            grid = random_grid(rng, 25)
            try:
                cands = candidate_cells(grid)
            except NoCandidates:
                continue
            for cell, _ in cands.cells:
                assert CellState(grid.cells[cell]) is CellState.FREE
            assert cands.cells == marginal_ref(grid)

    def test_enclosed_robot_raises(self):
        cells = np.full((9, 9), CellState.OCCUPIED, dtype=np.int8)
        cells[4, 4] = CellState.ROBOT
        grid = LocalGrid(Pose(0, 0, 0), 1.0, 4, cells, np.empty(0))
        with pytest.raises(NoCandidates):
            candidate_cells(grid)

    def test_row_major_order(self):
        grid = grid_of()
        cells = [cell for cell, _ in candidate_cells(grid).cells]
        assert cells == sorted(cells)


class TestGridMemo:
    """grid.local_grid keeps each grid of a world under (tick with movers, else 0;
    x, y, psi; scan arguments) in an entry (cells, stamp, prelude), and hands
    back the bytes perceive writes."""

    SCAN = (6.0, 360, 1.0, 4, 1)  # lidar_radius, n_rays, cell_size, half_extent, rings

    @staticmethod
    def world(movers=()):
        static = np.zeros((21, 21), bool)
        static[[0, -1], :] = static[:, [0, -1]] = True
        static[12, 8:14] = True
        return WorldMap(static, 1.0, movers)

    @staticmethod
    def perceived(world, pose, scan):
        """The cells perceive writes for pose, and its ranges, from a fresh call."""
        radius, n_rays, cell_size, half_extent, rings = scan
        grid = perceive(world, pose, radius, n_rays, cell_size, half_extent, rings)
        return grid.cells.tobytes(), grid.ranges.tobytes()

    def test_each_key_field_misses_and_a_repeat_hits(self):
        from antnav import MovingObstacle
        from antnav.grid import local_grid

        mover = MovingObstacle(((13, 10), (13, 11)), 1, "loop")  # period 2
        world = self.world((mover,))
        scan = _scan_args(*self.SCAN)
        kept = local_grid(world, ORIGIN, scan)
        assert local_grid(world, ORIGIN, scan) is kept and len(world._memo) == 1
        assert kept[1:] == (None, None)  # no prelude before a colony cycle
        assert bytes(kept[0]) == self.perceived(world, ORIGIN, scan)[0]
        misses = [(world, ORIGIN, _scan_args(6.0, 180, 1.0, 4, 1)),
                  (world, ORIGIN, _scan_args(6.0, 360, 1.0, 3, 1)),
                  (world, ORIGIN, _scan_args(6.0, 360, 1.0, 4, 2)),
                  (world, ORIGIN, _scan_args(5.0, 360, 1.0, 4, 1)),
                  # tick 2 has tick 0's occupancy, but the tick is in the key
                  (world.advanced().advanced(), ORIGIN, scan),
                  (world, Pose(10.5, 9.5, 0.0), scan),
                  (world, ORIGIN.replace(psi=math.pi / 2), scan)]
        grids = []
        for i, (w, pose, args) in enumerate(misses, start=2):
            grids.append(local_grid(w, pose, args))
            assert grids[-1] is not kept and len(world._memo) == i
            assert bytes(grids[-1][0]) == self.perceived(w, pose, args)[0]
        assert local_grid(world.advanced().advanced(), ORIGIN, scan) is grids[4]
        # without movers every tick reads the grids of tick 0
        static = self.world()
        kept = local_grid(static, ORIGIN, scan)
        assert local_grid(static.advanced().advanced(), ORIGIN, scan) is kept

    def test_signed_zeros_share_an_entry_and_perceive_alike(self):
        # 0.0 == -0.0, so the memo hands the grid of one to the other: perceive
        # writes the same cells (and ranges) for both, as heading and as coordinate
        from antnav.grid import local_grid

        static = np.zeros((21, 21), bool)
        static[3, :] = static[:, 4] = True
        world = WorldMap(static, 1.0)
        scan = _scan_args(*self.SCAN)
        for zero, minus in ((Pose(10.5, 10.5, 0.0), Pose(10.5, 10.5, -0.0)),
                            (Pose(0.0, 0.0, 0.0), Pose(-0.0, -0.0, 0.0)),
                            (Pose(0.0, 10.5, math.pi / 4), Pose(-0.0, 10.5, math.pi / 4))):
            assert repr(minus) != repr(zero)  # Pose keeps the sign of a zero
            assert self.perceived(world, zero, scan) == self.perceived(world, minus, scan)
            assert local_grid(world, minus, scan) is local_grid(world, zero, scan)
        assert len(world._memo) == 3

    def test_past_the_bound_grids_are_made_but_not_kept(self, monkeypatch):
        from antnav import grid as grid_module

        monkeypatch.setattr(grid_module, "MEMO_GRIDS", 2)
        world = self.world()
        scan = _scan_args(*self.SCAN)
        poses = [Pose(x + 0.5, 10.5, 0.0) for x in range(5, 10)]
        first = [grid_module.local_grid(world, pose, scan) for pose in poses]
        assert len(world._memo) == 2
        for pose, got in zip(poses, first):
            assert bytes(got[0]) == self.perceived(world, pose, scan)[0]
        again = [grid_module.local_grid(world, pose, scan) for pose in poses]
        assert [a is b for a, b in zip(first, again)] == [True, True, False, False, False]
        assert [bytes(a[0]) for a in again] == [bytes(b[0]) for b in first]
        assert len(world._memo) == 2
        # planner.plan_cycle's preludes go into the kept entries, in place of
        # theirs, which the full memo allows; past the bound they are not kept
        config = PlannerConfig(cell_size=1.0, lidar_radius=6.0)
        for seed in (0, 1):
            records = [plan_cycle(world, pose, (15.5, 15.5), config, seed, 0) for pose in poses]
        assert len(world._memo) == 2
        for key, (cells, stamp, prelude) in world._memo.items():
            assert cells is first[poses.index(Pose(*key[1:4]))][0]
            assert stamp == (15.5, 15.5, config.weights) and prelude is not None
        assert records == [plan_cycle(self.world(), pose, (15.5, 15.5), config, 1, 0)
                           for pose in poses]

    def test_a_stuck_prelude_is_kept_and_ends_the_cycle_before_any_trial(self):
        # sealed's robot stands in a closed pocket without the goal: the
        # prelude says STUCK, and a cycle on it runs no colony and reads no grid
        from pathlib import Path

        from antnav import RunStatus, kernel, run
        from antnav.aco import _entropy_words, corner_table
        from antnav.scenario import parse_scenario, with_seed

        sc = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "sealed.scn")
        assert run(sc).metrics.status is RunStatus.STUCK
        (entry,) = sc.world._memo.values()
        cells, stamp, prelude = entry
        pose, (gx, gy) = sc.start, sc.goal
        assert stamp == (gx, gy, sc.config.weights)
        mod, k = kernel.module(), sc.config._kernel_args
        out = mod.ffi.new("int32_t[]", [-7] * (k.max_steps + 3))
        series = mod.ffi.new("double[]", [-7.0] * k.aco.n_iters)
        words = _entropy_words((sc.seed, 0))
        # an open grid, whose fill would leave candidates: the kept mark decides
        free = mod.ffi.new("int8_t[]", len(cells))
        code = mod.lib.plan_cycle(*sc.world.kernel_occupancy(), pose.x, pose.y, free, prelude,
                                  gx, gy, pose.psi, words, len(words), corner_table(), *k.args,
                                  out, series)
        assert code == mod.lib.STUCK
        assert list(out) == [-7] * len(out) and list(series) == [-7.0] * len(series)
        result = run(with_seed(sc, sc.seed + 1))
        assert result.metrics.status is RunStatus.STUCK and result.metrics.cycles == 1
        (again,) = sc.world._memo.values()
        assert again is entry  # no perceive and no fill: the kept entry alone
