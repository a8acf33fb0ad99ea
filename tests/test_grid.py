import math

import numpy as np
import pytest

from antnav import Pose, WorldMap
from antnav.grid import _scan_args

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
