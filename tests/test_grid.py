import math

import numpy as np
import pytest

from antnav import (CandidateSet, CellState, InvalidExtent, NoCandidates, Pose,
                    Scan, build_local_grid, candidate_cells)
from antnav.grid import LocalGrid

from oracles import candidates_ref


def scan_of(samples, radius=6.0, origin=Pose(10.5, 10.5, 0.0), n_rays=360):
    return Scan(tuple(samples), radius, n_rays, origin)


def sample_at(origin, wx, wy):
    """Build the (d, theta) sample whose world point is (wx, wy)."""
    dx, dy = wx - origin.x, wy - origin.y
    d = math.hypot(dx, dy)
    theta = (origin.psi - math.atan2(dy, dx)) % math.tau
    return (d, theta)


class TestBuildLocalGrid:
    def test_empty_scan_all_free(self):
        grid = build_local_grid(scan_of([]), 1.0, 4)
        assert CellState(grid.cells[4, 4]) is CellState.ROBOT
        free = grid.cells == CellState.FREE
        assert free.sum() == 9 * 9 - 1

    def test_single_sample_inflates_neighbors(self):
        origin = Pose(10.5, 10.5, 0.0)
        # sample in the cell two right, two up from center
        grid = build_local_grid(scan_of([sample_at(origin, 12.5, 12.5)], origin=origin), 1.0, 4)
        assert CellState(grid.cells[6, 6]) is CellState.OCCUPIED
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == dc == 0:
                    continue
                assert CellState(grid.cells[6 + dr, 6 + dc]) is CellState.INFLATED

    def test_robot_cell_never_overwritten(self):
        origin = Pose(10.5, 10.5, 0.0)
        # sample adjacent to the center: the robot cell keeps its state
        grid = build_local_grid(scan_of([sample_at(origin, 11.5, 11.5)], origin=origin), 1.0, 4)
        assert CellState(grid.cells[5, 5]) is CellState.OCCUPIED
        assert CellState(grid.cells[4, 4]) is CellState.ROBOT

    def test_wall_row_matches_enumeration(self):
        origin = Pose(10.5, 10.5, 0.0)
        samples = [sample_at(origin, 10.5 + (c - 4), 13.5) for c in range(9)]
        grid = build_local_grid(scan_of(samples, origin=origin), 1.0, 4)
        expected = np.full((9, 9), CellState.FREE, dtype=np.int8)
        expected[7, :] = CellState.OCCUPIED
        expected[6, :] = CellState.INFLATED
        expected[8, :] = CellState.INFLATED
        expected[4, 4] = CellState.ROBOT
        assert (grid.cells == expected).all()

    def test_order_independent(self):
        rng = np.random.default_rng(2)
        origin = Pose(10.5, 10.5, 0.4)
        pts = [(10.5 + rng.uniform(-4, 4), 10.5 + rng.uniform(-4, 4)) for _ in range(40)]
        samples = [sample_at(origin, x, y) for x, y in pts]
        a = build_local_grid(scan_of(samples, origin=origin), 1.0, 4)
        perm = [samples[i] for i in rng.permutation(len(samples))]
        b = build_local_grid(scan_of(perm, origin=origin), 1.0, 4)
        assert (a.cells == b.cells).all()

    def test_inflation_monotone_under_added_samples(self):
        rng = np.random.default_rng(9)
        origin = Pose(10.5, 10.5, 0.0)
        pts = [(10.5 + rng.uniform(-4, 4), 10.5 + rng.uniform(-4, 4)) for _ in range(30)]
        samples = [sample_at(origin, x, y) for x, y in pts]
        base = build_local_grid(scan_of(samples[:15], origin=origin), 1.0, 4)
        more = build_local_grid(scan_of(samples, origin=origin), 1.0, 4)
        blocked_base = (base.cells == CellState.OCCUPIED) | (base.cells == CellState.INFLATED)
        blocked_more = (more.cells == CellState.OCCUPIED) | (more.cells == CellState.INFLATED)
        assert (blocked_more | ~blocked_base).all()

    def test_extent_must_fit_scan_disc(self):
        with pytest.raises(InvalidExtent):
            build_local_grid(scan_of([], radius=3.0), 1.0, 4)
        with pytest.raises(InvalidExtent):
            build_local_grid(scan_of([]), 1.0, 0)
        # equality is allowed: 4 cells * 1.5 m = 6 m radius
        build_local_grid(scan_of([], radius=6.0), 1.5, 4)

    def test_inflation_ring_count(self):
        origin = Pose(10.5, 10.5, 0.0)
        grid = build_local_grid(scan_of([sample_at(origin, 10.5, 13.5)], origin=origin),
                                1.0, 4, inflation_rings=2)
        assert CellState(grid.cells[7, 4]) is CellState.OCCUPIED
        assert CellState(grid.cells[5, 4]) is CellState.INFLATED
        assert CellState(grid.cells[5, 2]) is CellState.INFLATED
        assert CellState(grid.cells[4, 1]) is CellState.FREE


def marginal_ref(grid):
    """Candidate tuples by the brute-force reference rule."""
    origin = (grid.center.x, grid.center.y)
    return tuple(candidates_ref(grid.cells, origin, grid.cell_size, grid.half_extent))


class TestCandidateCells:
    def test_empty_grid_has_32_ring_cells(self):
        grid = build_local_grid(scan_of([]), 1.0, 4)
        cands = candidate_cells(grid)
        assert len(cands.cells) == 32
        for (r, c), _ in cands.cells:
            assert r in (0, 8) or c in (0, 8)

    def test_interior_obstacle_matches_enumeration(self):
        origin = Pose(10.5, 10.5, 0.0)
        grid = build_local_grid(scan_of([sample_at(origin, 12.5, 12.5)], origin=origin), 1.0, 4)
        cands = candidate_cells(grid)
        assert cands.cells == marginal_ref(grid)

    def test_candidates_never_blocked(self):
        rng = np.random.default_rng(4)
        origin = Pose(10.5, 10.5, 0.0)
        for _ in range(25):
            pts = [(10.5 + rng.uniform(-4, 4), 10.5 + rng.uniform(-4, 4))
                   for _ in range(rng.integers(1, 25))]
            grid = build_local_grid(scan_of([sample_at(origin, x, y) for x, y in pts],
                                            origin=origin), 1.0, 4)
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
        grid = LocalGrid(Pose(0, 0, 0), 1.0, 4, cells)
        with pytest.raises(NoCandidates):
            candidate_cells(grid)

    def test_row_major_order(self):
        grid = build_local_grid(scan_of([]), 1.0, 4)
        cells = [cell for cell, _ in candidate_cells(grid).cells]
        assert cells == sorted(cells)
