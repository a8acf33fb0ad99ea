import math

import numpy as np
import pytest

from antnav import (CandidateSet, CellState, CostWeights, NoCandidates, Pose,
                    Scan, build_local_grid, candidate_cells, normalize,
                    rank_candidates, raw_constraints, select_subgoal)

from oracles import normalize_ref, raw_constraints_ref, rel_close


def empty_grid(origin=Pose(10.5, 10.5, 0.0)):
    return build_local_grid(Scan((), 6.0, 360, origin), 1.0, 4)


class TestRawConstraints:
    def test_collinear_aligned(self):
        assert raw_constraints(Pose(0, 0, 0), (1, 0), (2, 0)) == (1.0, 0.0, 0.0)

    def test_perpendicular(self):
        ds, t1, t2 = raw_constraints(Pose(0, 0, 0), (0, 1), (0, 2))
        assert ds == 1.0
        assert abs(t1 - math.pi / 2) < 1e-12
        assert abs(t2 - math.pi / 2) < 1e-12

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            robot = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
            cell = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            goal = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            got = raw_constraints(robot, cell, goal)
            ref = raw_constraints_ref((robot.x, robot.y, robot.psi), cell, goal)
            for g, r in zip(got, ref):
                assert rel_close(g, r)
            assert 0.0 <= got[1] <= math.pi and 0.0 <= got[2] <= math.pi


class TestNormalize:
    def test_basic(self):
        assert normalize([2.0, 2.0]) == [0.5, 0.5]

    def test_degenerate_uniform(self):
        assert normalize([0.0, 0.0, 0.0]) == [1 / 3, 1 / 3, 1 / 3]

    def test_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            vals = list(rng.uniform(0, 100, rng.integers(1, 40)))
            out = normalize(vals)
            assert abs(sum(out) - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize([])


def brute_force_best(grid, candidates, robot, goal, w):
    raw = [raw_constraints_ref((robot.x, robot.y, robot.psi), world, goal)
           for _, world in candidates.cells]
    nds = normalize_ref([t[0] for t in raw])
    nt1 = normalize_ref([t[1] for t in raw])
    nt2 = normalize_ref([t[2] for t in raw])
    best = None
    side = grid.side
    for i, (cell, _) in enumerate(candidates.cells):
        cost = w.beta * nt1[i] + w.alpha * nds[i] + w.omega * nt2[i]
        key = (cost, cell[0] * side + cell[1])
        if best is None or key < best[0]:
            best = (key, cell)
    return best[1]


class TestSelectSubgoal:
    def test_pure_distance_picks_nearest_ring_cell(self):
        grid = empty_grid()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.0)
        sg = select_subgoal(cands, robot, (30.0, 10.5), CostWeights(1.0, 0.0, 0.0))
        assert sg.cell == (4, 8)  # due-east edge cell

    def test_tie_breaks_by_row_major_index(self):
        grid = empty_grid()
        # two symmetric candidates, identical constraint triples
        cands = CandidateSet((((2, 4), grid.world_center((2, 4))),
                              ((6, 4), grid.world_center((6, 4)))))
        robot = Pose(10.5, 10.5, 0.0)
        sg = select_subgoal(cands, robot, (30.0, 10.5), CostWeights())
        assert sg.cell == (2, 4)

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(31)
        robot = Pose(10.5, 10.5, 0.0)
        w = CostWeights(4.0, 1.8, 1.0)
        from test_grid import sample_at, scan_of
        for _ in range(40):
            pts = [(10.5 + rng.uniform(-4, 4), 10.5 + rng.uniform(-4, 4))
                   for _ in range(rng.integers(0, 20))]
            grid = build_local_grid(scan_of([sample_at(robot, x, y) for x, y in pts],
                                            origin=robot), 1.0, 4)
            try:
                cands = candidate_cells(grid)
            except Exception:
                continue
            goal = (rng.uniform(-20, 40), rng.uniform(-20, 40))
            sg = select_subgoal(cands, robot, goal, w)
            assert sg.cell == brute_force_best(grid, cands, robot, goal, w)

    def test_weight_scale_invariance(self):
        grid = empty_grid()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.4)
        goal = (25.0, 19.0)
        a = select_subgoal(cands, robot, goal, CostWeights(4.0, 1.8, 1.0))
        b = select_subgoal(cands, robot, goal, CostWeights(40.0, 18.0, 10.0))
        assert a.cell == b.cell

    def test_families_sum_to_one(self):
        grid = empty_grid()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.0)
        goal = (27.0, 5.0)
        raw = [raw_constraints(robot, world, goal) for _, world in cands.cells]
        for k in range(3):
            assert abs(sum(normalize([t[k] for t in raw])) - 1.0) <= 1e-12

    def test_distance_only_weights_minimize_distance(self):
        rng = np.random.default_rng(41)
        robot = Pose(10.5, 10.5, 1.0)
        from test_grid import sample_at, scan_of
        for _ in range(20):
            pts = [(10.5 + rng.uniform(-4, 4), 10.5 + rng.uniform(-4, 4))
                   for _ in range(rng.integers(0, 15))]
            grid = build_local_grid(scan_of([sample_at(robot, x, y) for x, y in pts],
                                            origin=robot), 1.0, 4)
            try:
                cands = candidate_cells(grid)
            except Exception:
                continue
            goal = (rng.uniform(0, 21), rng.uniform(0, 21))
            sg = select_subgoal(cands, robot, goal, CostWeights(2.5, 0.0, 0.0))
            dmin = min(math.hypot(w[0] - goal[0], w[1] - goal[1]) for _, w in cands.cells)
            got = math.hypot(sg.world[0] - goal[0], sg.world[1] - goal[1])
            assert abs(got - dmin) < 1e-9

    def test_selected_cell_is_free(self):
        grid = empty_grid()
        cands = candidate_cells(grid)
        sg = select_subgoal(cands, Pose(10.5, 10.5, 0), (0.0, 0.0), CostWeights())
        assert CellState(grid.cells[sg.cell]) is CellState.FREE

    def test_empty_candidates_raise(self):
        with pytest.raises(NoCandidates):
            rank_candidates(CandidateSet(()), Pose(0, 0, 0), (1.0, 1.0), CostWeights())

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CostWeights(-1.0, 1.0, 1.0)
