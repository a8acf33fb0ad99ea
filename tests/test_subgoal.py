import math
from unittest import mock

import numpy as np
import pytest

from antnav import CostWeights, Pose, kernel

from oracles import normalize_ref, raw_constraints_ref, rel_close
from probes import kernel_ranking
from stages import CandidateSet, CellState, NoCandidates, candidate_cells, rank_candidates
from test_grid import grid_of, random_grid


def kernel_raw(robot, cell, goal):
    """The kernel's three constraints of one candidate at cell"""
    return tuple(kernel_ranking([cell], robot, goal)[1][:, 0].tolist())


def kernel_normalize(points, robot, goal):
    """The kernel's raw and normalized families of candidates at the points"""
    _, raw, norm = kernel_ranking(points, robot, goal)
    return raw.tolist(), norm.tolist()


class TestRawConstraints:
    def test_collinear_aligned(self):
        assert kernel_raw(Pose(0, 0, 0), (1, 0), (2, 0)) == (1.0, 0.0, 0.0)

    def test_perpendicular(self):
        ds, t1, t2 = kernel_raw(Pose(0, 0, 0), (0, 1), (0, 2))
        assert ds == 1.0
        assert abs(t1 - math.pi / 2) < 1e-12
        assert abs(t2 - math.pi / 2) < 1e-12

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            robot = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
            cell = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            goal = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            got = kernel_raw(robot, cell, goal)
            ref = raw_constraints_ref((robot.x, robot.y, robot.psi), cell, goal)
            for g, r in zip(got, ref):
                assert rel_close(g, r)
            assert 0.0 <= got[1] <= math.pi and 0.0 <= got[2] <= math.pi


# pairs whose math.hypot on CPython 3.11 differs from libm hypot in the last bit
PINNED_HYPOT = [(-0.3, 0.30000000000000004), (-1.2, 1.2000000000000002),
                (-7.337360471064961, -9.783147294753281)]


def hypot_samples():
    """The cell-center offsets the occlusion and APF distances measure, at three
    cell sizes, and pairs of random magnitudes, subnormal to near overflow"""
    rng = np.random.default_rng(2023)
    offsets = []
    for cell_size in (0.3, 1.0, 1.5):
        origins = rng.uniform(-60.0, 60.0, size=(2, 20_000)).tolist()
        steps = rng.integers(-12, 13, size=(2, 20_000)).tolist()
        offsets += [((x + k * cell_size) - x, (y + l * cell_size) - y)
                    for x, y, k, l in zip(*origins, *steps)]
    mantissas = rng.uniform(-1.0, 1.0, size=(2, 60_000)).tolist()
    exps = rng.integers(-1080, 1024, size=60_000).tolist()
    gaps = rng.integers(-30, 31, size=60_000).tolist()
    magnitudes = [(math.ldexp(u, e), math.ldexp(v, min(e + g, 1023)))
                  for u, v, e, g in zip(*mantissas, exps, gaps)]
    return offsets, magnitudes


def test_kernel_distance_is_libm_hypot():
    # the cell-to-goal distance, like the occlusion range and the APF obstacle
    # distance, is libm hypot: with the goal at the origin and a candidate at
    # (-dx, -dy) the raw distance family is hypot(dx, dy), which must equal
    # np.hypot to the bit, on the pairs where the interpreter's math.hypot
    # rounds differently too
    offsets, magnitudes = hypot_samples()
    differ = [(x, y) for x, y in offsets + magnitudes
              if float(np.hypot(x, y)) != math.hypot(x, y)]
    pairs = PINNED_HYPOT + differ + offsets
    for i in range(0, len(pairs), 400):  # the ranking is quadratic in the count
        batch = pairs[i:i + 400]
        _, raw, _ = kernel_ranking([(-x, -y) for x, y in batch], Pose(1.0, 2.0, 0.5),
                                   (0.0, 0.0))
        want = np.hypot(*np.array(batch).T)
        wrong = [(pair, got) for pair, got, ref in zip(batch, raw[0].tolist(), want.tolist())
                 if got != ref]
        assert not wrong, wrong[:5]


class TestNormalize:
    """The kernel normalizes the families of the candidates it ranks."""

    def test_basic(self):
        # both candidates 2 m from the goal
        raw, norm = kernel_normalize([(2.0, 0.0), (0.0, 2.0)], Pose(0, 0, 0), (0.0, 0.0))
        assert raw[0] == [2.0, 2.0]
        assert norm[0] == [0.5, 0.5]

    def test_degenerate_uniform(self):
        # every candidate on the goal: an all-zero distance family
        raw, norm = kernel_normalize([(3.0, 4.0)] * 3, Pose(0, 0, 0), (3.0, 4.0))
        assert raw[0] == [0.0, 0.0, 0.0]
        assert norm[0] == [1 / 3, 1 / 3, 1 / 3]

    def test_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            points = rng.uniform(-100, 100, (rng.integers(1, 40), 2))
            robot = Pose(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-7, 7))
            raw, norm = kernel_normalize(points, robot, tuple(rng.uniform(-100, 100, 2)))
            for family, scaled in zip(raw, norm):
                assert abs(sum(scaled) - 1.0) <= 1e-12
                assert scaled == normalize_ref(family)

    def test_overflowing_total_is_uniform(self):
        # the distances to a far goal, or only their total, overflow to inf:
        # the family is uniform, as for a total of 0, and no cost is NaN
        points = [(float(x), float(y)) for x in range(-4, 5) for y in (-4, 4)]
        for far in (1e307, 1.7e308):
            raw, norm = kernel_normalize(points, Pose(0, 0, 0), (far, far))
            assert sum(raw[0]) == math.inf
            assert norm[0] == [1 / len(points)] * len(points) == normalize_ref(raw[0])
            assert norm[1:] == [normalize_ref(family) for family in raw[1:]]

    def test_empty_rejected(self):
        # an empty set is refused before the kernel would normalize nothing
        with mock.patch.object(kernel, "module") as module:
            with pytest.raises(NoCandidates):
                rank_candidates(CandidateSet(()), Pose(0, 0, 0), (1.0, 1.0), CostWeights())
        module.assert_not_called()


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
        grid = grid_of()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.0)
        sg = rank_candidates(cands, robot, (30.0, 10.5), CostWeights(1.0, 0.0, 0.0))[0]
        assert sg.cell == (4, 8)  # due-east edge cell

    def test_tie_breaks_by_row_major_index(self):
        grid = grid_of()
        # two symmetric candidates, identical constraint triples
        cands = CandidateSet((((2, 4), grid.world_center((2, 4))),
                              ((6, 4), grid.world_center((6, 4)))))
        robot = Pose(10.5, 10.5, 0.0)
        sg = rank_candidates(cands, robot, (30.0, 10.5), CostWeights())[0]
        assert sg.cell == (2, 4)

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(31)
        robot = Pose(10.5, 10.5, 0.0)
        w = CostWeights(4.0, 1.8, 1.0)
        for _ in range(40):
            grid = random_grid(rng, 20, robot)
            try:
                cands = candidate_cells(grid)
            except Exception:
                continue
            goal = (rng.uniform(-20, 40), rng.uniform(-20, 40))
            sg = rank_candidates(cands, robot, goal, w)[0]
            assert sg.cell == brute_force_best(grid, cands, robot, goal, w)

    def test_far_goal_matches_brute_force_ranking(self):
        # far enough, the goal distances or their total overflow: the kernel's
        # ranking matches the reference's, whose families follow the same rule
        rng = np.random.default_rng(37)
        robot = Pose(10.5, 10.5, 0.3)
        w = CostWeights(4.0, 1.8, 1.0)
        for far in (1e300, 1e306, 1e307, 1.7e308, -1.7e308):
            cands = candidate_cells(grid := random_grid(rng, 20, robot))
            goal = (far, far * rng.uniform(-1.0, 1.0))
            ranked = rank_candidates(cands, robot, goal, w)
            with np.errstate(over="ignore"):  # the reference's np.hypot overflows too
                assert ranked[0].cell == brute_force_best(grid, cands, robot, goal, w)
            assert all(math.isfinite(sub.cost) for sub in ranked)

    def test_weight_scale_invariance(self):
        grid = grid_of()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.4)
        goal = (25.0, 19.0)
        a = rank_candidates(cands, robot, goal, CostWeights(4.0, 1.8, 1.0))[0]
        b = rank_candidates(cands, robot, goal, CostWeights(40.0, 18.0, 10.0))[0]
        assert a.cell == b.cell

    def test_families_sum_to_one(self):
        grid = grid_of()
        cands = candidate_cells(grid)
        robot = Pose(10.5, 10.5, 0.0)
        goal = (27.0, 5.0)
        _, _, norm = kernel_ranking([world for _, world in cands.cells], robot, goal)
        for family in norm.tolist():
            assert abs(sum(family) - 1.0) <= 1e-12

    def test_distance_only_weights_minimize_distance(self):
        rng = np.random.default_rng(41)
        robot = Pose(10.5, 10.5, 1.0)
        for _ in range(20):
            grid = random_grid(rng, 15, robot)
            try:
                cands = candidate_cells(grid)
            except Exception:
                continue
            goal = (rng.uniform(0, 21), rng.uniform(0, 21))
            sg = rank_candidates(cands, robot, goal, CostWeights(2.5, 0.0, 0.0))[0]
            dmin = min(math.hypot(w[0] - goal[0], w[1] - goal[1]) for _, w in cands.cells)
            got = math.hypot(sg.world[0] - goal[0], sg.world[1] - goal[1])
            assert abs(got - dmin) < 1e-9

    def test_selected_cell_is_free(self):
        grid = grid_of()
        cands = candidate_cells(grid)
        sg = rank_candidates(cands, Pose(10.5, 10.5, 0), (0.0, 0.0), CostWeights())[0]
        assert CellState(grid.cells[sg.cell]) is CellState.FREE

    def test_empty_candidates_raise(self):
        with pytest.raises(NoCandidates):
            rank_candidates(CandidateSet(()), Pose(0, 0, 0), (1.0, 1.0), CostWeights())

    def test_non_finite_goal_rejected(self):
        # a NaN goal made every cost NaN, and the ranking listed candidate 0 k times
        cands = candidate_cells(grid_of())
        for goal in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="goal must be finite"):
                rank_candidates(cands, Pose(10.5, 10.5, 0), goal, CostWeights())

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CostWeights(-1.0, 1.0, 1.0)

    def test_non_finite_weights_rejected(self):
        # NaN passes the sign checks; an inf weight times a 0 family is a NaN cost
        for name in ("alpha", "beta", "omega"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"weight {name} must be finite"):
                    CostWeights(**{name: value})
