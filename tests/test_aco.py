import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from antnav import (AcoMode, AcoParams, AntPath, AntState, ColonyWeightError, DeadEnd,
                    GridGraph, NoBestPathYet, NoPathFound, PheromoneField,
                    UnfinishedPath, corner_heuristic, heuristic, plan_subpath,
                    repair, roulette_select, score, transition_probabilities,
                    update_pheromone)
from antnav import kernel
from antnav.geometry import DIR_ANGLES, DIR_INDEX, DIR_OFFSETS

import oracles
from oracles import corner_ref, dijkstra_ref, heuristic_ref, rel_close, score_ref, transition_ref

SQRT2 = math.sqrt(2.0)


def open_grid(n=5, cell_size=1.0):
    return GridGraph(np.ones((n, n), bool), cell_size)


class TestHeuristic:
    def test_straight_neighbor(self):
        assert heuristic((2, 2), (2, 3), 1.0) == 1.0

    def test_diagonal_neighbor(self):
        assert rel_close(heuristic((2, 2), (3, 3), 1.0), 1.0 / SQRT2)

    def test_metric_cells(self):
        assert rel_close(heuristic((0, 0), (0, 1), 1.5), 2.0 / 3.0)

    def test_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            i = (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            d = DIR_OFFSETS[int(rng.integers(0, 8))]
            j = (i[0] + d[0], i[1] + d[1])
            cs = float(rng.uniform(0.1, 3.0))
            assert rel_close(heuristic(i, j, cs), heuristic_ref(i, j, cs))


class TestCornerHeuristic:
    def test_first_step_is_one(self):
        assert corner_heuristic(None, (0, 0), (1, 1)) == 1.0

    def test_straight_continuation_is_one(self):
        d = math.atan2(1, 0)
        assert corner_heuristic(d, (0, 0), (1, 0)) == 1.0

    def test_right_angle_turn(self):
        prev = math.atan2(0, 1)  # heading east
        v = corner_heuristic(prev, (0, 0), (1, 0))  # turning north
        assert rel_close(v, 1.0 / (math.pi / 2))
        assert abs(v - 0.6366) < 1e-3

    def test_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            prev = float(rng.uniform(-math.pi, math.pi)) if rng.random() > 0.2 else None
            i = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            d = DIR_OFFSETS[int(rng.integers(0, 8))]
            j = (i[0] + d[0], i[1] + d[1])
            assert rel_close(corner_heuristic(prev, i, j), corner_ref(prev, i, j))


class TestTransitionProbabilities:
    def test_single_feasible_neighbor(self):
        mask = np.zeros((3, 3), bool)
        mask[1, 1] = mask[1, 2] = True
        field = PheromoneField(GridGraph(mask, 1.0), 1.0)
        dist = transition_probabilities(field, AntState((1, 1), frozenset(), None),
                                        AcoParams())
        assert dist == [((1, 2), 1.0)]

    def test_uniform_setup_gives_symmetric_distribution(self):
        field = PheromoneField(GridGraph(np.ones((5, 5), bool), 1.0), 1.0)
        dist = transition_probabilities(field, AntState((2, 2), frozenset(), None),
                                        AcoParams())
        probs = dict(dist)
        straight = [probs[c] for c in ((3, 2), (2, 3), (1, 2), (2, 1))]
        diag = [probs[c] for c in ((3, 3), (1, 3), (1, 1), (3, 1))]
        assert max(straight) - min(straight) < 1e-15
        assert max(diag) - min(diag) < 1e-15
        assert abs(sum(probs.values()) - 1.0) <= 1e-12

    def test_dead_end(self):
        mask = np.zeros((3, 3), bool)
        mask[1, 1] = True
        field = PheromoneField(GridGraph(mask, 1.0), 1.0)
        with pytest.raises(DeadEnd):
            transition_probabilities(field, AntState((1, 1), frozenset(), None), AcoParams())

    def _random_case(self, rng, mode):
        n = 6
        mask = rng.random((n, n)) > 0.2
        cell = (int(rng.integers(1, n - 1)), int(rng.integers(1, n - 1)))
        mask[cell] = True
        graph = GridGraph(mask, float(rng.uniform(0.5, 2.0)))
        field = PheromoneField(graph, 1.0)
        for k in range(len(field.tau)):
            field.tau[k] = float(rng.uniform(0.01, 5.0))
        nbr_cells = [graph.cell_of(nid)
                     for nid in graph.nbr[graph.id_of(cell)].tolist() if nid >= 0]
        tabu = frozenset(c for c in nbr_cells if rng.random() < 0.3)
        if len(tabu) == len(nbr_cells) or not nbr_cells:
            return None
        prev = float(rng.uniform(-math.pi, math.pi)) if rng.random() > 0.3 else None
        params = AcoParams(phi=float(rng.uniform(0.5, 2.0)),
                           gamma=float(rng.uniform(0.5, 6.0)), mode=mode)
        return field, graph, cell, tabu, prev, params

    @pytest.mark.parametrize("mode", [AcoMode.IMPROVED, AcoMode.CONVENTIONAL])
    def test_randomized_against_explicit_quotient(self, mode):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 1000:
            case = self._random_case(rng, mode)
            if case is None:
                continue
            field, graph, cell, tabu, prev, params = case
            dist = transition_probabilities(field, AntState(cell, tabu, prev), params)
            nbr_cells = [graph.cell_of(nid)
                         for nid in graph.nbr[graph.id_of(cell)].tolist() if nid >= 0]
            ref = transition_ref(field.get, nbr_cells, tabu, prev, cell,
                                 params.phi, params.gamma, graph.cell_size,
                                 mode is AcoMode.IMPROVED)
            assert len(dist) == len(ref)
            for c, p in dist:
                assert rel_close(p, ref[c])
            assert abs(sum(p for _, p in dist) - 1.0) <= 1e-12
            checked += 1


class TestRouletteSelect:
    def test_certain_choice(self):
        assert roulette_select([((0, 0), 1.0)], 0.99) == (0, 0)

    def test_cdf_arithmetic(self):
        dist = [((0, 0), 0.5), ((0, 1), 0.5)]
        assert roulette_select(dist, 0.75) == (0, 1)
        assert roulette_select(dist, 0.25) == (0, 0)

    def test_monte_carlo_frequencies(self):
        dist = [((0, 0), 0.2), ((0, 1), 0.3), ((0, 2), 0.5)]
        rng = np.random.default_rng(23)
        counts = {c: 0 for c, _ in dist}
        n = 10 ** 6
        for draw in rng.random(n):
            counts[roulette_select(dist, draw)] += 1
        assert abs(counts[(0, 0)] / n - 0.2) < 0.01
        assert abs(counts[(0, 1)] / n - 0.3) < 0.01
        assert abs(counts[(0, 2)] / n - 0.5) < 0.01


class TestScore:
    def test_length_only(self):
        p = AntPath(((0, 0), (0, 1)), 10.0, 0, True)
        assert score(p, AcoParams(delta=1.0, zeta=0.0)) == 10.0

    def test_weighted(self):
        p = AntPath(((0, 0), (0, 1)), 10.0, 4, True)
        assert rel_close(score(p, AcoParams(delta=0.7, zeta=0.3)), 8.2)

    def test_conventional_objective_is_the_length(self):
        p = AntPath(((0, 0), (0, 1)), 10.0, 4, True)
        assert score(p, AcoParams(mode=AcoMode.CONVENTIONAL)) == 10.0

    def test_unfinished_rejected(self):
        p = AntPath(((0, 0), (0, 1)), 10.0, 4, False)
        with pytest.raises(UnfinishedPath):
            score(p, AcoParams())

    def test_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            L = float(rng.uniform(0.1, 100)); T = int(rng.integers(0, 40))
            dl = float(rng.uniform(0, 2)); zt = float(rng.uniform(0.01, 2))
            p = AntPath(((0, 0), (0, 1)), L, T, True)
            assert rel_close(score(p, AcoParams(delta=dl, zeta=zt)),
                             score_ref(L, T, dl, zt))


def path_through(graph_cells, cell_size=1.0):
    """AntPath from a cell sequence with length/corners/dirs recomputed."""
    dirs = []
    length = 0.0
    corners = 0
    for a, b in zip(graph_cells, graph_cells[1:]):
        d = DIR_INDEX[(b[0] - a[0], b[1] - a[1])]
        if dirs and d != dirs[-1]:
            corners += 1
        step = cell_size * (SQRT2 if (b[0] - a[0]) and (b[1] - a[1]) else 1.0)
        length += step
        dirs.append(d)
    return AntPath(tuple(graph_cells), length, corners, True, tuple(dirs))


class TestUpdatePheromone:
    def test_pure_evaporation(self):
        field = PheromoneField(GridGraph(np.ones((3, 3), bool), 1.0), 2.0)
        update_pheromone(field, [], AcoParams(rho=0.5))
        assert all(rel_close(v, 1.0) for _, v in field.items())

    def test_single_ant_deposit(self):
        field = PheromoneField(GridGraph(np.ones((3, 3), bool), 1.0), 1.0)
        p = path_through([(0, 0), (0, 1), (1, 2)])
        params = AcoParams(rho=0.3, q=1.0, delta=0.7, zeta=0.3)
        w = 0.7 * p.length + 0.3 * p.corners
        update_pheromone(field, [p], params)
        assert rel_close(field.get((0, 0), (0, 1)), 0.7 + 1.0 / w)
        assert rel_close(field.get((0, 1), (1, 2)), 0.7 + 1.0 / w)
        assert rel_close(field.get((1, 2), (0, 1)), 0.7)  # reverse edge untouched

    def test_worst_ant_excluded_at_default_cutoff(self):
        field = PheromoneField(GridGraph(np.ones((4, 4), bool), 1.0), 1.0)
        good1 = path_through([(0, 0), (1, 1), (2, 2)])
        good2 = path_through([(0, 0), (0, 1), (1, 2), (2, 2)])
        worst = path_through([(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 2)])
        params = AcoParams(rho=0.3, n_ants=3, elite_cutoff=2)
        update_pheromone(field, [good1, good2, worst], params)
        # an edge unique to the worst path only evaporates
        assert rel_close(field.get((0, 2), (0, 3)), 0.7)
        assert field.get((0, 0), (1, 1)) > 0.7

    def test_conventional_mode_deposits_by_length_for_all(self):
        field = PheromoneField(GridGraph(np.ones((4, 4), bool), 1.0), 1.0)
        a = path_through([(0, 0), (1, 1), (2, 2)])
        b = path_through([(0, 0), (0, 1), (0, 2), (1, 3)])
        params = AcoParams(rho=0.3, q=2.0, mode=AcoMode.CONVENTIONAL, n_ants=2)
        update_pheromone(field, [a, b], params)
        assert rel_close(field.get((0, 0), (1, 1)), 0.7 + 2.0 / a.length)
        assert rel_close(field.get((0, 2), (1, 3)), 0.7 + 2.0 / b.length)

    def test_unfinished_never_deposit(self):
        field = PheromoneField(GridGraph(np.ones((3, 3), bool), 1.0), 1.0)
        p = replace(path_through([(0, 0), (0, 1), (0, 2)]), reached=False)
        update_pheromone(field, [p], AcoParams(rho=0.2))
        assert all(rel_close(v, 0.8) for _, v in field.items())

    def test_tau_stays_positive(self):
        field = PheromoneField(GridGraph(np.ones((3, 3), bool), 1.0), 1.0)
        params = AcoParams(rho=0.9)
        for _ in range(60):
            update_pheromone(field, [], params)
        assert all(v > 0.0 for _, v in field.items())


class TestRepair:
    def make_paths(self, reached_flags):
        return [replace(path_through([(0, 0), (0, 1), (0, 2)]), reached=f)
                for f in reached_flags]

    def test_all_finished_replaces_one(self):
        best = path_through([(0, 0), (1, 1)])
        paths = self.make_paths([True] * 5)
        out = repair(paths, best, np.random.default_rng(1))
        assert sum(1 for p in out if p.cells == best.cells) == 1

    def test_unfinished_pool_preferred(self):
        best = path_through([(0, 0), (1, 1)])
        paths = self.make_paths([True, False, True, False, True])
        out = repair(paths, best, np.random.default_rng(2))
        replaced = [k for k, p in enumerate(out) if p.cells == best.cells]
        assert len(replaced) == 1 and replaced[0] in (1, 3)
        other = 3 if replaced[0] == 1 else 1
        assert not out[other].reached

    def test_seeded_choice_reproducible(self):
        best = path_through([(0, 0), (1, 1)])
        paths = self.make_paths([False] * 6)
        a = repair(paths, best, np.random.default_rng(77))
        b = repair(paths, best, np.random.default_rng(77))
        assert [p.cells for p in a] == [p.cells for p in b]

    def test_requires_incumbent(self):
        with pytest.raises(NoBestPathYet):
            repair(self.make_paths([False]), None, np.random.default_rng(0))


class TestPlanSubpath:
    def test_adjacent_single_step(self):
        path, series = plan_subpath(open_grid(), (2, 2), (2, 3), AcoParams(n_iters=3), 1)
        assert path.cells == ((2, 2), (2, 3))
        assert rel_close(path.length, 1.0)
        assert len(series) == 3

    def test_detour_never_enters_blocked_cells(self):
        mask = np.ones((9, 9), bool)
        mask[4, 1:8] = False  # wall with a gap at the west edge
        graph = GridGraph(mask, 1.0)
        for seed in range(5):
            path, _ = plan_subpath(graph, (2, 4), (6, 4), AcoParams(n_iters=10, n_ants=8), seed)
            assert path.reached
            assert all(mask[c] for c in path.cells)

    def test_tabu_no_repeats(self):
        for seed in range(5):
            path, _ = plan_subpath(open_grid(9), (0, 0), (8, 8),
                                   AcoParams(n_iters=10, n_ants=12), seed)
            assert len(set(path.cells)) == len(path.cells)

    def test_deterministic_for_seed(self):
        a = plan_subpath(open_grid(7), (0, 0), (6, 5), AcoParams(n_iters=8, n_ants=6), 42)
        b = plan_subpath(open_grid(7), (0, 0), (6, 5), AcoParams(n_iters=8, n_ants=6), 42)
        assert a[0] == b[0] and a[1] == b[1]

    def test_unreachable_subgoal(self):
        mask = np.ones((7, 7), bool)
        mask[3, :] = False  # full wall
        with pytest.raises(NoPathFound):
            plan_subpath(GridGraph(mask, 1.0), (1, 1), (5, 5),
                         AcoParams(n_iters=10, n_ants=6), 0)

    def test_series_tracks_best_so_far(self):
        _, series = plan_subpath(open_grid(9), (0, 0), (8, 4),
                                 AcoParams(n_iters=20), 3)
        finite = [v for v in series if v != math.inf]
        assert finite == sorted(finite, reverse=True) or \
            all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            plan_subpath(open_grid(), (1, 1), (1, 1), AcoParams(), 0)
        mask = np.ones((5, 5), bool)
        mask[2, 2] = False
        with pytest.raises(ValueError):
            plan_subpath(GridGraph(mask, 1.0), (0, 0), (2, 2), AcoParams(), 0)

    def test_conventional_mode_returns_min_length_objective(self):
        params = AcoParams(n_iters=10, n_ants=8, mode=AcoMode.CONVENTIONAL)
        path, series = plan_subpath(open_grid(7), (0, 0), (0, 6), params, 5)
        assert path.reached
        assert score(path, params) == path.length

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AcoParams(rho=0.0)
        with pytest.raises(ValueError):
            AcoParams(n_ants=1)
        with pytest.raises(ValueError):
            AcoParams(delta=0.0, zeta=0.0)
        with pytest.raises(ValueError):
            AcoParams(delta=0.0, zeta=1.0)  # a straight path would score 0
        with pytest.raises(ValueError):
            AcoParams(elite_cutoff=20, n_ants=20)


class ScriptedDraws:
    """Stands in for the walker's generator: hands out a fixed list of draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self):
        assert self.used < len(self.draws), "walk needed more draws than scripted"
        self.used += 1
        return self.draws[self.used - 1]


class TestWalkKernel:
    """The reference walker makes the picks of the public transition rule.

    TestKernelDifferential checks that the compiled kernel walks as the
    reference does, so the two together tie the kernel to the public rule.
    """

    @pytest.mark.parametrize("mode", [AcoMode.IMPROVED, AcoMode.CONVENTIONAL])
    def test_picks_equal_public_rule(self, mode):
        rng = np.random.default_rng(41)
        steps = dead_ends = 0
        for case in range(300):
            n = int(rng.integers(3, 9))
            mask = rng.random((n, n)) > 0.3
            start, goal = (0, 0), (n - 1, n - 1)
            mask[start] = mask[goal] = True
            graph = GridGraph(mask, float(rng.uniform(0.3, 2.0)))
            field = PheromoneField(graph, 1.0)
            for k in range(len(field.tau)):
                field.tau[k] = float(rng.uniform(0.01, 5.0))
            # phi != 1 in two cases of three: the weight table keeps float **
            params = AcoParams(phi=[1.0, 0.6, 1.7][case % 3],
                               gamma=float(rng.uniform(0.5, 6.0)), mode=mode)
            draws = rng.random(4 * graph.n + 1)
            eta_g, vtab = oracles.colony_tables_ref(graph, params)
            weights = oracles.edge_weights_ref(field.tau, params.phi, eta_g)
            path = oracles.construct_ref(graph, oracles.neighbor_table_ref(graph), weights,
                                         vtab, graph.id_of(start), graph.id_of(goal),
                                         4 * graph.n, ScriptedDraws(draws))

            state = AntState(start, frozenset([start]), None)
            for i, (nxt, d) in enumerate(zip(path.cells[1:], path.dirs)):
                dist = transition_probabilities(field, state, params)
                assert roulette_select(dist, float(draws[i])) == nxt
                state = AntState(nxt, state.tabu | {nxt}, DIR_ANGLES[d])
                steps += 1
            assert path.reached == (path.cells[-1] == goal)
            if not path.reached:
                with pytest.raises(DeadEnd):
                    transition_probabilities(field, state, params)
                dead_ends += 1
        assert steps > 1000 and dead_ends > 10


class TestKernelDifferential:
    """plan_subpath, the compiled kernel, equals the Python reference loop."""

    def test_equals_reference_on_random_cases(self):
        rng = np.random.default_rng(4242)
        stats = Counter()
        outcomes = Counter()
        cases = 0
        while cases < 360:
            # one case in four is an open grid with unit cells and zeta 0, where
            # distinct paths tie on cost and ties straddle a small elite cutoff
            ties = cases % 4 == 3
            n = int(rng.integers(3, 10))
            mask = rng.random((n, n)) > (0.0 if ties else rng.uniform(0.05, 0.45))
            free = [tuple(map(int, c)) for c in np.argwhere(mask)]
            if len(free) < 2:
                continue
            i, j = rng.choice(len(free), 2, replace=False)
            start, goal = free[i], free[j]
            graph = GridGraph(mask, 1.0 if ties else float(rng.uniform(0.3, 2.0)))
            mode = AcoMode.IMPROVED if cases % 2 else AcoMode.CONVENTIONAL
            m = int(rng.integers(2, 13))
            params = AcoParams(
                phi=[1.0, 0.6, 1.7][cases % 3], gamma=float(rng.uniform(0.5, 6.0)),
                rho=float(rng.uniform(0.05, 0.95)), q=float(rng.uniform(0.1, 5.0)),
                n_ants=m, n_iters=int(rng.integers(1, 13)),
                delta=float(rng.uniform(0.1, 2.0)),
                zeta=0.0 if ties else float(rng.uniform(0.0, 2.0)),
                tau0=float(rng.uniform(0.1, 3.0)),
                max_steps=None if rng.random() < 0.5 else int(rng.integers(1, n + 3)),
                elite_cutoff=None if rng.random() < 0.4 and not ties
                else int(rng.integers(1, m)),
                mode=mode)
            seed = tuple(int(v) for v in rng.integers(0, 2 ** 40, int(rng.integers(1, 4))))
            try:
                expected = oracles.plan_subpath_ref(graph, start, goal, params, seed, stats)
            except NoPathFound as exc:
                with pytest.raises(NoPathFound) as got:
                    plan_subpath(graph, start, goal, params, seed)
                assert str(got.value) == str(exc)
                outcomes["consecutive" if "consecutive" in str(exc) else "budget"] += 1
            else:
                path, series = plan_subpath(graph, start, goal, params, seed)
                assert (path.cells, path.dirs, path.length, path.corners, path.reached) == \
                    (expected[0].cells, expected[0].dirs, expected[0].length,
                     expected[0].corners, True)
                assert series == expected[1]
                outcomes["found"] += 1
            cases += 1
        assert outcomes["found"] >= 200, outcomes
        assert outcomes["consecutive"] >= 5 and outcomes["budget"] >= 5, outcomes
        for what in ("step_cap", "dead_end", "repair_unfinished", "repair_all_finished"):
            assert stats[what] >= 20, stats

    @pytest.mark.parametrize("key", [
        (0,),                    # 3 words with (n, k): shorter than the 4-word pool
        (7,),
        (2 ** 32 - 1,),
        (2 ** 32 + 5,),          # two-word seed
        (2 ** 64 + 1,),          # three-word seed
        (9, 3, 0),               # the planner's (seed, cycle, attempt) prefix
        (411, 2 ** 40, 12),      # more than 4 words with (n, k)
    ])
    def test_equals_reference_on_pinned_keys(self, key):
        # a weak heuristic keeps the walks random, so every stream shows in the path
        mask = np.ones((8, 8), bool)
        mask[2:6, 4] = False
        graph = GridGraph(mask, 1.0)
        params = AcoParams(gamma=1.0, n_ants=6, n_iters=8)
        stats = Counter()
        expected = oracles.plan_subpath_ref(graph, (0, 0), (7, 7), params, key, stats)
        path, series = plan_subpath(graph, (0, 0), (7, 7), params, key)
        assert (path.cells, path.dirs, path.length, path.corners) == \
            (expected[0].cells, expected[0].dirs, expected[0].length, expected[0].corners)
        assert series == expected[1]
        assert stats["repair_unfinished"] + stats["repair_all_finished"] > 0

    def test_underflowing_weights_raise(self):
        # tau0 * (1/1.5)**5 rounds to 0 on every edge: no roulette total is usable
        with pytest.raises(ColonyWeightError):
            plan_subpath(open_grid(5, 1.5), (0, 0), (4, 4), AcoParams(tau0=5e-324), 0)

    def test_overflowing_gamma_is_a_value_error(self):
        with pytest.raises(ValueError):
            plan_subpath(open_grid(5, 1e-70), (0, 0), (4, 4), AcoParams(), 0)

    def test_arguments_are_checked_before_the_call(self):
        good = np.zeros(8)
        assert kernel.pointer(good, np.float64, (8,)) is not None
        for bad in (np.zeros(8, np.float32), np.zeros(9), np.zeros(16)[::2]):
            with pytest.raises(ValueError):
                kernel.pointer(bad, np.float64, (8,))
        frozen = np.zeros(8)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            kernel.pointer(frozen, np.float64, (8,), writable=True)


class TestGridGraph:
    def test_neighbour_array_matches_a_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows, cols = (int(v) for v in rng.integers(1, 9, 2))
            mask = rng.random((rows, cols)) > 0.3
            graph = GridGraph(mask, 1.0)
            assert graph.nbr.shape == (rows * cols, 8) and graph.nbr.dtype == np.int32
            for cid in range(graph.n):
                r, c = divmod(cid, cols)
                for d, (dr, dc) in enumerate(DIR_OFFSETS):
                    nr, nc = r + dr, c + dc
                    ok = mask[r, c] and 0 <= nr < rows and 0 <= nc < cols and mask[nr, nc]
                    assert graph.nbr[cid, d] == (nr * cols + nc if ok else -1)


# the PCG64 output function and seeding (O'Neill 2014) that colony.c implements
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128, _M64 = (1 << 128) - 1, (1 << 64) - 1


def _pcg_first_output(words):
    inc = ((int(words[2]) << 64 | int(words[3])) << 1 | 1) & _M128
    state = ((inc + (int(words[0]) << 64 | int(words[1]))) * _PCG_MULT + inc) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    x = ((state >> 64) ^ state) & _M64
    rot = state >> 122
    return ((x >> rot) | (x << (-rot & 63))) & _M64


class TestSeedStreams:
    """The PCG64 seeding and first draws that colony.c implements are numpy's."""

    def test_repair_stream_integers_match(self):
        # the kernel's draws on a fresh stream: (first output >> 11) * 2^-53
        # for random(), Lemire's method on its low 32 bits for integers(k)
        m = 12
        for row in range(20 * (m + 1)):
            key = (9, 1, 0, 1 + row // (m + 1), row % (m + 1))
            first = _pcg_first_output(np.random.SeedSequence(key).generate_state(4, np.uint64))
            bound = 2 + row % 19
            assert (first >> 11) * 2.0 ** -53 == \
                np.random.default_rng(np.random.SeedSequence(key)).random()
            assert (first & 0xFFFFFFFF) * bound >> 32 == \
                int(np.random.default_rng(np.random.SeedSequence(key)).integers(bound))

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            plan_subpath(open_grid(), (0, 0), (4, 4), AcoParams(), seed=(-1,))
