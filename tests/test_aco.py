import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from antnav import AcoMode, AcoParams, ColonyWeightError, NoPathFound, corner_heuristic
from antnav.aco import _CORNER_FACTORS, heuristic_weights
from antnav.geometry import DIR_ANGLES, DIR_OFFSETS

import oracles
from oracles import (corner_ref, heuristic_ref, neighbors_ref, plan_subpath_ref,
                     reachable_ref, rel_close, score_ref, step_lengths_ref, transition_ref)
from probes import kernel_run, kernel_transition, random_field_state
from stages import GridGraph, plan_subpath, pointer

SQRT2 = math.sqrt(2.0)


def open_grid(n=5, cell_size=1.0):
    return GridGraph(np.ones((n, n), bool), cell_size)


def picture_grid(picture, cell_size=1.0):
    """GridGraph of a picture: one row per line, '.' free and '#' blocked."""
    return GridGraph(np.array([[ch == "." for ch in row] for row in picture.split()]),
                     cell_size)


def edge(graph, i, j):
    """Index of the directed edge i -> j in plan_subpath's pheromone array."""
    return graph.id_of(i) * 8 + DIR_OFFSETS.index((j[0] - i[0], j[1] - i[1]))


def stream(seed, n, k):
    """The generator of ant k in iteration n; k = n_ants is the repair draw's."""
    return np.random.default_rng(np.random.SeedSequence((seed, n, k)))


def deposited(tau, amount, times):
    """tau after times deposits of amount, added one at a time as the kernel adds them."""
    for _ in range(times):
        tau += amount
    return tau


# (0, 0) to (2, 3) along a one-wide corridor: one open move at every step,
# length 3 + sqrt 2 and 2 corners.
BEND = """
...#
###.
###.
"""
BEND_CELLS = ((0, 0), (0, 1), (0, 2), (1, 3), (2, 3))

# A one-wide ring of 12 cells: each cell has two neighbours, so once an ant
# has made its first move, every later move is forced.
RING = """
#...#
.###.
.###.
.###.
#...#
"""

# From (1, 1): a diagonal move into a corridor that reaches (0, 4), or a
# straight move into (1, 0), a dead end.
SPUR = """
##...
..###
"""


class Fork:
    """A start cell with two moves, each followed by a forced walk.

    branches holds, per move in canonical direction order, the cells the
    walk visits after the start. An ant's first draw picks its branch, so
    the colony on a fork can be worked out from numpy's draws by hand.
    """

    def __init__(self, picture, start, goal, branches, cell_size=1.0):
        self.graph = picture_grid(picture, cell_size)
        self.start, self.goal, self.branches = start, goal, branches

    def first_edges(self):
        return [edge(self.graph, self.start, cells[0]) for cells in self.branches]

    def walks(self, params):
        """(reached, length, corners, cost) per branch, as the kernel walks it."""
        cap = min(params.max_steps or self.graph.n - 1, self.graph.n - 1)
        out = []
        for cells in self.branches:
            path = (self.start,) + cells
            dirs = [DIR_OFFSETS.index((b[0] - a[0], b[1] - a[1])) for a, b in zip(path, path[1:])]
            steps, length = step_lengths_ref(self.graph.cell_size), 0.0
            for d in dirs[:cap]:
                length += steps[d]
            corners = sum(a != b for a, b in zip(dirs[:cap], dirs[1:cap]))
            cost = params.delta * length + params.zeta * corners \
                if params.mode is AcoMode.IMPROVED else length
            out.append((path[-1] == self.goal and len(dirs) <= cap, length, corners, cost))
        return out

    def colony(self, params, seed, repair_pool="unfinished"):
        """The colony worked out from the ants' first draws: per iteration
        the branch of every ant (before repair) and the quotient of the first
        move, plus the series and the final pheromone on each branch's edges.

        repair_pool "all" draws the repaired ant from every ant, also when
        some are unfinished; None leaves repair out.
        """
        improved = params.mode is AcoMode.IMPROVED
        walks = self.walks(params)
        eta = heuristic_weights(step_lengths_ref(self.graph.cell_size), params.gamma)
        eta_first = [eta[e % 8] for e in self.first_edges()]
        m = params.n_ants
        tau = [params.tau0, params.tau0]
        best, best_cost, series, picks, quotients = None, math.inf, [], [], []
        for n in range(1, params.n_iters + 1):
            w = [t ** params.phi * e for t, e in zip(tau, eta_first)]
            p = w[0] / (w[0] + w[1])
            quotients.append(p)
            ants = [0 if stream(seed, n, k).random() < p else 1 for k in range(m)]
            picks.append(list(ants))
            if best is None and not any(walks[b][0] for b in ants):
                series.append(math.inf)
                continue
            if improved and best is not None and repair_pool:
                pool = [k for k, b in enumerate(ants) if not walks[b][0]]
                if repair_pool == "all" or not pool:
                    pool = range(m)
                ants[pool[int(stream(seed, n, m).integers(len(pool)))]] = best
            finished = [k for k, b in enumerate(ants) if walks[b][0]]
            if improved:
                finished = sorted(finished, key=lambda k: walks[ants[k]][3])
                finished = finished[:params.resolved_elite_cutoff()]
            tau = [t * (1.0 - params.rho) for t in tau]
            for k in finished:
                tau[ants[k]] += params.q / walks[ants[k]][3]
            for b in ants:
                if walks[b][0] and walks[b][3] < best_cost:
                    best, best_cost = b, walks[b][3]
            series.append(best_cost)
        return SimpleNamespace(picks=picks, p=quotients, series=series, tau=tau)

    def run(self, params, seed):
        """plan_subpath's path and series, and the pheromone array the kernel left."""
        result, tau = kernel_run(self.graph, self.start, self.goal, params, seed)
        assert not isinstance(result, str), result
        return result[0], result[1], tau


def ring_fork(cell_size=1.0):
    # from (0, 1) to (3, 4): a straight first move and 5 steps (length
    # 4 + sqrt 2, 2 corners), or a diagonal one and 7 steps (4 + 3 sqrt 2, 4)
    return Fork(RING, (0, 1), (3, 4),
                (((0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
                 ((1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3), (3, 4))), cell_size)


def spur_fork():
    # the corridor (length 2 + sqrt 2, 1 corner) is first in canonical order
    return Fork(SPUR, (1, 1), (0, 4), (((0, 2), (0, 3), (0, 4)), ((1, 0),)))


def same_series(got, expected):
    return len(got) == len(expected) and all(
        a == b == math.inf or rel_close(a, b) for a, b in zip(got, expected))


class TestHeuristic:
    """heuristic_weights, the check AcoParams.kernel_args runs on gamma and the cell size:
    (1 / step) ** gamma per direction, the heuristic itself at gamma 1. The
    kernel computes the same weights from gamma, which TestKernelDifferential
    pins by bits on random gamma and cell sizes."""

    def test_straight_neighbor(self):
        eta = heuristic_weights(step_lengths_ref(1.0), 1.0)
        assert [eta[DIR_OFFSETS.index((1, 0))], eta[DIR_OFFSETS.index((0, -1))]] == [1.0, 1.0]

    def test_diagonal_neighbor(self):
        eta = heuristic_weights(step_lengths_ref(1.0), 1.0)
        assert rel_close(eta[DIR_OFFSETS.index((1, 1))], 1.0 / SQRT2)
        assert rel_close(eta[DIR_OFFSETS.index((-1, 1))], 1.0 / SQRT2)

    def test_metric_cells(self):
        eta = heuristic_weights(step_lengths_ref(1.5), 1.0)
        assert rel_close(eta[DIR_OFFSETS.index((0, 1))], 2.0 / 3.0)

    def test_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            i = (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            d = int(rng.integers(0, 8))
            j = (i[0] + DIR_OFFSETS[d][0], i[1] + DIR_OFFSETS[d][1])
            cs = float(rng.uniform(0.1, 3.0))
            gamma = float(rng.uniform(0.5, 6.0))
            eta = heuristic_weights(step_lengths_ref(cs), gamma)
            assert rel_close(eta[d], heuristic_ref(i, j, cs) ** gamma)


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
    """The move distribution of colony.c's walk(), seen in the pheromone a
    run leaves (each finished ant deposits on the edges it walked) and in
    the weights and tables the kernel walks with."""

    def test_single_feasible_neighbor(self):
        # one open move at every step: every ant of every iteration finishes
        graph = picture_grid(BEND)
        params = AcoParams(n_ants=6, n_iters=3, mode=AcoMode.CONVENTIONAL)
        (path, series), tau = kernel_run(graph, BEND_CELLS[0], BEND_CELLS[-1], params, 3)
        assert path.cells == BEND_CELLS and series == [path.length] * 3
        forward = back = 1.0
        for _ in range(3):
            forward = deposited(forward * 0.7, 1.0 / path.length, 6)
            back *= 0.7
        for a, b in zip(BEND_CELLS, BEND_CELLS[1:]):
            assert rel_close(tau[edge(graph, a, b)], forward)
            assert rel_close(tau[edge(graph, b, a)], back)

    def test_uniform_setup_gives_symmetric_distribution(self):
        tau = np.ones(25 * 8)
        dist = kernel_transition(tau, open_grid(), (2, 2), frozenset(), -1, AcoParams())
        straight = [dist[c] for c in ((3, 2), (2, 3), (1, 2), (2, 1))]
        diag = [dist[c] for c in ((3, 3), (1, 3), (1, 1), (3, 1))]
        assert max(straight) - min(straight) < 1e-15
        assert max(diag) - min(diag) < 1e-15
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        # the kernel itself: from the top of the ring two straight moves lead
        # round to the bottom in 6 steps each, so each is taken with p 1/2
        fork = Fork(RING, (0, 2), (4, 2),
                    (((0, 3), (1, 4), (2, 4), (3, 4), (4, 3), (4, 2)),
                     ((0, 1), (1, 0), (2, 0), (3, 0), (4, 1), (4, 2))))
        params = AcoParams(n_ants=400, n_iters=1, mode=AcoMode.CONVENTIONAL)
        model = fork.colony(params, 8)
        assert model.p == [0.5] and abs(model.picks[0].count(0) - 200) < 40
        _, series, tau = fork.run(params, 8)
        assert same_series(series, model.series)
        assert all(rel_close(tau[e], t) for e, t in zip(fork.first_edges(), model.tau))

    def test_dead_end(self):
        # an ant that steps into (1, 0) has no open move left: its walk ends
        # unfinished and deposits nothing
        fork = spur_fork()
        params = AcoParams(gamma=1.0, n_ants=12, n_iters=1, mode=AcoMode.CONVENTIONAL)
        model = fork.colony(params, 4)
        assert 0 < model.picks[0].count(1) < 12
        path, _, tau = fork.run(params, 4)
        assert path.cells == (fork.start,) + fork.branches[0]
        corridor, dead_end = fork.first_edges()
        assert tau[dead_end] == 0.7
        assert rel_close(tau[corridor], model.tau[0])
        assert rel_close(tau[corridor], deposited(0.7, 1.0 / path.length,
                                                  model.picks[0].count(0)))

    @pytest.mark.parametrize("mode", [AcoMode.IMPROVED, AcoMode.CONVENTIONAL])
    def test_randomized_against_explicit_quotient(self, mode):
        rng = np.random.default_rng(17)
        # the kernel's weights combined as walk() combines them, on random
        # pheromone, tabu lists and previous moves
        checked = 0
        while checked < 1000:
            case = random_field_state(rng)
            if case is None:
                continue
            tau, graph, cell, tabu, prev = case
            params = AcoParams(phi=float(rng.uniform(0.5, 2.0)),
                               gamma=float(rng.uniform(0.5, 6.0)), mode=mode)
            dist = kernel_transition(tau, graph, cell, tabu, prev, params)
            nbr_cells = [j for _, j in neighbors_ref(graph.mask, cell)]
            ref = transition_ref(tau, graph.cols, nbr_cells, tabu,
                                 None if prev < 0 else DIR_ANGLES[prev], cell, params.phi,
                                 params.gamma, graph.cell_size, mode is AcoMode.IMPROVED)
            assert dist.keys() == ref.keys()
            for c, p in dist.items():
                assert rel_close(p, ref[c])
            assert abs(sum(dist.values()) - 1.0) <= 1e-12
            checked += 1
        # the kernel's own first moves on the ring: the ants that take the
        # first move are the ones whose draw is below its quotient
        for case in range(100):
            fork = ring_fork(float(rng.uniform(0.5, 2.0)))
            params = AcoParams(phi=[1.0, 0.6, 1.7][case % 3], gamma=float(rng.uniform(0.5, 6.0)),
                               rho=float(rng.uniform(0.05, 0.95)), q=float(rng.uniform(0.1, 5.0)),
                               delta=float(rng.uniform(0.1, 2.0)),
                               zeta=float(rng.uniform(0.0, 2.0)),
                               tau0=float(rng.uniform(0.1, 3.0)),
                               n_ants=int(rng.integers(2, 30)), n_iters=int(rng.integers(1, 5)),
                               mode=mode)
            model = fork.colony(params, case)
            graph = fork.graph
            first = [cells[0] for cells in fork.branches]
            ref = transition_ref(np.full(graph.n * 8, params.tau0), graph.cols, first, (),
                                 None, fork.start, params.phi, params.gamma, graph.cell_size,
                                 mode is AcoMode.IMPROVED)
            assert rel_close(model.p[0], ref[first[0]])
            _, series, tau = fork.run(params, case)
            assert same_series(series, model.series)
            assert all(rel_close(tau[e], t) for e, t in zip(fork.first_edges(), model.tau))


class TestRouletteSelect:
    """walk()'s pick: the first candidate in canonical order whose cumulative
    quotient exceeds the draw, and the last one when none does."""

    def test_certain_choice(self):
        # one candidate per step: every ant walks the corridor, whatever its draw
        assert max(stream(5, 1, k).random() for k in range(40)) > 0.95
        graph = picture_grid(BEND)
        params = AcoParams(n_ants=40, n_iters=1, mode=AcoMode.CONVENTIONAL)
        (path, _), tau = kernel_run(graph, BEND_CELLS[0], BEND_CELLS[-1], params, 5)
        for a, b in zip(BEND_CELLS, BEND_CELLS[1:]):
            assert rel_close(tau[edge(graph, a, b)], deposited(0.7, 1.0 / path.length, 40))

    def test_cdf_arithmetic(self):
        fork = ring_fork()
        eta = heuristic_weights(step_lengths_ref(fork.graph.cell_size), 1.0)
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
            params = AcoParams(gamma=gamma, n_ants=50, n_iters=1, mode=AcoMode.CONVENTIONAL)
            w = [eta[e % 8] ** gamma for e in fork.first_edges()]
            p = w[0] / (w[0] + w[1])
            n_first = sum(stream(11, 1, k).random() < p for k in range(50))
            assert 0 < n_first < 50
            lengths = [walk[1] for walk in fork.walks(params)]
            _, _, tau = fork.run(params, 11)
            e0, e1 = fork.first_edges()
            assert rel_close(tau[e0], deposited(0.7, 1.0 / lengths[0], n_first))
            assert rel_close(tau[e1], deposited(0.7, 1.0 / lengths[1], 50 - n_first))

    def test_monte_carlo_frequencies(self):
        # gamma 2: the straight first move weighs 1, the diagonal one 1/2
        fork = ring_fork()
        m = 20000
        params = AcoParams(gamma=2.0, rho=0.5, n_ants=m, n_iters=1, mode=AcoMode.CONVENTIONAL)
        lengths = [walk[1] for walk in fork.walks(params)]
        _, _, tau = fork.run(params, 23)
        counts = [round((tau[e] - 0.5) * length)
                  for e, length in zip(fork.first_edges(), lengths)]
        assert sum(counts) == m
        assert abs(counts[0] / m - 2.0 / 3.0) < 0.01
        assert abs(counts[1] / m - 1.0 / 3.0) < 0.01


class TestScore:
    """The cost the kernel ranks by: delta * length + zeta * corners in
    improved mode, the length in conventional mode; plan_subpath's series
    holds the best cost so far."""

    def bend(self, cell_size=1.0, **params):
        path, series = plan_subpath(picture_grid(BEND, cell_size), BEND_CELLS[0],
                                    BEND_CELLS[-1], AcoParams(n_ants=2, n_iters=2, **params), 0)
        assert path.cells == BEND_CELLS and path.corners == 2
        return path, series

    def test_length_only(self):
        path, series = self.bend(delta=1.0, zeta=0.0)
        assert series == [path.length] * 2
        assert rel_close(path.length, 3.0 + SQRT2)

    def test_weighted(self):
        _, series = self.bend(delta=0.7, zeta=0.3)
        assert rel_close(series[-1], 0.7 * (3.0 + SQRT2) + 0.3 * 2)

    def test_conventional_objective_is_the_length(self):
        path, series = self.bend(delta=0.7, zeta=0.3, mode=AcoMode.CONVENTIONAL)
        assert series[-1] == path.length

    def test_unfinished_rejected(self):
        # a walk into the dead end (length 1) is shorter than the corridor
        # (2 + sqrt 2), yet never scores
        fork = spur_fork()
        params = AcoParams(gamma=1.0, delta=1.0, zeta=0.0, n_ants=6, n_iters=4)
        model = fork.colony(params, 2)
        assert all(1 in picks for picks in model.picks)
        path, series, _ = fork.run(params, 2)
        assert path.cells == (fork.start,) + fork.branches[0]
        assert series == [path.length] * 4

    def test_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            cs = float(rng.uniform(0.1, 3.0))
            dl = float(rng.uniform(0, 2)); zt = float(rng.uniform(0.01, 2))
            path, series = self.bend(cs, delta=dl, zeta=zt)
            assert rel_close(path.length, cs * (3.0 + SQRT2))
            assert rel_close(series[-1], score_ref(path.length, 2, dl, zt))


class TestUpdatePheromone:
    """The update the kernel runs after each iteration with a finisher:
    every edge evaporates by 1 - rho, then each finished path (in improved
    mode the elite_cutoff best) deposits q / cost on the edges it walked."""

    def test_pure_evaporation(self):
        fork = spur_fork()
        params = AcoParams(gamma=1.0, rho=0.5, tau0=2.0, n_ants=8, n_iters=5)
        path, series, tau = fork.run(params, 1)
        assert math.inf not in series
        walked = {edge(fork.graph, a, b) for a, b in zip(path.cells, path.cells[1:])}
        assert all(tau[e] == 2.0 * 0.5 ** 5 for e in range(len(tau)) if e not in walked)

    def test_single_ant_deposit(self):
        # both ants walk the corridor; the default cutoff n_ants - 1 keeps one
        graph = picture_grid(BEND)
        params = AcoParams(rho=0.3, q=1.0, delta=0.7, zeta=0.3, n_ants=2, n_iters=1)
        (path, _), tau = kernel_run(graph, BEND_CELLS[0], BEND_CELLS[-1], params, 0)
        w = 0.7 * path.length + 0.3 * path.corners
        for a, b in zip(BEND_CELLS, BEND_CELLS[1:]):
            assert rel_close(tau[edge(graph, a, b)], 0.7 + 1.0 / w)
            assert rel_close(tau[edge(graph, b, a)], 0.7)  # reverse edge untouched

    def one_long_walk(self, fork, params):
        """A seed whose first iteration sends exactly one ant the long way round."""
        return next(s for s in range(100) if fork.colony(params, s).picks[0].count(1) == 1)

    def test_worst_ant_excluded_at_default_cutoff(self):
        fork = ring_fork()
        params = AcoParams(gamma=1.0, rho=0.3, n_ants=3, n_iters=1)
        seed = self.one_long_walk(fork, params)
        _, _, tau = fork.run(params, seed)
        short, long = fork.first_edges()
        assert tau[long] == 0.7  # the edges only the worst path walked only evaporate
        cost = fork.walks(params)[0][3]
        assert rel_close(tau[short], deposited(0.7, 1.0 / cost, 2))

    def test_conventional_mode_deposits_by_length_for_all(self):
        fork = ring_fork()
        params = AcoParams(gamma=1.0, rho=0.3, q=2.0, n_ants=3, n_iters=1,
                           mode=AcoMode.CONVENTIONAL)
        seed = self.one_long_walk(fork, params)
        _, _, tau = fork.run(params, seed)
        lengths = [walk[1] for walk in fork.walks(params)]
        short, long = fork.first_edges()
        assert rel_close(tau[long], 0.7 + 2.0 / lengths[1])
        assert rel_close(tau[short], deposited(0.7, 2.0 / lengths[0], 2))

    def test_unfinished_never_deposit(self):
        # a step cap of 5 stops the long way round after 5 of its 7 steps
        fork = ring_fork()
        params = AcoParams(gamma=1.0, rho=0.3, n_ants=8, n_iters=1, max_steps=5,
                           mode=AcoMode.CONVENTIONAL)
        walks = fork.walks(params)
        assert walks[0][0] and not walks[1][0]
        model = fork.colony(params, 6)
        assert 0 < model.picks[0].count(1) < 8
        _, _, tau = fork.run(params, 6)
        capped = (fork.start,) + fork.branches[1][:5]
        assert all(tau[edge(fork.graph, a, b)] == 0.7 for a, b in zip(capped, capped[1:]))
        assert rel_close(tau[fork.first_edges()[0]],
                         deposited(0.7, 1.0 / walks[0][1], model.picks[0].count(0)))

    def test_tau_stays_positive(self):
        fork = spur_fork()
        params = AcoParams(gamma=1.0, rho=0.9, n_ants=8, n_iters=60)
        _, series, tau = fork.run(params, 0)
        assert math.inf not in series
        assert (tau > 0.0).all()
        untouched = 1.0
        for _ in range(60):
            untouched *= 1.0 - 0.9
        assert tau[fork.first_edges()[1]] == untouched


class TestRepair:
    """Once an incumbent exists, improved mode hands it to one ant before
    each update: to an unfinished ant drawn with Generator.integers on the
    stream (seed, iteration, n_ants), or to any ant when all finished."""

    @staticmethod
    def agrees(fork, params, seed, model):
        _, series, tau = fork.run(params, seed)
        return same_series(series, model.series) and all(
            rel_close(tau[e], t) for e, t in zip(fork.first_edges(), model.tau))

    def test_all_finished_replaces_one(self):
        # on the ring every ant finishes; in iteration 2 the draw picks an
        # ant that went the long way, and its slot deposits as the incumbent
        fork = ring_fork()
        params = AcoParams(gamma=1.0, n_ants=4, n_iters=2)
        for seed in range(200):
            model = fork.colony(params, seed)
            if model.picks[0][0] == 0 and \
                    model.picks[1][int(stream(seed, 2, 4).integers(4))] == 1:
                break
        assert self.agrees(fork, params, seed, model)
        assert model.tau != fork.colony(params, seed, repair_pool=None).tau

    def test_unfinished_pool_preferred(self):
        fork = spur_fork()
        params = AcoParams(gamma=1.0, n_ants=6, n_iters=2)
        shown = 0
        for seed in range(100):
            model = fork.colony(params, seed)
            if math.inf in model.series or \
                    model.tau == fork.colony(params, seed, repair_pool="all").tau:
                continue
            assert self.agrees(fork, params, seed, model)
            shown += 1
        assert shown >= 10

    def test_seeded_choice_reproducible(self):
        fork = spur_fork()
        params = AcoParams(gamma=0.5, n_ants=6, n_iters=4)
        for seed in range(20):
            a, b = fork.run(params, seed), fork.run(params, seed)
            assert a[0] == b[0] and a[1] == b[1] and a[2].tobytes() == b[2].tobytes()
            assert self.agrees(fork, params, seed, fork.colony(params, seed))

    def test_requires_incumbent(self):
        # no ant finishes in iteration 1: no repair and no update; iteration 2
        # deposits only for its own finishers, with no incumbent to hand out
        fork = spur_fork()
        params = AcoParams(gamma=1.0, n_ants=3, n_iters=2)
        seed = next(s for s in range(100)
                    if fork.colony(params, s).picks[0] == [1, 1, 1]
                    and 0 in fork.colony(params, s).picks[1])
        model = fork.colony(params, seed)
        _, series, tau = fork.run(params, seed)
        assert series[0] == math.inf and series[1] < math.inf
        corridor, dead_end = fork.first_edges()
        assert tau[dead_end] == 0.7
        finishers = model.picks[1].count(0)
        assert rel_close(tau[corridor],
                         deposited(0.7, 1.0 / fork.walks(params)[0][3], min(finishers, 2)))

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
        with pytest.raises(ValueError, match=r"^start cell \(2, 2\) is not traversable$"):
            plan_subpath(GridGraph(mask, 1.0), (2, 2), (0, 0), AcoParams(), 0)
        # off-grid cells: numpy would wrap a negative index, and index past the edge
        with pytest.raises(ValueError, match="outside 3x3 grid"):
            open_grid(3).traversable((-1, -1))
        with pytest.raises(ValueError, match="outside 3x3 grid"):
            plan_subpath(open_grid(3), (5, 5), (1, 1), AcoParams(), 0)

    def test_conventional_mode_returns_min_length_objective(self):
        params = AcoParams(n_iters=10, n_ants=8, mode=AcoMode.CONVENTIONAL)
        path, series = plan_subpath(open_grid(7), (0, 0), (0, 6), params, 5)
        assert path.reached
        assert series[-1] == path.length

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
        with pytest.raises(ValueError, match="^q must be positive$"):
            AcoParams(q=0)
        with pytest.raises(ValueError, match="^tau0 must be positive$"):
            AcoParams(tau0=0)

    @pytest.mark.parametrize("cell_size", [0.0, -1.0, math.nan, math.inf])
    def test_graph_rejects_bad_cell_size(self, cell_size):
        # -1.0 at gamma 2 made every weight 1 and reached the kernel, at gamma
        # 2.5 a complex weight raised TypeError
        with pytest.raises(ValueError, match="cell_size must be positive and finite"):
            GridGraph(np.ones((3, 3), bool), cell_size)

    def test_non_finite_params_rejected(self):
        # NaN passes every range check; inf is no usable exponent, rate or weight
        for name in ("phi", "gamma", "rho", "q", "delta", "zeta", "tau0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    AcoParams(**{name: value})


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
    """The kernel's weights, walked as colony.c's walk() walks them, make the
    picks of the transition oracle.

    construct_ref is walk() in Python, and TestKernelDifferential checks the
    kernel against it by bits; here it reads (1 / step) ** gamma per
    direction, from gamma and the cell size as colony_run computes it, and
    the kernel's _CORNER_FACTORS table, and every pick must be the
    inverse-CDF pick of the same draw on transition_ref's quotient.
    """

    def test_oracle_tables_equal_the_kernel_tables(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            graph = open_grid(2, float(rng.uniform(0.3, 2.0)))
            gamma = float(rng.uniform(0.5, 6.0))
            for mode in AcoMode:
                eta_g, vtab = oracles.colony_tables_ref(graph, AcoParams(gamma=gamma, mode=mode))
                assert eta_g.tolist() == heuristic_weights(
                    step_lengths_ref(graph.cell_size), gamma) * graph.n
                turn = np.array(_CORNER_FACTORS) if mode is AcoMode.IMPROVED else np.ones((9, 8))
                assert np.array(vtab).tolist() == turn.tolist()

    @pytest.mark.parametrize("mode", [AcoMode.IMPROVED, AcoMode.CONVENTIONAL])
    def test_picks_equal_transition_oracle(self, mode):
        rng = np.random.default_rng(41)
        steps = dead_ends = 0
        for case in range(300):
            n = int(rng.integers(3, 9))
            mask = rng.random((n, n)) > 0.3
            start, goal = (0, 0), (n - 1, n - 1)
            mask[start] = mask[goal] = True
            graph = GridGraph(mask, float(rng.uniform(0.3, 2.0)))
            tau = rng.uniform(0.01, 5.0, graph.n * 8)
            # phi != 1 in two cases of three: the weight table keeps float **
            params = AcoParams(phi=[1.0, 0.6, 1.7][case % 3],
                               gamma=float(rng.uniform(0.5, 6.0)), mode=mode)
            draws = rng.random(graph.n)
            eta_g = np.tile(heuristic_weights(step_lengths_ref(graph.cell_size), params.gamma),
                            graph.n)
            turn = np.array(_CORNER_FACTORS) if mode is AcoMode.IMPROVED else np.ones((9, 8))
            path = oracles.construct_ref(
                graph, oracles.neighbor_table_ref(graph),
                oracles.edge_weights_ref(tau, params.phi, eta_g), turn.tolist(),
                graph.id_of(start), graph.id_of(goal), graph.n - 1, ScriptedDraws(draws))

            nbr_cells = {cell: [j for _, j in neighbors_ref(mask, cell)] for cell in path.cells}
            prev = None
            for i, (cell, nxt, d) in enumerate(zip(path.cells, path.cells[1:], path.dirs)):
                dist = transition_ref(tau, graph.cols, nbr_cells[cell], path.cells[:i + 1],
                                      prev, cell, params.phi, params.gamma, graph.cell_size,
                                      mode is AcoMode.IMPROVED)
                acc, pick = 0.0, list(dist)[-1]
                for c, p in dist.items():
                    acc += p
                    if draws[i] < acc:
                        pick = c
                        break
                assert pick == nxt
                prev = DIR_ANGLES[d]
                steps += 1
            assert path.reached == (path.cells[-1] == goal)
            if not path.reached:
                assert transition_ref(tau, graph.cols, nbr_cells[path.cells[-1]], path.cells,
                                      prev, path.cells[-1], params.phi, params.gamma,
                                      graph.cell_size, mode is AcoMode.IMPROVED) == {}
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

    def test_equals_reference_on_rectangular_masks(self):
        # rows != cols, one case in three a single row or column: a step offset
        # built from the wrong side walks off the grid or into the wrong cell
        rng = np.random.default_rng(9090)
        outcomes = Counter()
        cases = 0
        while cases < 150:
            rows, cols = (int(v) for v in rng.integers(1, 11, 2))
            if cases % 3 == 0:
                rows, cols = (1, cols) if cases % 2 else (rows, 1)
            if rows == cols:
                continue
            mask = rng.random((rows, cols)) > rng.uniform(0.0, 0.35)
            free = [tuple(map(int, c)) for c in np.argwhere(mask)]
            if len(free) < 2:
                continue
            i, j = rng.choice(len(free), 2, replace=False)
            graph = GridGraph(mask, float(rng.uniform(0.3, 2.0)))
            m = int(rng.integers(2, 9))
            params = AcoParams(
                phi=[1.0, 0.6][cases % 2], gamma=float(rng.uniform(0.5, 4.0)),
                rho=float(rng.uniform(0.05, 0.95)), n_ants=m,
                n_iters=int(rng.integers(1, 9)), elite_cutoff=int(rng.integers(1, m)),
                mode=AcoMode.IMPROVED if cases % 4 < 2 else AcoMode.CONVENTIONAL)
            seed = (int(rng.integers(0, 2 ** 32)), cases)
            try:
                expected = oracles.plan_subpath_ref(graph, free[i], free[j], params, seed,
                                                    Counter())
            except NoPathFound as exc:
                with pytest.raises(NoPathFound) as got:
                    plan_subpath(graph, free[i], free[j], params, seed)
                assert str(got.value) == str(exc)
                outcomes["no_path"] += 1
            else:
                path, series = plan_subpath(graph, free[i], free[j], params, seed)
                assert (path.cells, path.dirs, path.length, path.corners) == \
                    (expected[0].cells, expected[0].dirs, expected[0].length,
                     expected[0].corners)
                assert series == expected[1]
                outcomes["1-wide" if 1 in (rows, cols) else "found"] += 1
            cases += 1
        assert outcomes["found"] >= 50 and outcomes["1-wide"] >= 25, outcomes

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
        assert pointer(good, np.float64, (8,)) is not None
        for bad in (np.zeros(8, np.float32), np.zeros(9), np.zeros(16)[::2]):
            with pytest.raises(ValueError):
                pointer(bad, np.float64, (8,))
        frozen = np.zeros(8)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            pointer(frozen, np.float64, (8,), writable=True)


def rectangular_mask(rng, case):
    """A random rectangular mask: a 1 x n or n x 1 strip in one case of four,
    otherwise rows != cols; one case in three is a transposed (not C-contiguous)
    view."""
    n = int(rng.integers(2, 10))
    if case % 4 == 0:
        shape = (1, n) if case % 8 == 0 else (n, 1)
    else:
        rows = int(rng.integers(2, 9))
        shape = (rows, int(rng.choice([c for c in range(2, 10) if c != rows])))
    mask = rng.random(shape[::-1]).T > (0.05 if 1 in shape else rng.uniform(0.1, 0.4))
    return mask if case % 3 == 0 else np.ascontiguousarray(mask)


class TestGridGraph:
    """The kernel's reading of the mask, rows and columns kept apart: every
    differential case elsewhere is square, so a rows/cols swap would pass there."""

    def test_rectangular_grids_match_the_reference(self):
        rng = np.random.default_rng(8)
        found = strips = 0
        for case in range(240):
            mask = rectangular_mask(rng, case)
            free = [tuple(map(int, c)) for c in np.argwhere(mask)]
            if len(free) < 2:
                continue
            i, j = rng.choice(len(free), 2, replace=False)
            graph = GridGraph(mask, float(rng.uniform(0.3, 2.0)))
            params = AcoParams(phi=[1.0, 0.6][case % 2], gamma=float(rng.uniform(0.5, 4.0)),
                               n_ants=int(rng.integers(2, 8)), n_iters=int(rng.integers(1, 6)),
                               mode=AcoMode.IMPROVED if case % 2 else AcoMode.CONVENTIONAL)
            try:
                expected = plan_subpath_ref(graph, free[i], free[j], params, case)
            except NoPathFound as exc:
                with pytest.raises(NoPathFound) as got:
                    plan_subpath(graph, free[i], free[j], params, case)
                assert str(got.value) == str(exc)
                continue
            path, series = plan_subpath(graph, free[i], free[j], params, case)
            assert (path.cells, path.dirs, path.length, path.corners) == \
                (expected[0].cells, expected[0].dirs, expected[0].length, expected[0].corners)
            assert series == expected[1]
            found += 1
            strips += 1 in mask.shape
        assert found >= 200 and strips >= 50, (found, strips)

    def test_reachable_from_matches_the_reference(self):
        rng = np.random.default_rng(9)
        for case in range(200):
            mask = rectangular_mask(rng, case)
            rows, cols = mask.shape
            graph = GridGraph(mask, 1.0)
            off_centre = (int(rng.integers(rows)), int(rng.integers(cols)))
            # the corners and a random cell, blocked or not: the start always counts
            for start in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1), off_centre):
                reach = graph.reachable_from(start)
                assert reach.shape == (rows, cols) and reach.dtype == np.bool_
                assert set(map(tuple, np.argwhere(reach).tolist())) == \
                    reachable_ref(mask.tolist(), start)
        with pytest.raises(ValueError):
            graph.reachable_from((rows, 0))

    def test_graph_keeps_a_copy_of_the_mask(self):
        mask = np.ones((3, 7), bool)
        graph = GridGraph(mask, 1.0)
        params = AcoParams(n_ants=6, n_iters=4)
        before = plan_subpath(graph, (0, 0), (2, 6), params, 3)
        mask[:, 3] = False  # a wall between start and goal, in the caller's array only
        assert not graph.mask.flags.writeable
        assert plan_subpath(graph, (0, 0), (2, 6), params, 3) == before
        assert graph.reachable_from((0, 0)).all()
        assert not GridGraph(mask, 1.0).reachable_from((0, 0))[:, 4:].any()

    @pytest.mark.parametrize("mask", [[True, False, True], np.ones((2, 3, 4), bool),
                                      [[True, False], [True]], True],
                             ids=["1d", "3d", "ragged", "scalar"])
    def test_graph_rejects_a_mask_that_is_not_2d(self, mask):
        with pytest.raises(ValueError) as got:
            GridGraph(mask, 1.0)
        assert str(got.value) == "mask must be a 2D array"


def corner_cells(shape):
    rows, cols = shape
    return {(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)}


class TestWalkOnEdgeShapes:
    """The walk's tabu mask on the shapes where a mark leaves the grid: entering
    a cell marks all 8 of its neighbours, so the marks of a border or corner
    cell land in the padding around the grid or wrap onto a cell of the next
    or previous row. A wrong padding, offset or back bit shows here as a
    different path, series or pheromone."""

    def test_border_walks_equal_the_reference(self):
        rng = np.random.default_rng(2024)
        outcomes = Counter()
        for case in range(240):
            if case % 3 == 0:
                n = int(rng.integers(2, 13))
                shape = (1, n) if case % 2 else (n, 1)
            else:
                shape = tuple(int(v) for v in rng.integers(2, 10, 2))
            mask = rng.random(shape) > (0.1 if 1 in shape else rng.uniform(0.05, 0.35))
            # the start on a corner, the sub-goal on the border, on a free
            # corner in half the cases
            rows, cols = shape
            start = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)][
                int(rng.integers(4))]
            mask[start] = True
            ring = [(r, c) for r in range(rows) for c in range(cols) if mask[r, c]
                    and (r, c) != start and (r in (0, rows - 1) or c in (0, cols - 1))]
            corners = [cell for cell in ring if cell in corner_cells(shape)]
            goals = corners if corners and case % 4 in (0, 3) else ring
            if not goals:
                continue
            goal = goals[int(rng.integers(len(goals)))]
            graph = GridGraph(mask, float(rng.uniform(0.3, 2.0)))
            m = int(rng.integers(2, 9))
            params = AcoParams(
                phi=[1.0, 0.6][case % 2], gamma=float(rng.uniform(0.5, 4.0)),
                rho=float(rng.uniform(0.05, 0.95)), n_ants=m, n_iters=int(rng.integers(1, 9)),
                elite_cutoff=int(rng.integers(1, m)),
                mode=AcoMode.IMPROVED if case % 4 < 2 else AcoMode.CONVENTIONAL)
            seed = (case, 7)
            got, tau = kernel_run(graph, start, goal, params, seed)
            try:
                path, series, tau_ref = plan_subpath_ref(graph, start, goal, params, seed)
            except NoPathFound as exc:
                assert got == str(exc)
                outcomes["no_path"] += 1
                continue
            assert got[0] == path and got[1] == series
            assert tau_ref and all(tau[edge(graph, i, j)] == t for (i, j), t in tau_ref.items())
            outcomes["strip" if 1 in shape else "grid"] += 1
            outcomes["corner_goal"] += goal in corner_cells(shape)
        assert outcomes["strip"] >= 50 and outcomes["grid"] >= 100, outcomes
        assert outcomes["corner_goal"] >= 30 and outcomes["no_path"] >= 5, outcomes


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
        # a float seed is not truncated to an int, as a scalar or in a tuple
        for seed in (1.7, (1.7,)):
            with pytest.raises(TypeError):
                plan_subpath(open_grid(), (0, 0), (4, 4), AcoParams(), seed=seed)
