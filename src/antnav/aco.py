"""Ant-colony sub-path planner over 8-connected occupancy grids.

Improved mode adds three mechanisms on top of the classic transition/update
rules: a corner factor in the transition weights (inverse turn angle), a
rank-gated deposit weighted by a length+corner score, and a per-iteration
repair step that hands the incumbent best path to one straggler ant.
Conventional mode is the classic planner: pheromone/heuristic transitions and
length-based deposits from every finished ant, no repair.

Determinism: every ant walk draws from its own RNG stream, the one numpy's
SeedSequence((seed..., iteration, ant index)) seeds, and ants walk serially.
All streams of one plan_subpath call are seeded in a single vectorized pass
(see substream).
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import DeadEnd, NoBestPathYet, NoPathFound, UnfinishedPath
from .geometry import (Cell, DIR_ANGLES, DIR_INDEX, DIR_IS_DIAGONAL, DIR_OFFSETS,
                       SQRT2, wrap_angle)


class AcoMode(enum.Enum):
    IMPROVED = "improved"
    CONVENTIONAL = "conventional"


@dataclass(frozen=True)
class AcoParams:
    """Tunables of the colony.

    phi/gamma are the pheromone/heuristic exponents, rho the evaporation rate,
    q the deposit constant, delta/zeta the length/corner weights of the path
    score. max_steps defaults to 4 * (number of grid cells); elite_cutoff
    defaults to n_ants - 1 (the worst-ranked ant never deposits).
    """

    phi: float = 1.0
    gamma: float = 5.0
    rho: float = 0.3
    q: float = 1.0
    n_ants: int = 20
    n_iters: int = 50
    delta: float = 0.7
    zeta: float = 0.3
    tau0: float = 1.0
    max_steps: int | None = None
    elite_cutoff: int | None = None
    mode: AcoMode = AcoMode.IMPROVED

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.n_ants < 2:
            raise ValueError("n_ants must be >= 2")
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        if self.delta <= 0 or self.zeta < 0:
            # a finished path without corners must still score above 0
            raise ValueError("delta must be positive and zeta >= 0")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if self.elite_cutoff is not None and not 1 <= self.elite_cutoff <= self.n_ants - 1:
            raise ValueError("elite_cutoff must be in 1..n_ants-1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def resolved_elite_cutoff(self) -> int:
        return self.elite_cutoff if self.elite_cutoff is not None else self.n_ants - 1


class GridGraph:
    """Adjacency table over the traversable cells of a boolean mask.

    For each cell id (row * cols + col) nbrs holds one tuple (neighbor id,
    edge index cid * 8 + d, direction index d, step length) per traversable
    neighbor, in the canonical direction order N, NE, E, SE, S, SW, W, NW;
    cells holds the (row, col) of every id and steps the step length per
    direction index.
    """

    __slots__ = ("rows", "cols", "n", "cell_size", "mask", "nbrs", "cells", "steps")

    def __init__(self, mask: np.ndarray, cell_size: float):
        mask = np.asarray(mask, dtype=bool)
        self.rows, self.cols = mask.shape
        self.n = self.rows * self.cols
        self.cell_size = float(cell_size)
        self.mask = mask
        self.steps = steps = tuple(self.cell_size * SQRT2 if diag else self.cell_size
                                   for diag in DIR_IS_DIAGONAL)
        self.cells = tuple(divmod(cid, self.cols) for cid in range(self.n))
        free = mask.tolist()
        nbrs: list[tuple] = []
        for cid, (r, c) in enumerate(self.cells):
            row = []
            if free[r][c]:
                for d, (dr, dc) in enumerate(DIR_OFFSETS):
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < self.rows and 0 <= nc < self.cols and free[nr][nc]:
                        row.append((nr * self.cols + nc, cid * 8 + d, d, steps[d]))
            nbrs.append(tuple(row))
        self.nbrs = tuple(nbrs)

    def id_of(self, cell: Cell) -> int:
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"cell {cell} outside {self.rows}x{self.cols} grid")
        return r * self.cols + c

    def cell_of(self, cid: int) -> Cell:
        return divmod(cid, self.cols)

    def traversable(self, cell: Cell) -> bool:
        return bool(self.mask[cell])


class PheromoneField:
    """Strictly positive pheromone per directed edge of a GridGraph.

    tau is a float64 array indexed by cid * 8 + direction index.
    """

    __slots__ = ("graph", "tau")

    def __init__(self, graph: GridGraph, tau0: float):
        if tau0 <= 0:
            raise ValueError("tau0 must be positive")
        self.graph = graph
        self.tau = np.full(graph.n * 8, float(tau0))

    def get(self, i: Cell, j: Cell) -> float:
        """Pheromone on the directed edge i -> j; KeyError when no such edge exists."""
        delta = (j[0] - i[0], j[1] - i[1])
        d = DIR_INDEX.get(delta)
        if d is None or not (self.graph.traversable(i) and self.graph.traversable(j)):
            raise KeyError(f"no edge {i} -> {j}")
        return float(self.tau[self.graph.id_of(i) * 8 + d])

    def items(self):
        """Iterate ((i, j), tau) over the directed edges of the free graph."""
        graph = self.graph
        tau = self.tau.tolist()
        for cid in range(graph.n):
            i = graph.cell_of(cid)
            for nid, e, _d, _step in graph.nbrs[cid]:
                yield (i, graph.cell_of(nid)), tau[e]


@dataclass(frozen=True)
class AntState:
    """Walk state used by the public transition-probability function."""

    cell: Cell
    tabu: frozenset[Cell]
    prev_dir: float | None  # world-frame angle of the previous move, None on the first step


@dataclass(frozen=True)
class AntPath:
    """One constructed walk. Length sums straight/diagonal step costs; corners count direction changes."""

    cells: tuple[Cell, ...]
    length: float
    corners: int
    reached: bool
    dirs: tuple[int, ...] = ()  # direction index per step; used for edge deposits


def heuristic(i: Cell, j: Cell, cell_size: float = 1.0) -> float:
    """Inverse Euclidean distance between the centers of two distinct cells."""
    d = math.hypot((j[0] - i[0]) * cell_size, (j[1] - i[1]) * cell_size)
    return 1.0 / d


def corner_heuristic(prev_dir: float | None, i: Cell, j: Cell) -> float:
    """Corner factor of the move i -> j: inverse turn angle relative to the
    previous move direction, 1.0 for the first step or a straight continuation."""
    if prev_dir is None:
        return 1.0
    theta = abs(wrap_angle(math.atan2(j[0] - i[0], j[1] - i[1]) - prev_dir))
    return 1.0 if theta == 0.0 else 1.0 / theta


# Corner-factor lookup per (previous direction index + 1, next direction index);
# row 0 is "no previous direction". Built from corner_heuristic so the fast
# walker and the public function cannot drift apart. Conventional mode walks
# with the all-ones table: multiplying by 1.0 leaves every weight's bits alone.
_VTAB_TURN: tuple[tuple[float, ...], ...] = tuple(
    [(1.0,) * 8]
    + [tuple(corner_heuristic(DIR_ANGLES[p], (0, 0), DIR_OFFSETS[d]) for d in range(8))
       for p in range(8)]
)
_VTAB_FLAT: tuple[tuple[float, ...], ...] = ((1.0,) * 8,) * 9


def transition_probabilities(field: PheromoneField, state: AntState,
                             params: AcoParams) -> list[tuple[Cell, float]]:
    """Move distribution over feasible neighbors, in canonical direction order.

    Weight of a neighbor: the walker's tau^phi * eta^gamma edge weight (times
    the corner factor in improved mode); weights are normalized to sum to 1.
    Raises DeadEnd when no feasible neighbor remains.
    """
    graph = field.graph
    cid = graph.id_of(state.cell)
    improved = params.mode is AcoMode.IMPROVED
    eta_g, _vtab = _colony_tables(graph, params)
    weights = _edge_weights(field.tau, params.phi, eta_g)
    out: list[tuple[Cell, float]] = []
    total = 0.0
    for nid, e, _d, _step in graph.nbrs[cid]:
        ncell = graph.cell_of(nid)
        if ncell in state.tabu:
            continue
        w = weights[e]
        if improved:
            w *= corner_heuristic(state.prev_dir, state.cell, ncell)
        out.append((ncell, w))
        total += w
    if not out:
        raise DeadEnd(f"no feasible neighbor from {state.cell}")
    return [(cell, w / total) for cell, w in out]


def roulette_select(dist: list[tuple[Cell, float]], rng_draw: float) -> Cell:
    """Inverse-CDF pick from a distribution listed in canonical neighbor order."""
    acc = 0.0
    for cell, p in dist:
        acc += p
        if rng_draw < acc:
            return cell
    return dist[-1][0]  # guard against cumulative rounding just below 1


def score(path: AntPath, params: AcoParams) -> float:
    """The mode's path objective, lower is better; finished paths only.

    Improved mode: delta * length + zeta * corners. Conventional mode: length.
    """
    if not path.reached:
        raise UnfinishedPath("cannot score a path that never reached the sub-goal")
    if params.mode is AcoMode.CONVENTIONAL:
        return path.length
    return params.delta * path.length + params.zeta * path.corners


def update_pheromone(field: PheromoneField, paths: list[AntPath],
                     params: AcoParams) -> None:
    """Evaporate every edge of field.tau in place, then deposit.

    Every finished ant deposits q/score on each traversed edge, in path
    order. Improved mode first ranks them ascending by score (stable on
    ties) and keeps ranks up to elite_cutoff. Unfinished ants never deposit.
    """
    field.tau *= 1.0 - params.rho
    scored = [(score(p, params), p) for p in paths if p.reached]
    if params.mode is AcoMode.IMPROVED:
        scored = sorted(scored, key=operator.itemgetter(0))[:params.resolved_elite_cutoff()]
    cols = field.graph.cols
    edges: list[int] = []
    amounts: list[float] = []
    for cost, path in scored:
        edges += [(r * cols + c) * 8 + d for (r, c), d in zip(path.cells, path.dirs)]
        amounts += [params.q / cost] * len(path.dirs)
    np.add.at(field.tau, edges, amounts)  # in list order, so repeated edges sum as a loop would


def repair(paths: list[AntPath], best_so_far: AntPath | None,
           rng: np.random.Generator) -> list[AntPath]:
    """Replace one ant's path with the incumbent best.

    The replaced ant is drawn uniformly from the unfinished ants when any
    exist, otherwise from all ants. Raises NoBestPathYet without an incumbent.
    """
    if best_so_far is None:
        raise NoBestPathYet("repair needs a best path from a previous iteration")
    unfinished = [k for k, p in enumerate(paths) if not p.reached]
    if unfinished:
        s = unfinished[int(rng.integers(len(unfinished)))]
    else:
        s = int(rng.integers(len(paths)))
    out = list(paths)
    out[s] = best_so_far
    return out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe): its constants for 32-bit words and a pool of four words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _entropy_words(key) -> list[int]:
    """The uint32 words SeedSequence reads from a tuple of non-negative ints:
    each int split little-endian into as many words as it needs, 0 as one word."""
    words: list[int] = []
    for v in key:
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"seed key entries must be non-negative, got {v}")
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant through count hash calls, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(4, np.uint64) for many keys at once.

    entropy[i, j] is entropy word i of key j (all keys have one word count).
    Returns one row of four uint64 words per key. The hash constant runs
    through the same sequence for every key, and the calls that numpy's
    loops make on distinct pool words with consecutive constants are
    independent, so each batch of them is one array operation.
    """
    n_words, n_keys = entropy.shape
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(n_words, _POOL_SIZE))
    used = 0

    def hashmix(values: np.ndarray) -> np.ndarray:
        # the next len(values) hash calls, in order
        nonlocal used
        k = len(values)
        v = (values ^ a[used:used + k]) * a[used + 1:used + k + 1]
        used += k
        return v ^ (v >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> _XSHIFT)

    pool = np.zeros((_POOL_SIZE, n_keys), dtype=np.uint32)
    pool[:n_words] = entropy[:_POOL_SIZE]
    pool = hashmix(pool)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * len(dst)]))
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(np.broadcast_to(word, pool.shape)))

    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    v = (pool[list(range(_POOL_SIZE)) * 2] ^ b[:-1]) * b[1:]
    v ^= v >> _XSHIFT
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A SeedSequence output computed ahead: PCG64 asks for 4 uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or dtype is not np.uint64:
            raise ValueError("only the 4 x uint64 state of PCG64 was computed")
        return self.words


def substream(key: tuple[int, ...], n_iters: int,
              n_streams: int) -> list[list[np.random.Generator]]:
    """RNG streams of one colony run, seeded in one vectorized pass.

    key holds non-negative ints. streams[n - 1][k] draws exactly what
    np.random.default_rng(np.random.SeedSequence((*key, n, k))) draws, for
    n = 1..n_iters and k = 0..n_streams - 1.
    """
    prefix = _entropy_words(key)
    entropy = np.empty((len(prefix) + 2, n_iters * n_streams), dtype=np.uint32)
    entropy[:-2] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-2] = np.repeat(np.arange(1, n_iters + 1), n_streams)
    entropy[-1] = np.tile(np.arange(n_streams), n_iters)
    gens = [Generator(PCG64(_SeedState(words))) for words in _seed_states(entropy)]
    return [gens[i:i + n_streams] for i in range(0, len(gens), n_streams)]


_DRAW_BLOCK = 16  # uniform draws fetched per call; walks average ~8 steps


def _colony_tables(graph: GridGraph, params: AcoParams):
    """Per-call walk tables: eta^gamma per directed edge index (cid * 8 + d)
    and the corner-factor table of the mode."""
    eta_g = [(1.0 / step) ** params.gamma for step in graph.steps]
    vtab = _VTAB_TURN if params.mode is AcoMode.IMPROVED else _VTAB_FLAT
    return np.tile(eta_g, graph.n), vtab


def _edge_weights(tau: np.ndarray, phi: float, eta_g: np.ndarray) -> list[float]:
    """tau^phi * eta^gamma per directed edge; tau only changes between iterations.

    For phi != 1 the power is Python's float ** per edge.
    """
    if phi != 1.0:
        tau = np.array([t ** phi for t in tau.tolist()])
    return (tau * eta_g).tolist()


def _construct(graph: GridGraph, weights: list[float],
               vtab: tuple[tuple[float, ...], ...], start_id: int, goal_id: int,
               max_steps: int, gen: np.random.Generator) -> AntPath:
    """Roulette walk of a single ant with a tabu list and a step cap.

    Each step is roulette_select(transition_probabilities(...), draw) with
    the same arithmetic: weights[edge] * corner factor, then the cumulative
    sum of weight / total in canonical neighbor order.
    """
    nbrs = graph.nbrs
    tabu = bytearray(graph.n)
    tabu[start_id] = 1
    pos = start_id
    prev = -1
    cells = [start_id]
    dirs: list[int] = []
    length = 0.0
    corners = 0
    reached = False
    draws: list[float] = []
    used = 0
    for _ in range(max_steps):
        turn = vtab[prev + 1]
        cand: list[tuple[float, int, int, float]] = []
        total = 0.0
        for nid, e, d, step in nbrs[pos]:
            if not tabu[nid]:
                w = weights[e] * turn[d]
                cand.append((w, nid, d, step))
                total += w
        if not cand:
            break  # dead end: the ant is terminated unfinished
        if used == len(draws):
            draws = gen.random(_DRAW_BLOCK).tolist()
            used = 0
        draw = draws[used]
        used += 1
        acc = 0.0
        for w, nid, d, step in cand:
            acc += w / total
            if draw < acc:
                break
        # without a break the loop leaves the last candidate picked, the
        # guard against a cumulative sum rounding to just below 1
        if d != prev and prev >= 0:
            corners += 1
        length += step
        cells.append(nid)
        dirs.append(d)
        tabu[nid] = 1
        prev = d
        pos = nid
        if pos == goal_id:
            reached = True
            break
    return AntPath(tuple(map(graph.cells.__getitem__, cells)), length, corners,
                   reached, tuple(dirs))


def plan_subpath(graph: GridGraph, start: Cell, subgoal: Cell, params: AcoParams,
                 seed) -> tuple[AntPath, list[float]]:
    """Plan an 8-connected path from start to subgoal over the graph's traversable cells.

    Runs n_iters iterations of {construct n_ants walks, repair (improved mode,
    once an incumbent exists), update pheromone} and returns the best
    finished path by the mode's score plus the best-score-so-far per
    iteration. Iterations before the first finisher
    record inf in the series; three consecutive all-fail iterations before any
    finisher raise NoPathFound, as does finishing all iterations without one.

    seed is an int or tuple of non-negative ints; ant k of iteration n walks
    on the stream of key (seed..., n, k) and repair draws from (seed..., n,
    n_ants).
    """
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    if start == subgoal:
        raise ValueError("start and subgoal must differ")
    if not graph.traversable(start):
        raise ValueError(f"start cell {start} is not traversable")
    if not graph.traversable(subgoal):
        raise ValueError(f"subgoal cell {subgoal} is not traversable")
    start_id = graph.id_of(start)
    goal_id = graph.id_of(subgoal)

    improved = params.mode is AcoMode.IMPROVED
    max_steps = params.max_steps if params.max_steps is not None else 4 * graph.n
    eta_g, vtab = _colony_tables(graph, params)
    m = params.n_ants
    streams = substream(key, params.n_iters, m + 1)

    field = PheromoneField(graph, params.tau0)
    best: AntPath | None = None
    best_cost = math.inf
    series: list[float] = []
    fail_streak = 0
    for n in range(1, params.n_iters + 1):
        gens = streams[n - 1]
        weights = _edge_weights(field.tau, params.phi, eta_g)
        paths = [_construct(graph, weights, vtab, start_id, goal_id, max_steps, gens[k])
                 for k in range(m)]

        if best is None and not any(p.reached for p in paths):
            # no incumbent yet: skip repair/update and retry construction.
            # The improved loop gives up after three consecutive misses
            # (its repair stage needs an incumbent); the conventional
            # baseline has no such stage and runs its full budget.
            fail_streak += 1
            if improved and fail_streak >= 3:
                raise NoPathFound(
                    f"no ant reached {subgoal} in {fail_streak} consecutive iterations")
            series.append(math.inf)
            continue

        if improved and best is not None:
            paths = repair(paths, best, gens[m])

        update_pheromone(field, paths, params)

        for p in paths:
            if p.reached and (cost := score(p, params)) < best_cost:
                best, best_cost = p, cost
        series.append(best_cost)

    if best is None:
        raise NoPathFound(f"no ant reached {subgoal} in {params.n_iters} iterations")
    return best, series
