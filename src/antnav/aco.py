"""Ant-colony sub-path planner over 8-connected occupancy grids.

The improved colony (the proposed planner's) adds three mechanisms on top of
the classic transition/update rules: a corner factor in the transition
weights (inverse turn angle), a rank-gated deposit weighted by a
length+corner score, and a per-iteration repair step that hands the
incumbent best path to one straggler ant. The conventional colony (the
conventional-aco planner's) is the classic one: pheromone/heuristic
transitions and length-based deposits from every finished ant, no repair.
The planner kind is the only switch between the two: the kernel's improved
argument, which AcoParams.kernel_args takes from the caller.

The colony runs in the compiled kernel (colony.c, built on first use by
kernel.py), the package's only implementation of its rules: the planner's
cycle (planner.c's plan_cycle) walks the open-direction table of its local
grid (one byte per cell, bit d for a traversable neighbour in direction d)
with them. tests/oracles.py keeps the Python loop they reproduce as the
reference. The kernel computes the heuristic (1 / step) ** gamma per
direction from gamma and the cell size, and reads the corner factors built
here (_CORNER_FACTORS, from corner_heuristic). AcoParams.kernel_args builds
the colony's arguments of the cycle, after the check of heuristic_weights.

Determinism: every ant walk draws from its own RNG stream, the one numpy's
SeedSequence((seed..., iteration, ant index)) seeds, and ants walk serially.
The kernel seeds each stream itself from the seed's uint32 words (see
_entropy_words).
"""
from __future__ import annotations

import functools
import math
import operator

from . import kernel
from .kernel import INT_MAX
from .errors import ColonyWeightError
from .geometry import (Cell, DIR_ANGLES, DIR_OFFSETS, SQRT2, Frozen, check_count,
                       store_counts, wrap_angle)


class AcoParams(Frozen):
    """Tunables of the colony.

    phi/gamma are the pheromone/heuristic exponents, rho the evaporation rate,
    q the deposit constant, delta/zeta the length/corner weights of the path
    score. max_steps caps the steps of one walk; it defaults to, and is
    clamped to, the number of grid cells minus 1, where the tabu list ends
    every walk. elite_cutoff defaults to n_ants - 1 (the worst-ranked ant
    never deposits).
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

    def __post_init__(self):
        store_counts(self, "n_ants", "n_iters", "max_steps", "elite_cutoff")
        for name in ("phi", "gamma", "rho", "q", "delta", "zeta", "tau0"):
            # NaN passes every range check below
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.q <= 0:
            raise ValueError("q must be positive")
        check_count("n_ants", self.n_ants, 2, INT_MAX)
        check_count("n_iters", self.n_iters, 1, INT_MAX)
        if self.delta <= 0 or self.zeta < 0:
            # a finished path without corners must still score above 0
            raise ValueError("delta must be positive and zeta >= 0")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if self.elite_cutoff is not None:
            check_count("elite_cutoff", self.elite_cutoff, 1, self.n_ants - 1)
        if self.max_steps is not None:
            check_count("max_steps", self.max_steps, 1)

    def resolved_elite_cutoff(self) -> int:
        return self.elite_cutoff if self.elite_cutoff is not None else self.n_ants - 1

    def resolved_max_steps(self, n_cells: int) -> int:
        """The step cap of a walk on a grid of n_cells: the tabu list ends every
        walk within n_cells - 1 steps."""
        return min(self.max_steps or n_cells - 1, n_cells - 1)

    def kernel_args(self, cell_size: float, n_cells: int, improved: bool) -> tuple:
        """The colony's arguments of the kernel's colony_run and plan_cycle, gamma to
        elite_cutoff, for the improved or the conventional colony on a grid of
        n_cells cells of cell_size. Raises ValueError as heuristic_weights does."""
        heuristic_weights((cell_size, cell_size * SQRT2), self.gamma)
        return (self.gamma, self.n_iters, self.n_ants, self.resolved_max_steps(n_cells),
                improved, self.phi, self.rho, self.q, self.delta, self.zeta, self.tau0,
                self.resolved_elite_cutoff())


def corner_heuristic(prev_dir: float | None, i: Cell, j: Cell) -> float:
    """Corner factor of the move i -> j: inverse turn angle relative to the
    previous move direction, 1.0 for the first step or a straight continuation."""
    if prev_dir is None:
        return 1.0
    theta = abs(wrap_angle(math.atan2(j[0] - i[0], j[1] - i[1]) - prev_dir))
    return 1.0 if theta == 0.0 else 1.0 / theta


def heuristic_weights(steps, gamma: float) -> list[float]:
    """Heuristic weight (1 / step) ** gamma per step length, as the kernel computes it.

    Raises ValueError unless every weight is positive and finite: a weight
    that underflows to 0 or overflows leaves the roulette without a usable
    total. AcoParams.kernel_args runs it as its check of gamma and the cell size.
    """
    try:
        weights = [(1.0 / step) ** gamma for step in steps]
    except OverflowError:
        weights = [math.inf]
    if not all(0.0 < w < math.inf for w in weights):
        raise ValueError(f"gamma {gamma} makes the heuristic weight (1/step)**gamma "
                         f"0 or infinite for steps {tuple(steps)}")
    return weights


# Corner factor per (previous direction index + 1, next direction index); row
# 0 is "no previous direction". The kernel reads this table, built from
# corner_heuristic, so the two cannot drift apart.
_CORNER_FACTORS = ((1.0,) * 8,) + tuple(
    tuple(corner_heuristic(DIR_ANGLES[p], (0, 0), DIR_OFFSETS[d]) for d in range(8))
    for p in range(8))


@functools.cache
def corner_table():
    """The kernel's double[72] copy of _CORNER_FACTORS, row by row, made once per process."""
    return kernel.module().ffi.new("double[72]", [f for row in _CORNER_FACTORS for f in row])


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


def colony_error(code: int, subgoal: Cell | None, params: AcoParams) -> Exception:
    """The exception of a kernel call that ended with the outcome code NO_MEMORY,
    or with BAD_TOTAL in a colony run toward subgoal (read for BAD_TOTAL alone)."""
    if code == kernel.module().lib.BAD_TOTAL:
        return ColonyWeightError(
            f"a roulette total toward {subgoal} is 0 or not finite: tau0 {params.tau0}, "
            f"phi {params.phi} and gamma {params.gamma} give unusable weights")
    return MemoryError("the kernel could not allocate its buffers")
