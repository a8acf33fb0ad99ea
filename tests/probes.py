"""Probes of the compiled kernel shared by the test modules.

Each probe reads what plan_subpath hands the kernel (its eta_gamma weights,
spread per direction, and the _CORNER_FACTORS table) or what the kernel leaves behind (the pheromone
array, the sub-goal ranking's constraint families, the scan's ranges), so
the checks built on them test the code the planner runs. The neighbours of a cell come from the
traversable mask (oracles.neighbors_ref), not from the package.
"""
import math
from unittest import mock

import numpy as np

from antnav import (AcoMode, CandidateSet, CostWeights, GridGraph, NoPathFound, perceive,
                    plan_subpath, rank_candidates)
from antnav import aco, kernel, subgoal
from antnav.aco import _CORNER_FACTORS, eta_gamma
from antnav.geometry import DIR_ANGLES, wrap_angle

from oracles import neighbors_ref


def kernel_scan(world, pose, radius, n_rays):
    """The kernel's scan, one range per ray, as perceive keeps it: the smallest
    grid the radius allows, since the ranges do not depend on the grid."""
    return perceive(world, pose, radius, n_rays, radius, 1, 0).ranges


def kernel_hits(world, pose, radius, n_rays):
    """The kernel's scan as scan_ref lists it: (d, theta) of each ray that hit, in ray
    order, theta by the kernel's bearing arithmetic."""
    ranges = kernel_scan(world, pose, radius, n_rays)
    return [(d, math.tau * i / n_rays) for i, d in enumerate(ranges.tolist()) if d < math.inf]


def random_field_state(rng, n=6):
    mask = rng.random((n, n)) > 0.2
    cell = (int(rng.integers(1, n - 1)), int(rng.integers(1, n - 1)))
    mask[cell] = True
    graph = GridGraph(mask, float(rng.uniform(0.5, 2.0)))
    tau = np.empty(graph.n * 8)
    for k in range(len(tau)):
        tau[k] = float(rng.uniform(0.01, 5.0))
    nbr_cells = [j for _, j in neighbors_ref(mask, cell)]
    if not nbr_cells:
        return None
    tabu = frozenset(c for c in nbr_cells if rng.random() < 0.3)
    if len(tabu) == len(nbr_cells):
        return None
    prev = float(rng.uniform(-math.pi, math.pi)) if rng.random() > 0.3 else None
    # the kernel knows a previous move by its direction index (-1: none)
    prev = -1 if prev is None else min(range(8),
                                       key=lambda d: abs(wrap_angle(DIR_ANGLES[d] - prev)))
    return tau, graph, cell, tabu, prev


def kernel_transition(tau, graph, cell, tabu, prev, params):
    """Move distribution {cell: p} of colony.c's walk(): the eta_gamma weights
    per direction and the _CORNER_FACTORS table, times tau^phi, combined as
    walk() combines them."""
    eta_g = eta_gamma(graph.steps, params.gamma)
    turn = _CORNER_FACTORS[prev + 1].tolist()
    cid = graph.id_of(cell)
    weights, total = {}, 0.0
    for d, j in neighbors_ref(graph.mask, cell):
        if j in tabu:
            continue
        w = (tau[cid * 8 + d] if params.phi == 1.0 else tau[cid * 8 + d] ** params.phi) \
            * eta_g[d]
        if params.mode is AcoMode.IMPROVED:
            w *= turn[d]
        weights[j] = w
        total += w
    return {c: w / total for c, w in weights.items()}


def kernel_run(graph, start, goal, params, seed):
    """plan_subpath's result, or its NoPathFound message, and the pheromone
    array it handed the kernel, as the kernel left it."""
    taus = []

    def spy(arr, dtype, shape, writable=False):
        if writable and not taus and shape == (graph.n * 8,):
            taus.append(arr)
        return kernel.pointer(arr, dtype, shape, writable)

    with mock.patch.object(aco, "pointer", spy):
        try:
            result = plan_subpath(graph, start, goal, params, seed)
        except NoPathFound as exc:
            result = str(exc)
    return result, taus[0]


def kernel_ranking(points, robot, goal, weights=CostWeights()):
    """rank_candidates over candidates at the world points (cells (i, 0) for
    point i), with the constraint families the kernel wrote: the ranked
    SubGoals, the raw families (3, k) and the normalized ones (3, k), rows
    distance, robot-to-cell bearing, cell-to-goal bearing."""
    families = []

    def spy(arr, dtype, shape, writable=False):
        if writable and len(shape) == 2:
            families.append(arr)
        return kernel.pointer(arr, dtype, shape, writable)

    candidates = CandidateSet(tuple(((i, 0), tuple(p)) for i, p in enumerate(points)))
    with mock.patch.object(subgoal, "pointer", spy):
        ranked = rank_candidates(candidates, robot, goal, weights)
    raw, norm = families
    return ranked, raw, norm
