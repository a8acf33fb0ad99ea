"""Probes of the compiled kernel shared by the test modules.

Each probe reads what the stage windows of stages.py hand the kernel (gamma,
from which the kernel computes (1 / step) ** gamma per direction, and the
_CORNER_FACTORS table) or what the kernel leaves behind (the pheromone array, the sub-goal
ranking's constraint families, the scan's ranges), so the checks built on
them test the code the planner runs. The neighbours of a cell come from the
traversable mask (oracles.neighbors_ref), and the step lengths from the cell
size (oracles.step_lengths_ref), not from the package.
"""
import math
from unittest import mock

from antnav import CostWeights, NoPathFound
from antnav.aco import _CORNER_FACTORS, heuristic_weights
from antnav.geometry import DIR_ANGLES, wrap_angle

import stages
from oracles import neighbors_ref, step_lengths_ref
from stages import CandidateSet, GridGraph, perceive, plan_subpath, pointer, rank_candidates


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
    # one draw of n * 8 values gives the values, and leaves the generator in the
    # state, of one scalar draw per edge
    tau = rng.uniform(0.01, 5.0, graph.n * 8)
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


def kernel_transition(tau, graph, cell, tabu, prev, params, *, improved=True):
    """Move distribution {cell: p} of colony.c's walk(): (1 / step) ** gamma per
    direction, from params.gamma and the cell size as colony_run computes it,
    and the _CORNER_FACTORS table (the improved colony's alone), times tau^phi,
    combined as walk() combines them."""
    eta_g = heuristic_weights(step_lengths_ref(graph.cell_size), params.gamma)
    turn = list(_CORNER_FACTORS[prev + 1])
    cid = graph.id_of(cell)
    weights, total = {}, 0.0
    for d, j in neighbors_ref(graph.mask, cell):
        if j in tabu:
            continue
        w = (tau[cid * 8 + d] if params.phi == 1.0 else tau[cid * 8 + d] ** params.phi) \
            * eta_g[d]
        if improved:
            w *= turn[d]
        weights[j] = w
        total += w
    return {c: w / total for c, w in weights.items()}


def kernel_run(graph, start, goal, params, seed, *, improved=True):
    """plan_subpath's result, or its NoPathFound message, and the pheromone
    array it handed the kernel, as the kernel left it."""
    taus = []

    def spy(arr, dtype, shape, writable=False):
        if writable and not taus and shape == (graph.n * 8,):
            taus.append(arr)
        return pointer(arr, dtype, shape, writable)

    with mock.patch.object(stages, "pointer", spy):
        try:
            result = plan_subpath(graph, start, goal, params, seed, improved=improved)
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
        return pointer(arr, dtype, shape, writable)

    candidates = CandidateSet(tuple(((i, 0), tuple(p)) for i, p in enumerate(points)))
    with mock.patch.object(stages, "pointer", spy):
        ranked = rank_candidates(candidates, robot, goal, weights)
    raw, norm = families
    return ranked, raw, norm
