"""Independent brute-force reimplementations used as oracles by the test suite.

Everything here is deliberately written from scratch against the math, not by
calling into the package, so the implementations under test are checked by a
separate route. From antnav only types, constants and the sequential sum are
imported, and from stages.py the graph and path types: the colony reference,
the Python loop the compiled kernel replaced, is built from the rule oracles
above, and its neighbours come from the traversable mask and DIR_OFFSETS
alone. The reference planning cycle at
the end chains the perception, sub-goal and colony references.
"""
import heapq
import math

import numpy as np

from antnav import NoPathFound, PlannerKind
from antnav.geometry import DIR_ANGLES, DIR_OFFSETS, sequential_sum

from stages import AntPath, GridGraph

SQRT2 = math.sqrt(2.0)


def wrap_ref(a):
    while a <= -math.pi:
        a += 2.0 * math.pi
    while a > math.pi:
        a -= 2.0 * math.pi
    return a


def polar_ref(x_r, y_r, psi, d, theta):
    return (x_r + d * math.cos(psi - theta), y_r + d * math.sin(psi - theta))


def raw_constraints_ref(robot_xy_psi, cell, goal):
    xr, yr, psi = robot_xy_psi
    # np.hypot, not math.hypot or the sqrt of a sum of squares: both are libm's
    # hypot, the kernel's distance, so the reference cycle can compare costs by bits
    ds = float(np.hypot(goal[0] - cell[0], goal[1] - cell[1]))
    t1 = abs(wrap_ref(math.atan2(cell[1] - yr, cell[0] - xr) - psi))
    t2 = abs(wrap_ref(math.atan2(goal[1] - cell[1], goal[0] - cell[0]) - psi))
    return ds, t1, t2


def normalize_ref(values):
    total = 0.0
    for v in values:
        total += v
    if total == 0.0 or total == math.inf:  # a far enough goal's distances overflow
        return [1.0 / len(values)] * len(values)
    return [v / total for v in values]


def heuristic_ref(i, j, cell_size):
    return 1.0 / math.sqrt(((j[0] - i[0]) * cell_size) ** 2 + ((j[1] - i[1]) * cell_size) ** 2)


def corner_ref(prev_dir, i, j):
    if prev_dir is None:
        return 1.0
    move = math.atan2(j[0] - i[0], j[1] - i[1])
    theta = abs(wrap_ref(move - prev_dir))
    return 1.0 if theta == 0.0 else 1.0 / theta


def score_ref(length, corners, delta, zeta):
    return delta * length + zeta * corners


def transition_ref(tau, cols, neighbors, tabu, prev_dir, cell, phi, gamma, cell_size,
                   improved):
    """Explicit term-by-term quotient over the feasible neighbor list.

    tau holds the pheromone of the edge from cell (r, c) in direction d (an
    index into DIR_OFFSETS) at (r * cols + c) * 8 + d.
    """
    weights = []
    kept = []
    for j in neighbors:
        if j in tabu:
            continue
        d = DIR_OFFSETS.index((j[0] - cell[0], j[1] - cell[1]))
        w = tau[(cell[0] * cols + cell[1]) * 8 + d] ** phi \
            * heuristic_ref(cell, j, cell_size) ** gamma
        if improved:
            w *= corner_ref(prev_dir, cell, j)
        weights.append(w)
        kept.append(j)
    total = sequential_sum(weights)
    return {j: w / total for j, w in zip(kept, weights)}


def cost_ref(path, params, improved):
    """The colony's objective of a finished path: its score in the improved colony,
    its length in the conventional one."""
    if not improved:
        return path.length
    return score_ref(path.length, path.corners, params.delta, params.zeta)


def update_pheromone_ref(tau, paths, params, improved):
    """Dict-based pheromone update: evaporate every edge, then deposit q / cost
    along each finished path, in path order; the improved colony deposits only
    for the elite_cutoff lowest-cost paths (stable on ties).

    tau: dict edge->value (directed edges (i, j) of cell tuples).
    paths: AntPaths; params: AcoParams.
    """
    new = {e: v * (1.0 - params.rho) for e, v in tau.items()}
    finished = [p for p in paths if p.reached]
    if improved:
        elite = params.elite_cutoff if params.elite_cutoff is not None else params.n_ants - 1
        finished = sorted(finished, key=lambda p: cost_ref(p, params, improved))[:elite]
    for p in finished:
        amount = params.q / cost_ref(p, params, improved)
        for i, j in zip(p.cells, p.cells[1:]):
            new[(i, j)] += amount
    return new


def dijkstra_ref(mask, start, goal, cell_size=1.0):
    """8-connected shortest path length over a boolean traversability mask."""
    rows, cols = mask.shape
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, math.inf):
            continue
        r, c = cell
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols and mask[nr, nc]:
                    step = cell_size * (SQRT2 if dr != 0 and dc != 0 else 1.0)
                    nd = d + step
                    if nd < dist.get((nr, nc), math.inf):
                        dist[(nr, nc)] = nd
                        heapq.heappush(heap, (nd, (nr, nc)))
    return None


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- perception: the per-ray and per-cell loops the array code replaced ---
# Local cell states, as in antnav.grid.CellState.
FREE, OCCUPIED, INFLATED, ROBOT = 0, 1, 2, 3


def cast_ray_ref(occ, cell_size, x0, y0, angle, radius):
    """One ray, cell by cell (x first on ties): (d, (row, col)) of the first
    occupied cell crossed with real length, d the midpoint of the segment
    inside it clipped to the radius; None for a ray with no hit."""
    rows, cols = occ.shape
    dx, dy = math.cos(angle), math.sin(angle)
    c = int(math.floor(x0 / cell_size))
    r = int(math.floor(y0 / cell_size))
    inf = math.inf
    graze_tol = 1e-9 * cell_size
    if dx > 0:
        step_c, t_max_x, t_delta_x = 1, ((c + 1) * cell_size - x0) / dx, cell_size / dx
    elif dx < 0:
        step_c, t_max_x, t_delta_x = -1, (c * cell_size - x0) / dx, -cell_size / dx
    else:
        step_c, t_max_x, t_delta_x = 0, inf, inf
    if dy > 0:
        step_r, t_max_y, t_delta_y = 1, ((r + 1) * cell_size - y0) / dy, cell_size / dy
    elif dy < 0:
        step_r, t_max_y, t_delta_y = -1, (r * cell_size - y0) / dy, -cell_size / dy
    else:
        step_r, t_max_y, t_delta_y = 0, inf, inf
    while True:
        if t_max_x <= t_max_y:
            t_entry = t_max_x
            t_max_x += t_delta_x
            c += step_c
        else:
            t_entry = t_max_y
            t_max_y += t_delta_y
            r += step_r
        if t_entry > radius:
            return None
        if not (0 <= r < rows and 0 <= c < cols):
            return None
        t_exit = min(t_max_x, t_max_y)
        if t_exit - t_entry > graze_tol and occ[r, c]:
            return min(0.5 * (t_entry + t_exit), radius), (r, c)


def scan_ref(occ, cell_size, x0, y0, psi, radius, n_rays):
    """[(d, theta, hit cell)] of every returned ray, in ray order."""
    out = []
    for k in range(n_rays):
        theta = math.tau * k / n_rays
        hit = cast_ray_ref(occ, cell_size, x0, y0, psi - theta, radius)
        if hit is not None:
            out.append((hit[0], theta, hit[1]))
    return out


def without_cells(samples):
    """[(d, theta)] of scan_ref's samples: what the kernel's ranges tell of the scan."""
    return [(d, theta) for d, theta, _ in samples]


def local_grid_ref(samples, world_cell_size, origin, cell_size, h, rings):
    """Mark the local cell around origin (x, y, psi) that holds the center of
    each sample's hit cell, then inflate."""
    ox, oy, _ = origin
    side = 2 * h + 1
    cells = np.full((side, side), FREE, dtype=np.int8)
    for _, _, (hr, hc) in samples:
        c = h + int(math.floor(((hc + 0.5) * world_cell_size - ox) / cell_size + 0.5))
        r = h + int(math.floor(((hr + 0.5) * world_cell_size - oy) / cell_size + 0.5))
        if 0 <= r < side and 0 <= c < side and (r, c) != (h, h):
            cells[r, c] = OCCUPIED
    occupied = [(r, c) for r in range(side) for c in range(side) if cells[r, c] == OCCUPIED]
    for r, c in occupied:
        for rr in range(max(0, r - rings), min(side, r + rings + 1)):
            for cc in range(max(0, c - rings), min(side, c + rings + 1)):
                if cells[rr, cc] == FREE:
                    cells[rr, cc] = INFLATED
    cells[h, h] = ROBOT
    return cells


def cell_center_ref(origin, cell_size, h, r, c):
    return (origin[0] + (c - h) * cell_size, origin[1] + (r - h) * cell_size)


def occlude_ref(cells, samples, n_rays, origin, cell_size, h):
    """Free cells behind a closer hit on their own ray become inflated."""
    cells = cells.copy()
    sector = math.tau / n_rays
    hit_by_ray = {}
    for d, theta, _ in samples:
        hit_by_ray[int(round(theta / sector)) % n_rays] = d
    margin = 0.5 * SQRT2 * cell_size
    side = 2 * h + 1
    for r in range(side):
        for c in range(side):
            if cells[r, c] != FREE:
                continue
            wx, wy = cell_center_ref(origin, cell_size, h, r, c)
            dx, dy = wx - origin[0], wy - origin[1]
            d = float(np.hypot(dx, dy))
            if d <= cell_size:
                continue
            theta = (origin[2] - math.atan2(dy, dx)) % math.tau
            hit = hit_by_ray.get(int(round(theta / sector)) % n_rays)
            if hit is not None and hit < d - margin:
                cells[r, c] = INFLATED
    return cells


def clamp_ref(cells, origin, cell_size, h, world_shape, world_cell_size):
    """Cells whose center lies outside the world become occupied."""
    cells = cells.copy()
    rows, cols = world_shape
    side = 2 * h + 1
    for r in range(side):
        for c in range(side):
            wx, wy = cell_center_ref(origin, cell_size, h, r, c)
            wr = int(math.floor(wy / world_cell_size))
            wc = int(math.floor(wx / world_cell_size))
            if not (0 <= wr < rows and 0 <= wc < cols):
                cells[r, c] = OCCUPIED
    return cells


def candidates_ref(cells, origin, cell_size, h):
    """Free cells on the outer ring or 8-adjacent to a blocked cell, row-major."""
    side = 2 * h + 1
    out = []
    for r in range(side):
        for c in range(side):
            if cells[r, c] != FREE:
                continue
            marginal = r in (0, side - 1) or c in (0, side - 1) or any(
                cells[r + dr, c + dc] in (OCCUPIED, INFLATED)
                for dr in (-1, 0, 1) for dc in (-1, 0, 1))
            if marginal:
                out.append(((r, c), cell_center_ref(origin, cell_size, h, r, c)))
    return out


def reachable_ref(mask, start):
    """Cells 8-connected to start through traversable cells of a boolean mask;
    start always counts."""
    rows, cols = len(mask), len(mask[0])
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for nr in (r - 1, r, r + 1):
            for nc in (c - 1, c, c + 1):
                if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in seen \
                        and mask[nr][nc]:
                    seen.add((nr, nc))
                    stack.append((nr, nc))
    return seen


# --- APF: the Python step planner.c's apf_step replaced ---

def potential_ref(point, goal, obstacles, k_att, k_rep, d0):
    """Attractive plus repulsive potential at point; obstacles are world points."""
    dist_goal_sq = (point[0] - goal[0]) ** 2 + (point[1] - goal[1]) ** 2
    u = 0.5 * k_att * dist_goal_sq
    if obstacles:
        d = min(float(np.hypot(point[0] - ox, point[1] - oy)) for ox, oy in obstacles)
        if d < d0:
            u += 0.5 * k_rep * (1.0 / d - 1.0 / d0) ** 2
    return u


def apf_step_ref(cells, origin, cell_size, h, goal, k_att, k_rep, d0):
    """The free 8-neighbor (row, col) of the center with the lowest potential, the
    first row-major on ties, or None for a local minimum: no free neighbor, or none
    below the potential at origin. Obstacles are the occupied cell centers."""
    side = 2 * h + 1
    obstacles = [cell_center_ref(origin, cell_size, h, r, c)
                 for r in range(side) for c in range(side) if cells[r][c] == OCCUPIED]
    here = potential_ref(origin, goal, obstacles, k_att, k_rep, d0)
    best, best_u = None, math.inf
    for r in range(h - 1, h + 2):
        for c in range(h - 1, h + 2):
            if (r, c) == (h, h) or cells[r][c] not in (FREE, ROBOT):
                continue
            u = potential_ref(cell_center_ref(origin, cell_size, h, r, c), goal, obstacles,
                              k_att, k_rep, d0)
            if u < best_u:
                best, best_u = (r, c), u
    return None if best is None or best_u >= here else best


# --- colony: the Python walker and plan_subpath loop the compiled kernel replaced ---

def neighbors_ref(mask, cell):
    """(direction index, cell) of each 8-neighbor of cell on a boolean mask, in
    DIR_OFFSETS order, when both cells are traversable; none for a blocked cell."""
    rows, cols = len(mask), len(mask[0])
    r, c = cell
    if not mask[r][c]:
        return []
    return [(d, (r + dr, c + dc)) for d, (dr, dc) in enumerate(DIR_OFFSETS)
            if 0 <= r + dr < rows and 0 <= c + dc < cols and mask[r + dr][c + dc]]


def step_lengths_ref(cell_size):
    """Step length per direction index: cell_size straight, cell_size * sqrt 2 diagonal."""
    return tuple(cell_size * SQRT2 if dr != 0 and dc != 0 else cell_size
                 for dr, dc in DIR_OFFSETS)


def neighbor_table_ref(graph):
    """Per cell id: (neighbor id, edge index, direction index, step) in canonical
    order, from the graph's mask and cell size."""
    mask = graph.mask.tolist()
    cols = len(mask[0])
    steps = step_lengths_ref(graph.cell_size)
    return [[(nr * cols + nc, cid * 8 + d, d, steps[d])
             for d, (nr, nc) in neighbors_ref(mask, divmod(cid, cols))]
            for cid in range(len(mask) * cols)]


def colony_tables_ref(graph, params, improved):
    """eta^gamma per directed edge index and the corner-factor table of the improved
    or the conventional colony: row p + 1 for previous direction p, row 0 for the
    first step."""
    eta_g = [(1.0 / step) ** params.gamma for step in step_lengths_ref(graph.cell_size)]
    if improved:
        vtab = [(1.0,) * 8] + [tuple(corner_ref(DIR_ANGLES[p], (0, 0), DIR_OFFSETS[d])
                                     for d in range(8)) for p in range(8)]
    else:
        vtab = [(1.0,) * 8] * 9
    return np.tile(eta_g, graph.n), vtab


def edge_weights_ref(tau, phi, eta_g):
    """tau^phi * eta^gamma per directed edge, Python float ** for phi != 1."""
    if phi != 1.0:
        tau = np.array([t ** phi for t in tau.tolist()])
    return (tau * eta_g).tolist()


def construct_ref(graph, nbrs, weights, vtab, start_id, goal_id, max_steps, gen, stats=None):
    """Roulette walk of one ant with a tabu list and a step cap.

    Each step: weights[edge] * corner factor, then the cumulative sum of
    weight / total in canonical neighbor order, the last candidate when the
    sum never exceeds the draw. stats, a Counter, counts how walks end.
    """
    tabu = bytearray(graph.n)
    tabu[start_id] = 1
    pos, prev = start_id, -1
    cells, dirs = [start_id], []
    length, corners, reached = 0.0, 0, False
    end = "step_cap"
    for _ in range(max_steps):
        turn = vtab[prev + 1]
        cand, total = [], 0.0
        for nid, e, d, step in nbrs[pos]:
            if not tabu[nid]:
                w = weights[e] * turn[d]
                cand.append((w, nid, d, step))
                total += w
        if not cand:
            end = "dead_end"
            break
        draw = float(gen.random())
        acc = 0.0
        for w, nid, d, step in cand:
            acc += w / total
            if draw < acc:
                break
        if d != prev and prev >= 0:
            corners += 1
        length += step
        cells.append(nid)
        dirs.append(d)
        tabu[nid] = 1
        prev, pos = d, nid
        if pos == goal_id:
            reached, end = True, "reached"
            break
    if stats is not None:
        stats[end] += 1
    return AntPath(tuple(graph.cell_of(c) for c in cells), length, corners, reached,
                   tuple(dirs))


def plan_subpath_ref(graph, start, subgoal, params, seed, stats=None, *, improved=True):
    """plan_subpath as a Python loop over numpy generators:
    ant k of iteration n walks on default_rng(SeedSequence((*key, n, k))),
    repair draws from stream k = n_ants. Returns the best path, the series
    and the final pheromone {(i, j): tau} of every directed edge. stats, a
    Counter, also counts repairs with and without unfinished ants."""
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    max_steps = min(params.max_steps or graph.n - 1, graph.n - 1)
    eta_g, vtab = colony_tables_ref(graph, params, improved)
    nbrs = neighbor_table_ref(graph)
    edges = [(e, (graph.cell_of(cid), graph.cell_of(nid)))
             for cid, row in enumerate(nbrs) for nid, e, _, _ in row]
    start_id, goal_id = graph.id_of(start), graph.id_of(subgoal)
    m = params.n_ants

    tau = {edge: float(params.tau0) for _, edge in edges}
    best, best_cost = None, math.inf
    series = []
    fail_streak = 0
    for n in range(1, params.n_iters + 1):
        gens = [np.random.default_rng(np.random.SeedSequence((*key, n, k)))
                for k in range(m + 1)]
        tau_by_index = np.zeros(graph.n * 8)
        for e, edge in edges:
            tau_by_index[e] = tau[edge]
        weights = edge_weights_ref(tau_by_index, params.phi, eta_g)
        paths = [construct_ref(graph, nbrs, weights, vtab, start_id, goal_id, max_steps,
                               gens[k], stats) for k in range(m)]
        if best is None and not any(p.reached for p in paths):
            fail_streak += 1
            if improved and fail_streak >= 3:
                raise NoPathFound(
                    f"no ant reached {subgoal} in {fail_streak} consecutive iterations")
            series.append(math.inf)
            continue
        if improved and best is not None:
            # repair: the incumbent replaces a uniformly drawn unfinished ant,
            # or any ant when all finished
            unfinished = [k for k, p in enumerate(paths) if not p.reached]
            if stats is not None:
                stats["repair_unfinished" if unfinished else "repair_all_finished"] += 1
            pool = unfinished or range(m)
            paths[pool[int(gens[m].integers(len(pool)))]] = best
        tau = update_pheromone_ref(tau, paths, params, improved)
        for p in paths:
            if p.reached and (cost := cost_ref(p, params, improved)) < best_cost:
                best, best_cost = p, cost
        series.append(best_cost)
    if best is None:
        raise NoPathFound(f"no ant reached {subgoal} in {params.n_iters} iterations")
    return best, series, tau


# --- planning cycle: the loops planner.c's plan_cycle replaced ---

def plan_cycle_ref(occ, world_cell_size, pose, goal, config, seed, cycle):
    """One cycle of the proposed or conventional-aco planner for a robot at
    pose (x, y, psi) on the occupancy grid occ: ("stuck", None, (), ()) or
    ("ok", sub-goal cell, path cells, colony series).

    The trials are the goal cell when it is reachable and not the robot's,
    then the reachable candidates by (cost, row-major cell); trial a plans
    with seed (seed, cycle, a). Each constraint family is normalized over
    every candidate, reachable or not.
    """
    stuck = ("stuck", None, (), ())
    x0, y0, psi = pose
    cs, h, n_rays = config.cell_size, config.half_extent, config.n_rays
    side = 2 * h + 1
    samples = scan_ref(occ, world_cell_size, x0, y0, psi, config.resolved_lidar_radius(), n_rays)
    cells = local_grid_ref(samples, world_cell_size, pose, cs, h, config.inflation_rings)
    cells = occlude_ref(cells, samples, n_rays, pose, cs, h)
    cells = clamp_ref(cells, pose, cs, h, occ.shape, world_cell_size)
    candidates = candidates_ref(cells, pose, cs, h)
    if not candidates:
        return stuck
    mask = [[state in (FREE, ROBOT) for state in row] for row in cells.tolist()]
    reach = reachable_ref(mask, (h, h))
    goal_cell = (h + math.floor((goal[1] - y0) / cs + 0.5),
                 h + math.floor((goal[0] - x0) / cs + 0.5))
    goal_inside = goal_cell in reach
    if not goal_inside and not any(r in (0, side - 1) or c in (0, side - 1)
                                   for r, c in reach):
        return stuck  # a closed pocket without the goal

    raw = [raw_constraints_ref(pose, world, goal) for _, world in candidates]
    nds, nt1, nt2 = (normalize_ref([t[f] for t in raw]) for f in range(3))
    w = config.weights
    cost = [w.beta * nt1[i] + w.alpha * nds[i] + w.omega * nt2[i]
            for i in range(len(candidates))]
    ranked = sorted(range(len(candidates)), key=lambda i: (cost[i], candidates[i][0]))
    trials = [goal_cell] if goal_inside and goal_cell != (h, h) else []
    trials += [candidates[i][0] for i in ranked
               if candidates[i][0] in reach and candidates[i][0] not in trials]

    graph = GridGraph(np.array(mask), cs)
    improved = config.planner is PlannerKind.PROPOSED
    for attempt, cell in enumerate(trials):
        try:
            path, series, _ = plan_subpath_ref(graph, (h, h), cell, config.aco,
                                               (seed, cycle, attempt), improved=improved)
        except NoPathFound:
            continue
        return "ok", cell, path.cells, series
    return stuck
