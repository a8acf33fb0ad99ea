"""Independent brute-force reimplementations used as oracles by the test suite.

Everything here is deliberately written from scratch against the math, not by
calling into the package, so the implementations under test are checked by a
separate route.
"""
import heapq
import math

import numpy as np

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
    ds = math.sqrt((goal[0] - cell[0]) ** 2 + (goal[1] - cell[1]) ** 2)
    t1 = abs(wrap_ref(math.atan2(cell[1] - yr, cell[0] - xr) - psi))
    t2 = abs(wrap_ref(math.atan2(goal[1] - cell[1], goal[0] - cell[0]) - psi))
    return ds, t1, t2


def normalize_ref(values):
    total = 0.0
    for v in values:
        total += v
    if total == 0.0:
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


def transition_ref(tau_of, neighbors, tabu, prev_dir, cell, phi, gamma, cell_size,
                   improved):
    """Explicit term-by-term quotient over the feasible neighbor list."""
    weights = []
    kept = []
    for j in neighbors:
        if j in tabu:
            continue
        w = tau_of(cell, j) ** phi * heuristic_ref(cell, j, cell_size) ** gamma
        if improved:
            w *= corner_ref(prev_dir, cell, j)
        weights.append(w)
        kept.append(j)
    total = sum(weights)
    return {j: w / total for j, w in zip(kept, weights)}


def update_pheromone_ref(tau, paths, params):
    """Dict-based pheromone update.

    tau: dict edge->value (directed edges (i, j) of cell tuples).
    paths: list of dicts {cells, length, corners, reached}.
    params: object with rho, q, delta, zeta, conventional flag and elite cutoff.
    """
    new = {e: v * (1.0 - params["rho"]) for e, v in tau.items()}
    finished = [p for p in paths if p["reached"]]
    if params["conventional"]:
        deposits = [(p, params["q"] / p["length"]) for p in finished]
    else:
        scored = sorted(finished,
                        key=lambda p: score_ref(p["length"], p["corners"],
                                                params["delta"], params["zeta"]))
        cutoff = min(params["elite"], len(scored))
        deposits = [(p, params["q"] / score_ref(p["length"], p["corners"],
                                                params["delta"], params["zeta"]))
                    for p in scored[:cutoff]]
    for p, amount in deposits:
        for i, j in zip(p["cells"], p["cells"][1:]):
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
    """One ray, cell by cell (x first on ties): midpoint of the segment inside
    the first occupied cell crossed with real length, clipped to the radius."""
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
            return min(0.5 * (t_entry + t_exit), radius)


def scan_ref(occ, cell_size, x0, y0, psi, radius, n_rays):
    """[(d, theta)] of every returned ray, in ray order."""
    out = []
    for k in range(n_rays):
        theta = math.tau * k / n_rays
        d = cast_ray_ref(occ, cell_size, x0, y0, psi - theta, radius)
        if d is not None:
            out.append((d, theta))
    return out


def local_grid_ref(samples, origin, cell_size, h, rings):
    """Rasterize (d, theta) samples around origin (x, y, psi), then inflate."""
    ox, oy, psi = origin
    side = 2 * h + 1
    cells = np.full((side, side), FREE, dtype=np.int8)
    for d, theta in samples:
        wx, wy = polar_ref(ox, oy, psi, d, theta)
        c = h + int(math.floor((wx - ox) / cell_size + 0.5))
        r = h + int(math.floor((wy - oy) / cell_size + 0.5))
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
    for d, theta in samples:
        hit_by_ray[int(round(theta / sector)) % n_rays] = d
    margin = 0.5 * SQRT2 * cell_size
    side = 2 * h + 1
    for r in range(side):
        for c in range(side):
            if cells[r, c] != FREE:
                continue
            wx, wy = cell_center_ref(origin, cell_size, h, r, c)
            dx, dy = wx - origin[0], wy - origin[1]
            d = math.hypot(dx, dy)
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


def reachable_ref(cells, h):
    """Cells 8-connected to the center through free or robot cells."""
    side = 2 * h + 1
    seen = {(h, h)}
    stack = [(h, h)]
    while stack:
        r, c = stack.pop()
        for nr in (r - 1, r, r + 1):
            for nc in (c - 1, c, c + 1):
                if 0 <= nr < side and 0 <= nc < side and (nr, nc) not in seen \
                        and cells[nr, nc] in (FREE, ROBOT):
                    seen.add((nr, nc))
                    stack.append((nr, nc))
    return seen
