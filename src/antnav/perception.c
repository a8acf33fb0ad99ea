/* Compiled perception stage of the planning cycle: the local grid that
 * planner.c's plan_cycle and apf_cycle plan on.
 *
 * perceive first tests the pose: it returns POSE_OFF_WORLD or
 * POSE_IN_OBSTACLE for a pose whose world cell lies outside the world or is
 * occupied at the occupancy's tick, before any ray is cast; this is the
 * package's only pose test. Then it runs the whole stage on one cells
 * array: ray cast, rasterize and inflate (each hit marks its cell), then
 * occlusion and world clamp in one pass over the cells. Its loop over
 * the rays is the package's only ray cast. The scan is one range per ray,
 * in the caller's range array, or in scratch of perceive's own when the
 * caller passes NULL (antnav.grid.local_grid does: it keeps the grid
 * alone): range[i] is ray i's hit distance, or INFINITY when it hits
 * nothing.
 * The rays' world-frame directions come in as a table, which
 * ray_directions fills: it is the package's only place that computes a ray
 * bearing, and antnav.grid.ray_table keeps one table per (heading, ray
 * count), so a cycle casts its rays without a cos or sin. The table is the
 * caller's, read-only here: the kernel keeps no state between calls. The
 * grid is a pure function of the occupancy, the pose and the scan
 * arguments, so antnav.grid.local_grid calls perceive once per (tick, pose,
 * scan arguments) of a world and hands the kept grid to every later cycle
 * that asks for the same one.
 * The arithmetic is that of the per-ray and per-cell reference loops in
 * tests/oracles.py, operation for operation, so every cell state and every
 * range is bit-identical to theirs:
 *  - cos, sin and atan2 are libm's, which CPython's math module calls too,
 *    and hypot is libm's, which the references reach through np.hypot;
 *  - Python's float % by tau is fmod plus tau on a negative result (a zero
 *    result may keep fmod's sign, which gives the same ray index) and
 *    round() is nearbyint (ties to even).
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reordered sum would change bits.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TAU 6.283185307179586

enum { FREE = 0, OCCUPIED = 1, INFLATED = 2, ROBOT = 3 }; /* local cell states */

/* The row-major index of the world cell that holds the point (x, y) in the
 * rows x cols world, floor(v / world_cell_size) per axis as
 * antnav.world.WorldMap.cell_of finds it, or -1 when that cell lies outside
 * the world. The comparisons run in doubles, where a far point cannot
 * overflow. */
static long world_cell(double x, double y, double world_cell_size, int rows, int cols)
{
    double r = floor(y / world_cell_size), c = floor(x / world_cell_size);
    if (!(r >= 0 && r < rows && c >= 0 && c < cols))
        return -1;
    return (long)r * cols + (long)c;
}

/* Writes the world-frame direction of ray i of n_rays from heading psi,
 * cos and sin of its angle psi - tau * i / n_rays, to dirs[2 * i] and
 * dirs[2 * i + 1] (room for 2 * n_rays). */
void ray_directions(double psi, int n_rays, double *dirs)
{
    for (int i = 0; i < n_rays; i++) {
        double angle = psi - TAU * (double)i / (double)n_rays;
        dirs[2 * i] = cos(angle);
        dirs[2 * i + 1] = sin(angle);
    }
}

/* Distance along the ray from (x0, y0) in direction (dx, dy), a unit
 * vector, to the first occupied cell, or INFINITY when there is none: the
 * cell-by-cell traversal of Amanatides & Woo (1987), x first on ties. A hit
 * returns the midpoint of the segment inside the hit cell, clipped to the
 * radius, and writes the cell's (row, col) to hit. A cell only grazed
 * through a corner (a segment of <= 1e-9 cells) does not count. */
static double cast_ray(const bool *occ, int rows, int cols, double cell_size, double x0,
                       double y0, double dx, double dy, double radius, long *hit)
{
    long c = (long)floor(x0 / cell_size), r = (long)floor(y0 / cell_size);
    long step_c = 0, step_r = 0;
    double t_max_x = INFINITY, t_max_y = INFINITY, t_delta_x = INFINITY, t_delta_y = INFINITY;
    double graze_tol = 1e-9 * cell_size;

    if (dx > 0) {
        step_c = 1;
        t_max_x = ((double)(c + 1) * cell_size - x0) / dx;
        t_delta_x = cell_size / dx;
    } else if (dx < 0) {
        step_c = -1;
        t_max_x = ((double)c * cell_size - x0) / dx;
        t_delta_x = -cell_size / dx;
    }
    if (dy > 0) {
        step_r = 1;
        t_max_y = ((double)(r + 1) * cell_size - y0) / dy;
        t_delta_y = cell_size / dy;
    } else if (dy < 0) {
        step_r = -1;
        t_max_y = ((double)r * cell_size - y0) / dy;
        t_delta_y = -cell_size / dy;
    }
    for (;;) {
        /* one step, by selects rather than a branch on the data: the axis whose
         * boundary comes first is crossed, the other keeps its values (a select,
         * not an added 0.0, which would turn a -0.0 into +0.0) */
        bool x_first = t_max_x <= t_max_y;
        double t_entry = x_first ? t_max_x : t_max_y, t_exit;
        t_max_x = x_first ? t_max_x + t_delta_x : t_max_x;
        t_max_y = x_first ? t_max_y : t_max_y + t_delta_y;
        c += x_first ? step_c : 0;
        r += x_first ? 0 : step_r;
        if (t_entry > radius || r < 0 || r >= rows || c < 0 || c >= cols)
            return INFINITY;
        t_exit = t_max_y < t_max_x ? t_max_y : t_max_x;
        if (t_exit - t_entry > graze_tol && occ[r * cols + c]) {
            double mid = 0.5 * (t_entry + t_exit);
            hit[0] = r, hit[1] = c;
            return radius < mid ? radius : mid;
        }
    }
}

/* Marks OCCUPIED the cell of the side x side grid around (x0, y0) that holds
 * the center of world cell hit (row, col), when it lies inside the square:
 * the hit cell itself on a pose at a cell center with equal cell sizes. */
static void mark(const long *hit, double world_cell_size, double x0, double y0,
                 double cell_size, int half_extent, int8_t *cells)
{
    int side = 2 * half_extent + 1;
    double c = half_extent + floor(((hit[1] + 0.5) * world_cell_size - x0) / cell_size + 0.5);
    double r = half_extent + floor(((hit[0] + 0.5) * world_cell_size - y0) / cell_size + 0.5);
    if (r >= 0 && r < side && c >= 0 && c < side)
        cells[(int)r * side + (int)c] = OCCUPIED;
}

/* Drops a mark on the robot cell, inflates each occupied cell of the
 * side x side grid by `rings` rings of its free neighbours and marks the
 * center ROBOT. */
static void inflate(int half_extent, int rings, int8_t *cells)
{
    int side = 2 * half_extent + 1;
    cells[half_extent * side + half_extent] = FREE; /* dropped, not inflated */
    for (int r = 0; r < side; r++)
        for (int c = 0; c < side; c++) {
            if (cells[r * side + c] != OCCUPIED)
                continue;
            int r1 = r + rings < side - 1 ? r + rings : side - 1;
            int c1 = c + rings < side - 1 ? c + rings : side - 1;
            for (int rr = r - rings > 0 ? r - rings : 0; rr <= r1; rr++)
                for (int cc = c - rings > 0 ? c - rings : 0; cc <= c1; cc++)
                    if (cells[rr * side + cc] == FREE)
                        cells[rr * side + cc] = INFLATED;
        }
    cells[half_extent * side + half_extent] = ROBOT;
}

/* Occlusion and world clamp of the side x side grid around (x0, y0, psi),
 * in one pass over its inflated cells:
 *  - a cell whose center lies outside the world_rows x world_cols world
 *    becomes OCCUPIED. Such cells can never be scanned and must not look
 *    like free space to plan through. They are not inflated: they always sit
 *    behind the map's own boundary obstacles.
 *  - otherwise a FREE cell that was never observed becomes INFLATED: one
 *    whose bearing's ray, round(bearing / sector) % n_rays, hit closer than
 *    the cell center by more than half a cell diagonal. Planning into such
 *    shadows gives phantom passages through walls. A cell on a ray with no
 *    hit stays free, so unexplored space is still treated optimistically,
 *    and so does every cell within one cell size of the center. The range
 *    is libm hypot's, as np.hypot gives it to the reference.
 * The clamp overwrites a cell whatever its state and the occlusion reads
 * only its own cell, so the one pass gives what the two rules in turn give. */
static void occlude_and_clamp(const double *range, int n_rays, double x0, double y0,
                              double psi, double cell_size, int half_extent,
                              double world_cell_size, int world_rows, int world_cols,
                              int8_t *cells)
{
    int side = 2 * half_extent + 1;
    double sector = TAU / (double)n_rays;
    double margin = 0.5 * sqrt(2.0) * cell_size;

    for (int r = 0; r < side; r++) {
        double y = y0 + (double)(r - half_extent) * cell_size, dy = y - y0;
        double wr = floor(y / world_cell_size);
        for (int c = 0; c < side; c++) {
            double x = x0 + (double)(c - half_extent) * cell_size, dx = x - x0;
            double wc = floor(x / world_cell_size), d, theta;
            int8_t *cell = &cells[r * side + c];
            if (!(wr >= 0 && wr < world_rows && wc >= 0 && wc < world_cols)) {
                *cell = OCCUPIED;
                continue;
            }
            if (*cell != FREE || (d = hypot(dx, dy)) <= cell_size)
                continue;
            theta = fmod(psi - atan2(dy, dx), TAU);
            if (theta < 0.0)
                theta += TAU;
            if (range[(int64_t)nearbyint(theta / sector) % n_rays] < d - margin)
                *cell = INFLATED;
        }
    }
}

/* The local grid of one cycle. Returns POSE_OFF_WORLD or
 * POSE_IN_OBSTACLE, writing nothing, when the world cell of the pose
 * (x0, y0) lies outside the rows x cols occupancy grid or is occupied in
 * it. Otherwise returns OK after casting n_rays rays from pose
 * (x0, y0, psi) against the grid into range (room for n_rays; NULL casts
 * them into heap scratch of perceive's own, and returns NO_MEMORY, writing
 * nothing, when that cannot be allocated), marking each
 * ray's hit cell in the side x side grid around the pose, inflating it by
 * `rings` rings, then masking the occluded cells and clamping the grid to
 * the world in one pass. rays holds ray_directions(psi, n_rays): ray i has
 * bearing tau * i / n_rays, and the ray index of that bearing,
 * round(bearing / sector) % n_rays, is i again, so the occlusion reads ray
 * i's range at range[i]. */
int perceive(const bool *occ, int rows, int cols, double world_cell_size, double x0,
             double y0, double psi, const double *rays, double radius, int n_rays,
             double cell_size, int half_extent, int rings, double *range, int8_t *cells)
{
    int side = 2 * half_extent + 1;
    long hit[2], last[2] = {-1, -1}, here = world_cell(x0, y0, world_cell_size, rows, cols);
    if (here < 0)
        return POSE_OFF_WORLD;
    if (occ[here])
        return POSE_IN_OBSTACLE;
    double *own = NULL;
    if (!range && !(range = own = malloc(sizeof(double) * (size_t)n_rays)))
        return NO_MEMORY;
    memset(cells, FREE, (size_t)side * side);
    /* neighbouring rays mostly hit the same cell, and marking it again changes
     * nothing: a hit marks only when its cell differs from the last marked one */
    for (int i = 0; i < n_rays; i++)
        if ((range[i] = cast_ray(occ, rows, cols, world_cell_size, x0, y0, rays[2 * i],
                                 rays[2 * i + 1], radius, hit)) < INFINITY
            && (hit[0] != last[0] || hit[1] != last[1])) {
            mark(hit, world_cell_size, x0, y0, cell_size, half_extent, cells);
            last[0] = hit[0], last[1] = hit[1];
        }
    inflate(half_extent, rings, cells); /* before the clamp, whose cells are not inflated */
    occlude_and_clamp(range, n_rays, x0, y0, psi, cell_size, half_extent, world_cell_size,
                      rows, cols, cells);
    free(own);
    return OK;
}
