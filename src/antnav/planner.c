/* Compiled planning cycles of antnav.planner.plan_cycle, with the rules
 * they run: the marginal-candidate rule of antnav.grid.candidate_cells, the
 * multi-constraint ranking of antnav.subgoal.rank_candidates and the
 * potential-field step of antnav.baselines.apf_step.
 *
 * plan_cycle runs one cycle of the proposed and conventional-aco planners
 * in one call: perceive() builds the local grid, its marginal cells are
 * scored, and colony_run plans toward one trial sub-goal after another
 * until a colony reaches one. The first trial is the goal cell when the
 * robot can reach it (terminal capture), then come the reachable
 * candidates in (cost, row-major index) order, the order of a stable sort
 * by cost. apf_cycle runs one cycle of the APF planner: perceive(), then
 * apf_step. The arithmetic is that of the reference cycle and step in
 * tests/oracles.py, operation for operation:
 *  - a cell's center is x0 + (c - h) * cell_size, as
 *    LocalGrid.world_center computes it;
 *  - the distance is math.hypot's (py_hypot), the bearings are libm atan2
 *    folded by wrap_angle's fmod;
 *  - each family is normalized over every candidate, reachable or not,
 *    with a left-to-right sum from 0;
 *  - the cost is beta * theta1 + alpha * distance + omega * theta2, in that
 *    order;
 *  - Python's x ** 2 is libm pow(x, 2.0) (py_square), not x * x.
 *
 * Each cycle call takes its scratch from one heap block, sized and sliced
 * in one place by alignment (doubles, 32-bit ints, bytes), and ends it with
 * a byte buffer the call fills whole, so a short block faults there.
 * colony_run builds its own direction tables from the cell size and the
 * two eta_gamma weights.
 *
 * This file follows colony.c and perception.c in the kernel's one
 * translation unit and calls their functions. Build with -ffp-contract=off
 * and without -ffast-math: a fused multiply-add or a reordered sum would
 * change bits.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PI 3.141592653589793 /* math.pi; TAU is perception.c's math.tau */

enum {
    PLAN_STUCK = -1,        /* plan_cycle's verdict when no sub-goal can be planned */
    APF_LOCAL_MINIMUM = -1, /* apf_step's and apf_cycle's when no neighbour improves */
    APF_NO_MEMORY = -2      /* apf_cycle's when it cannot allocate its buffers */
};

/* antnav.geometry.wrap_angle: a in radians wrapped to (-pi, pi] */
static double wrap_angle(double a)
{
    double w = fmod(a, TAU);
    if (w > PI)
        w -= TAU;
    else if (w <= -PI)
        w += TAU;
    return w;
}

/* Writes the row-major ids of the marginal cells of the side x side grid to
 * ids (room for side * side) and returns their count. A cell is marginal
 * when it is FREE and lies on the outer ring or is 8-adjacent to an
 * OCCUPIED or INFLATED cell. */
int marginal_cells(const int8_t *cells, int side, int32_t *ids)
{
    int k = 0;
    for (int r = 0; r < side; r++)
        for (int c = 0; c < side; c++) {
            if (cells[r * side + c] != FREE)
                continue;
            bool near = r == 0 || r == side - 1 || c == 0 || c == side - 1;
            for (int dr = -1; dr <= 1 && !near; dr++)
                for (int dc = -1; dc <= 1 && !near; dc++) {
                    int8_t s = cells[(r + dr) * side + c + dc];
                    near = s == OCCUPIED || s == INFLATED;
                }
            if (near)
                ids[k++] = r * side + c;
        }
    return k;
}

/* Scores k candidates at the world points xy (x, y pairs) for a robot at
 * (x0, y0) heading psi and a goal at (gx, gy). raw (3 x k) gets the three
 * constraint families: the distance from the cell to the goal, and the
 * deviations from psi of the bearing robot -> cell and of the bearing
 * cell -> goal, folded to [0, pi]. norm (3 x k) gets each family scaled to
 * sum to 1, an all-zero family as uniform; cost (k) the weighted sum. */
static void score(int k, const double *xy, double x0, double y0, double psi, double gx,
                  double gy, double alpha, double beta, double omega, double *raw,
                  double *norm, double *cost)
{
    for (int i = 0; i < k; i++) {
        double cx = xy[2 * i], cy = xy[2 * i + 1];
        raw[i] = py_hypot(gx - cx, gy - cy);
        raw[k + i] = fabs(wrap_angle(atan2(cy - y0, cx - x0) - psi));
        raw[2 * k + i] = fabs(wrap_angle(atan2(gy - cy, gx - cx) - psi));
    }
    for (int f = 0; f < 3; f++) {
        const double *v = raw + f * k;
        double total = 0.0;
        for (int i = 0; i < k; i++)
            total += v[i];
        for (int i = 0; i < k; i++)
            norm[f * k + i] = total == 0.0 ? 1.0 / k : v[i] / total;
    }
    for (int i = 0; i < k; i++)
        cost[i] = beta * norm[k + i] + alpha * norm[i] + omega * norm[2 * k + i];
}

/* The candidate after candidate prev (-1: the first) in (cost, index)
 * order, or -1 after the last */
static int next_ranked(const double *cost, int k, int prev)
{
    int best = -1;
    for (int i = 0; i < k; i++) {
        if (prev >= 0 && (cost[i] < cost[prev] || (cost[i] == cost[prev] && i <= prev)))
            continue;
        if (best < 0 || cost[i] < cost[best])
            best = i;
    }
    return best;
}

/* antnav.subgoal.rank_candidates: scores k candidates as score() does and
 * writes their indices to order (k) in (cost, index) order */
void rank_candidates(int k, const double *xy, double x0, double y0, double psi, double gx,
                     double gy, double alpha, double beta, double omega, double *raw,
                     double *norm, double *cost, int32_t *order)
{
    score(k, xy, x0, y0, psi, gx, gy, alpha, beta, omega, raw, norm, cost);
    for (int i = 0, prev = -1; i < k; i++)
        order[i] = prev = next_ranked(cost, k, prev);
}

/* Python's x ** 2 for a float x: CPython calls libm pow, which differs from
 * x * x in the last bit on some inputs. gcc folds pow(x, 2.0) into x * x, so
 * the exponent is read at run time. */
static double py_square(double x)
{
    static const volatile double two = 2.0;
    return pow(x, two);
}

/* The potential at (x, y) of a robot whose side x side grid of cells is
 * centered on (x0, y0), for a goal at (goal_x, goal_y): 0.5 * k_att times
 * the squared goal distance, plus 0.5 * k_rep * (1 / d - 1 / d0) ** 2 when
 * the distance d to the nearest OCCUPIED cell center is below d0 (d0 is
 * finite, so a grid without one adds nothing). */
static double potential(const int8_t *cells, int half_extent, double cell_size, double x0,
                        double y0, double x, double y, double goal_x, double goal_y,
                        double k_att, double k_rep, double d0)
{
    const int side = 2 * half_extent + 1;
    double u = 0.5 * k_att * (py_square(x - goal_x) + py_square(y - goal_y));
    double d = INFINITY;
    for (int r = 0; r < side; r++)
        for (int c = 0; c < side; c++) {
            if (cells[r * side + c] != OCCUPIED)
                continue;
            double e = py_hypot(x - (x0 + (double)(c - half_extent) * cell_size),
                                y - (y0 + (double)(r - half_extent) * cell_size));
            if (e < d)
                d = e;
        }
    if (d < d0)
        u += 0.5 * k_rep * py_square(1.0 / d - 1.0 / d0);
    return u;
}

/* antnav.baselines.apf_step on the side x side cells (half_extent >= 1) of
 * a grid centered on the robot at (x0, y0): the row-major id of the
 * traversable (FREE or ROBOT) 8-neighbour of the center with the lowest
 * potential (the first in row-major order on ties), or APF_LOCAL_MINIMUM
 * when none is traversable or the best one's potential is not below the
 * center's. */
int apf_step(const int8_t *cells, int half_extent, double cell_size, double x0, double y0,
             double goal_x, double goal_y, double k_att, double k_rep, double d0)
{
    const int side = 2 * half_extent + 1;
    double here = potential(cells, half_extent, cell_size, x0, y0, x0, y0, goal_x, goal_y,
                            k_att, k_rep, d0);
    double best_u = INFINITY;
    int best = APF_LOCAL_MINIMUM;
    for (int r = half_extent - 1; r <= half_extent + 1; r++)
        for (int c = half_extent - 1; c <= half_extent + 1; c++) {
            int8_t s = cells[r * side + c];
            if ((r == half_extent && c == half_extent) || (s != FREE && s != ROBOT))
                continue;
            double u = potential(cells, half_extent, cell_size, x0, y0,
                                 x0 + (double)(c - half_extent) * cell_size,
                                 y0 + (double)(r - half_extent) * cell_size, goal_x, goal_y,
                                 k_att, k_rep, d0);
            if (u < best_u) {
                best_u = u;
                best = r * side + c;
            }
        }
    return best < 0 || best_u >= here ? APF_LOCAL_MINIMUM : best;
}

/* One cycle of the APF planner of antnav.planner.plan_cycle for a robot at
 * (x0, y0, psi) on the rows x cols occupancy grid occ: perceive() with the
 * ray table rays and the scan and grid arguments, then apf_step toward
 * (goal_x, goal_y). Returns apf_step's result, or APF_NO_MEMORY. */
int apf_cycle(const bool *occ, int rows, int cols, double world_cell_size, double x0,
              double y0, double psi, const double *rays, double goal_x, double goal_y,
              double radius, int n_rays, double cell_size, int half_extent, int rings,
              double k_att, double k_rep, double d0)
{
    const int side = 2 * half_extent + 1;
    /* the ranges, then the cells, which perceive() fills whole */
    double *range = malloc(sizeof(double) * (size_t)n_rays + (size_t)side * (size_t)side);
    if (!range)
        return APF_NO_MEMORY;
    int8_t *cells = (int8_t *)(range + n_rays);
    perceive(occ, rows, cols, world_cell_size, x0, y0, psi, rays, radius, n_rays, cell_size,
             half_extent, rings, range, cells);
    int next = apf_step(cells, half_extent, cell_size, x0, y0, goal_x, goal_y, k_att, k_rep, d0);
    free(range);
    return next;
}

/* One cycle of the proposed or conventional-aco planner of
 * antnav.planner.plan_cycle for a robot at (x0, y0, psi) on the rows x cols
 * occupancy grid occ and a goal at (goal_x, goal_y).
 * perceive() takes the ray table rays and the scan and grid arguments,
 * score() the weights and colony_run the colony's: eta_straight and
 * eta_diagonal are eta_gamma of the straight and diagonal step, corner is
 * the (9, 8) corner table, key (n_key words) the seed words of the cycle,
 * to which the attempt index is appended per trial. max_steps must not
 * exceed side * side - 1.
 *
 * Returns PLAN_STUCK when the grid has no marginal cell, when the reachable
 * cells form a closed pocket (touching no grid edge, goal not among them)
 * or when no trial colony reaches its sub-goal; COLONY_OK with the sub-goal
 * id in *subgoal, the path's cell ids in path[0..*n_steps] (room for
 * max_steps + 1) and the colony series in series (n_iters); or the
 * colony's COLONY_BAD_TOTAL, with *subgoal, or COLONY_NO_MEMORY. Cell ids
 * are row-major over the side x side grid, side = 2 * half_extent + 1. */
int plan_cycle(const bool *occ, int rows, int cols, double world_cell_size, double x0,
               double y0, double psi, const double *rays, double goal_x, double goal_y,
               const uint32_t *key, int n_key, const double *corner, double radius,
               int n_rays, double cell_size, int half_extent, int rings, double alpha,
               double beta, double omega, double eta_straight, double eta_diagonal,
               int n_iters, int n_ants, int max_steps, int improved, double phi, double rho,
               double q, double delta, double zeta, double tau0, int elite_cutoff,
               int32_t *path, int *n_steps, int *subgoal, double *series)
{
    const int side = 2 * half_extent + 1, n = side * side;
    const int center = half_extent * side + half_extent;
    /* cells, which perceive() fills whole, ends the block */
    double *range = malloc(sizeof(double) * ((size_t)n_rays + (2 + 7 + 8) * (size_t)n)
                           + sizeof(int32_t) * (2 * (size_t)n + (size_t)n_key + 1)
                           + (size_t)max_steps + 3 * (size_t)n);
    if (!range)
        return COLONY_NO_MEMORY;
    double *xy = range + n_rays;
    double *fam = xy + 2 * (size_t)n; /* raw, norm, cost */
    double *tau = fam + 7 * (size_t)n;
    int32_t *queue = (int32_t *)(tau + 8 * (size_t)n);
    int32_t *ids = queue + n;
    uint32_t *words = (uint32_t *)(ids + n);
    int8_t *dirs = (int8_t *)(words + n_key + 1);
    bool *mask = (bool *)(dirs + max_steps), *reach = mask + n;
    int8_t *cells = (int8_t *)(reach + n);
    int code = PLAN_STUCK;

    perceive(occ, rows, cols, world_cell_size, x0, y0, psi, rays, radius, n_rays, cell_size,
             half_extent, rings, range, cells);
    int k = marginal_cells(cells, side, ids);
    if (k == 0)
        goto done;

    for (int i = 0; i < n; i++)
        mask[i] = cells[i] == FREE || cells[i] == ROBOT;
    reachable(mask, side, side, center, queue, reach);
    /* the goal's cell, the one whose center is nearest it, -1 outside the
     * square; the comparisons run in doubles, where a far goal cannot overflow */
    double gr = half_extent + floor((goal_y - y0) / cell_size + 0.5);
    double gc = half_extent + floor((goal_x - x0) / cell_size + 0.5);
    int goal_cell = gr >= 0 && gr < side && gc >= 0 && gc < side ? (int)gr * side + (int)gc
                                                                 : -1;
    bool goal_inside = goal_cell >= 0 && reach[goal_cell];
    /* a closed pocket that touches no grid edge and does not hold the goal
     * leaves no sub-goal that can make progress */
    bool edge = false;
    for (int i = 0; i < side && !edge; i++)
        edge = reach[i] || reach[(side - 1) * side + i] || reach[i * side]
               || reach[i * side + side - 1];
    if (!goal_inside && !edge)
        goto done;

    double *raw = fam, *norm = fam + 3 * k, *cost = fam + 6 * k;
    for (int i = 0; i < k; i++) {
        xy[2 * i] = x0 + (double)(ids[i] % side - half_extent) * cell_size;
        xy[2 * i + 1] = y0 + (double)(ids[i] / side - half_extent) * cell_size;
    }
    score(k, xy, x0, y0, psi, goal_x, goal_y, alpha, beta, omega, raw, norm, cost);

    memcpy(words, key, sizeof(uint32_t) * (size_t)n_key);
    /* terminal capture: a reachable goal cell is the first trial, ahead of
     * the cost function, otherwise the chain of sub-goals can orbit the
     * goal forever; every reachable cell but the robot's is FREE */
    int capture = goal_inside && goal_cell != center ? goal_cell : -1;
    int corners, ranked = -1;
    double length;
    for (uint32_t attempt = 0;; attempt++) {
        int target = capture;
        if (attempt > 0 || capture < 0) {
            do
                ranked = next_ranked(cost, k, ranked);
            while (ranked >= 0 && (ids[ranked] == capture || !reach[ids[ranked]]));
            if (ranked < 0) {
                code = PLAN_STUCK;
                break;
            }
            target = ids[ranked];
        }
        words[n_key] = attempt;
        code = colony_run(mask, side, side, tau, tau0, cell_size, eta_straight, eta_diagonal,
                          corner, words, n_key + 1, n_iters, n_ants, max_steps, center, target,
                          improved, phi, rho, q, delta, zeta, elite_cutoff, path, dirs, n_steps,
                          &corners, &length, series);
        *subgoal = target;
        if (code != COLONY_NO_PATH && code != COLONY_NO_PATH_STREAK)
            break; /* found, or an error; no path falls back to the next candidate */
    }

done:
    free(range);
    return code;
}
