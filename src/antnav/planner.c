/* Compiled planning cycles of antnav.planner.plan_cycle, with the rules
 * they run: the marginal-candidate rule (marginal_cells), the
 * multi-constraint ranking (rank_candidates) and the potential-field step
 * (apf_step). Each rule is also an entry point of its own, which the tests
 * call one stage at a time (tests/stages.py).
 *
 * plan_cycle runs one cycle of the proposed and conventional-aco planners
 * in one call on the local grid the caller hands in (perception.c's
 * perceive() writes it, and antnav.grid.local_grid keeps one per world,
 * tick, pose and scan arguments): its marginal cells are scored, and
 * colony_run plans toward one trial sub-goal after another until a colony
 * reaches one. The first trial is the goal cell when the robot can reach it
 * (terminal capture), then come the reachable candidates in (cost,
 * row-major index) order, the order of a stable sort by cost. apf_cycle
 * runs one cycle of the APF planner on the local grid: apf_step. The pose
 * test is perceive()'s, before the grid exists; both cycles end with the
 * run's step-collision rule: a step whose world cell is occupied at the
 * occupancy's tick returns STEP_COLLISION, the package's only step test.
 * Neither cycle writes the grid, and the kernel keeps no state between
 * calls. The arithmetic is that of the reference cycle and step in
 * tests/oracles.py, operation for operation:
 *  - a cell's center is x0 + (c - h) * cell_size, as
 *    PlannerConfig's cell tables add it;
 *  - the distance is libm hypot (np.hypot in the reference), the bearings
 *    are libm atan2 folded by wrap_angle's fmod;
 *  - each family is normalized over every candidate, reachable or not,
 *    with a left-to-right sum from 0;
 *  - the cost is beta * theta1 + alpha * distance + omega * theta2, in that
 *    order;
 *  - Python's x ** 2 is libm pow(x, 2.0) (py_square), not x * x.
 *
 * plan_cycle takes its scratch from one heap block, sized and sliced in one
 * place by alignment (doubles, 32-bit ints, bytes), and ends it with a byte
 * buffer the call fills whole, so a short block faults there; apf_cycle
 * needs none.
 * colony_run builds its own step and heuristic pairs from the cell size and
 * gamma; the open-direction table of the local grid is built once per cycle.
 *
 * This file follows colony.c and perception.c in the kernel's one
 * translation unit and calls their functions; its outcome codes are
 * colony.c's. Build with -ffp-contract=off
 * and without -ffast-math: a fused multiply-add or a reordered sum would
 * change bits.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PI 3.141592653589793 /* math.pi; TAU is perception.c's math.tau */

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

/* STEP_COLLISION when the world cell of local cell id `step` of the side x
 * side grid around (x0, y0) is occupied in the rows x cols occupancy grid,
 * or lies outside it (the world clamp leaves no such step), else OK.
 * The cell's center is x0 + (c - h) * cell_size, the point antnav.planner
 * moves the robot to. */
static int step_verdict(const bool *occ, int rows, int cols, double world_cell_size,
                        double x0, double y0, double cell_size, int half_extent, int step)
{
    const int side = 2 * half_extent + 1;
    long cell = world_cell(x0 + (double)(step % side - half_extent) * cell_size,
                           y0 + (double)(step / side - half_extent) * cell_size,
                           world_cell_size, rows, cols);
    return cell < 0 || occ[cell] ? STEP_COLLISION : OK;
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
        raw[i] = hypot(gx - cx, gy - cy);
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

/* Scores k candidates as score() does and writes their indices to order (k)
 * in (cost, index) order. It takes next_ranked k times, O(k^2), and no sort
 * of its own: next_ranked is the order plan_cycle walks lazily, so the tests
 * of the full order test the rule the cycle runs. Only the tests call it
 * (k <= 400 candidates a call); a qsort would give them a second
 * implementation of the order, one the cycle never executes. */
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
            double e = hypot(x - (x0 + (double)(c - half_extent) * cell_size),
                             y - (y0 + (double)(r - half_extent) * cell_size));
            if (e < d)
                d = e;
        }
    if (d < d0)
        u += 0.5 * k_rep * py_square(1.0 / d - 1.0 / d0);
    return u;
}

/* The potential-field step on the side x side cells (half_extent >= 1) of
 * a grid centered on the robot at (x0, y0): the row-major id of the
 * traversable (FREE or ROBOT) 8-neighbour of the center with the lowest
 * potential (the first in row-major order on ties), or LOCAL_MINIMUM
 * when none is traversable or the best one's potential is not below the
 * center's. */
int apf_step(const int8_t *cells, int half_extent, double cell_size, double x0, double y0,
             double goal_x, double goal_y, double k_att, double k_rep, double d0)
{
    const int side = 2 * half_extent + 1;
    double here = potential(cells, half_extent, cell_size, x0, y0, x0, y0, goal_x, goal_y,
                            k_att, k_rep, d0);
    double best_u = INFINITY;
    int best = LOCAL_MINIMUM;
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
    return best < 0 || best_u >= here ? LOCAL_MINIMUM : best;
}

/* One cycle of the APF planner of antnav.planner.plan_cycle for a robot at
 * (x0, y0) on the rows x cols occupancy grid occ, whose local grid cells
 * (side x side, as perceive() writes it) the caller hands in: apf_step
 * toward (goal_x, goal_y). Returns LOCAL_MINIMUM; or, with the step's cell
 * id in *step, OK or STEP_COLLISION. */
int apf_cycle(const bool *occ, int rows, int cols, double world_cell_size, double x0,
              double y0, const int8_t *cells, double goal_x, double goal_y, double cell_size,
              int half_extent, double k_att, double k_rep, double d0, int32_t *step)
{
    int code = apf_step(cells, half_extent, cell_size, x0, y0, goal_x, goal_y, k_att, k_rep, d0);
    if (code < 0)
        return code;
    *step = code;
    return step_verdict(occ, rows, cols, world_cell_size, x0, y0, cell_size, half_extent, code);
}

/* One cycle of the proposed or conventional-aco planner of
 * antnav.planner.plan_cycle for a robot at (x0, y0, psi) on the rows x cols
 * occupancy grid occ and a goal at (goal_x, goal_y), whose local grid cells
 * (side x side, as perceive() writes it) the caller hands in.
 * score() takes the weights and colony_run the colony's arguments, gamma to
 * elite_cutoff in colony_run's order: corner is the (9, 8) corner table, key
 * (n_key words) the seed words of the cycle, to which the attempt index is
 * appended per trial. max_steps must not exceed side * side - 1. out has
 * room for max_steps + 3: the path's step count n, the sub-goal's id, then
 * the path's n + 1 cell ids.
 *
 * Returns STUCK when the grid has no marginal cell, when the reachable cells
 * form a closed pocket (touching no grid edge, goal not among them) or when
 * no trial colony reaches its sub-goal; OK or STEP_COLLISION, the verdict of
 * the path's first step, with out filled and the colony series in series
 * (n_iters); the colony's BAD_TOTAL, with the sub-goal's id in out[1]; or
 * NO_MEMORY. Cell ids are row-major over the side x side grid,
 * side = 2 * half_extent + 1. */
int plan_cycle(const bool *occ, int rows, int cols, double world_cell_size, double x0,
               double y0, const int8_t *cells, double goal_x, double goal_y, double psi,
               const uint32_t *key, int n_key, const double *corner, double cell_size,
               int half_extent, double alpha, double beta, double omega, double gamma,
               int n_iters, int n_ants, int max_steps, int improved, double phi, double rho,
               double q, double delta, double zeta, double tau0, int elite_cutoff,
               int32_t *out, double *series)
{
    const int side = 2 * half_extent + 1, n = side * side;
    const int center = half_extent * side + half_extent;
    /* reach, which reachable() fills whole, ends the block */
    double *xy = malloc(sizeof(double) * (2 + 7 + 8) * (size_t)n
                        + sizeof(int32_t) * (2 * (size_t)n + (size_t)n_key + 1)
                        + (size_t)max_steps + 3 * (size_t)n);
    if (!xy)
        return NO_MEMORY;
    double *fam = xy + 2 * (size_t)n; /* raw, norm, cost */
    double *tau = fam + 7 * (size_t)n;
    int32_t *queue = (int32_t *)(tau + 8 * (size_t)n);
    int32_t *ids = queue + n;
    uint32_t *words = (uint32_t *)(ids + n);
    int8_t *dirs = (int8_t *)(words + n_key + 1);
    bool *mask = (bool *)(dirs + max_steps);
    uint8_t *links = (uint8_t *)(mask + n);
    bool *reach = (bool *)(links + n);
    int code = STUCK;
    int k = marginal_cells(cells, side, ids);
    if (k == 0)
        goto done;

    for (int i = 0; i < n; i++)
        mask[i] = cells[i] == FREE || cells[i] == ROBOT;
    /* one open-direction table for the reachability search and every trial */
    open_directions(mask, side, side, links);
    reachable(links, side, side, center, queue, reach);
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
    int n_steps, corners, ranked = -1;
    double length;
    for (uint32_t attempt = 0;; attempt++) {
        int target = capture;
        if (attempt > 0 || capture < 0) {
            do
                ranked = next_ranked(cost, k, ranked);
            while (ranked >= 0 && (ids[ranked] == capture || !reach[ids[ranked]]));
            if (ranked < 0) {
                code = STUCK;
                break;
            }
            target = ids[ranked];
        }
        words[n_key] = attempt;
        code = colony_run(links, side, side, tau, cell_size, corner, words, n_key + 1, center,
                          target, gamma, n_iters, n_ants, max_steps, improved, phi, rho, q,
                          delta, zeta, tau0, elite_cutoff, out + 2, dirs, &n_steps, &corners,
                          &length, series);
        out[1] = target;
        if (code != NO_PATH && code != NO_PATH_STREAK)
            break; /* found, or an error; no path falls back to the next candidate */
    }
    if (code == OK) {
        out[0] = n_steps;
        code = step_verdict(occ, rows, cols, world_cell_size, x0, y0, cell_size, half_extent,
                            out[3]);
    }

done:
    free(xy);
    return code;
}
