/* Compiled colony run of the planning cycle (planner.c's plan_cycle), the
 * reachability search of its local grid, and the open-direction table both
 * of them walk. Each is also an entry point of its own, which the tests
 * call one stage at a time (tests/stages.py).
 *
 * One colony_run call runs every iteration of the improved or conventional
 * ant colony: the ant walks, the repair pick, the score, the elite rank,
 * evaporation and deposits, and best-cost tracking. The arithmetic is that
 * of the reference loop in tests/oracles.py, operation for operation: the
 * same candidate order, the same w / total cumulative sum, the same stable
 * rank and the same deposit order. The random numbers are numpy's: each
 * stream is a PCG64 generator (O'Neill 2014, XSL-RR 128/64) seeded from the
 * four words of np.random.SeedSequence((key..., iteration,
 * stream)).generate_state(4, np.uint64), a uniform draw is (next64 >> 11) *
 * 2^-53 and a bounded integer is Lemire's method on the 32-bit outputs
 * (Generator.random and Generator.integers).
 *
 * The graph is one open-direction byte per cell, which open_directions
 * builds from the traversable mask with row and column loops; plan_cycle
 * builds it once per cycle and hands it to reachable and to every
 * colony_run. A cell steps by a flat offset to the neighbours its byte
 * lets through. A walk keeps its tabu
 * list as a mask of the same shape, so a step's candidates are one AND-NOT,
 * visited in ascending direction order; it weighs only those, by the
 * reference loop's tau^phi * eta^gamma on the same operands. The call
 * computes eta^gamma as pow(1 / step, gamma), the libm pow that Python's
 * float ** calls. Repair copies the incumbent over the chosen ant's walk,
 * so the rank and the deposits read the ants alone. Each call takes its
 * scratch from one heap block, sized and sliced in one place.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reordered sum would change bits.
 */
#include <float.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The kernel's outcome codes, one meaning each whichever function returns
 * it; this file comes first in the translation unit, so every file sees
 * them. apf_step returns a cell id (>= 0) where it does not return one. */
enum {
    OK = 0,                /* a path planned, a pose or a step on a free world cell */
    STUCK = -1,            /* plan_cycle: no sub-goal can be planned */
    LOCAL_MINIMUM = -2,    /* apf_step, apf_cycle: no neighbour improves */
    NO_MEMORY = -3,        /* a call could not allocate its scratch */
    POSE_OFF_WORLD = -4,   /* perceive: the pose's world cell lies outside the world */
    POSE_IN_OBSTACLE = -5, /* perceive: the pose's world cell is occupied */
    STEP_COLLISION = -6,   /* a cycle's step lands on an occupied world cell */
    NO_PATH_STREAK = -7,   /* colony_run, improved mode: no finisher in iterations 1-3 */
    NO_PATH = -8,          /* colony_run: no finisher in any iteration */
    BAD_TOTAL = -9,        /* colony_run: a roulette total was 0, infinite or NaN */
};

typedef __uint128_t u128;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

typedef struct {
    u128 state, inc;
    int has32;      /* numpy keeps the high half of a 64-bit output for the next 32-bit draw */
    uint32_t buf32;
} pcg64;

/* numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after
 * O'Neill's seed_seq_fe) with its pool of four 32-bit words */
static uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= 0x931E8875u;
    v *= *h;
    return v ^ (v >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = x * 0xCA01F9DDu - y * 0x4973F715u;
    return r ^ (r >> 16);
}

/* PCG64(SeedSequence(words)): the pool mixes the n entropy words, its
 * generate_state(4, np.uint64) words are pcg_setseq_128_srandom_r's
 * initstate = w0:w1 and initseq = w2:w3 */
static void pcg_seed(pcg64 *g, const uint32_t *words, int n)
{
    uint32_t pool[4], h = 0x43B0D7E5u;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? words[i] : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (int src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &h));
    uint64_t w[4] = {0};
    h = 0x8B51F9DDu;
    for (int i = 0; i < 8; i++) {  /* eight uint32 outputs, low half of each word first */
        uint32_t v = pool[i & 3] ^ h;
        h *= 0x58F38DEDu;
        v *= h;
        w[i / 2] |= (uint64_t)(v ^ (v >> 16)) << (i % 2 * 32);
    }
    u128 initstate = ((u128)w[0] << 64) | w[1];
    u128 initseq = ((u128)w[2] << 64) | w[3];
    g->inc = (initseq << 1) | 1u;
    g->state = g->inc;  /* one step from state 0 */
    g->state += initstate;
    g->state = g->state * PCG_MULT + g->inc;
    g->has32 = 0;
    g->buf32 = 0;
}

static uint64_t pcg_next64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static double pcg_double(pcg64 *g)
{
    return (double)(pcg_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

static uint32_t pcg_next32(pcg64 *g)
{
    if (g->has32) {
        g->has32 = 0;
        return g->buf32;
    }
    uint64_t v = pcg_next64(g);
    g->has32 = 1;
    g->buf32 = (uint32_t)(v >> 32);
    return (uint32_t)v;
}

/* Generator.integers(k) for 1 <= k < 2^32 */
static uint32_t pcg_below(pcg64 *g, uint32_t k)
{
    if (k == 1)
        return 0;  /* numpy draws nothing for a range of one value */
    uint64_t m = (uint64_t)pcg_next32(g) * k;
    uint32_t leftover = (uint32_t)m;
    if (leftover < k) {
        uint32_t threshold = (UINT32_MAX - (k - 1)) % k;
        while (leftover < threshold) {
            m = (uint64_t)pcg_next32(g) * k;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

typedef struct {
    int32_t *cells;  /* cell ids, start first */
    int8_t *dirs;    /* direction index per step */
    int n_steps, corners, reached;
    double length, cost;
} ant_path;

/* (row, column) offset per direction index: antnav.geometry.DIR_OFFSETS. The
 * diagonal directions are the odd ones, so d & 1 indexes a straight/diagonal
 * table. */
static const int DIR_OFFSETS[8][2] = {{1, 0}, {1, 1}, {0, 1}, {-1, 1},
                                      {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};

/* The cell-id offset of each direction on a grid of cols columns */
static void flat_offsets(int cols, int *offset)
{
    for (int d = 0; d < 8; d++)
        offset[d] = DIR_OFFSETS[d][0] * cols + DIR_OFFSETS[d][1];
}

/* Fills links (rows * cols) with one open-direction byte per cell of the
 * rows x cols mask: bit d is set when the cell's neighbour in direction d is
 * on the grid and traversable, whether the cell itself is or not. */
void open_directions(const bool *mask, int rows, int cols, uint8_t *links)
{
    for (int r = 0; r < rows; r++)
        for (int c = 0; c < cols; c++) {
            unsigned open = 0;
            for (int d = 0; d < 8; d++) {
                int nr = r + DIR_OFFSETS[d][0], nc = c + DIR_OFFSETS[d][1];
                if (nr >= 0 && nr < rows && nc >= 0 && nc < cols && mask[nr * cols + nc])
                    open |= 1u << d;
            }
            links[r * cols + c] = (uint8_t)open;
        }
}

/* Tabu mark of the walk entering cell v: bit (d + 4) & 7 of each neighbour
 * v + offset[d], the neighbour's direction back to v. For a d that leaves
 * the grid the byte is padding or a cell whose bit (d + 4) & 7 also leaves
 * it, so the mark never reaches a candidate set; the padding of cols + 1
 * bytes on each side of the grid holds every such write. */
static void enter(uint8_t *blocked, const int *offset, int v)
{
    for (int d = 0; d < 8; d++)
        blocked[v + offset[d]] |= (uint8_t)(1u << ((d + 4) & 7));
}

/* One roulette walk with a tabu list and a step cap. links[pos] has bit d set
 * when the neighbour pos + offset[d] is on the grid and traversable, and
 * blocked[pos] when that neighbour is on the walk (see enter), so the
 * candidates are the bits of links[pos] & ~blocked[pos], in ascending
 * direction order. The weight of a candidate is tau^phi * eta^gamma of its
 * edge, times its turn factor in improved mode; a step in direction d is
 * step[d & 1] long and weighs eta[d & 1] (straight, diagonal). blocked must be
 * cleared and padded by cols + 1 bytes before cell 0 and after the last cell.
 * Returns OK or BAD_TOTAL. */
static int walk(const uint8_t *links, const int *offset, const double *tau, double phi,
                const double *eta, const double *corner, int improved, const double *step,
                int start, int goal, int max_steps, pcg64 *g, uint8_t *blocked, ant_path *p)
{
    int pos = start, prev = -1;
    p->cells[0] = start;
    p->n_steps = p->corners = p->reached = 0;
    p->length = 0.0;
    enter(blocked, offset, start);
    for (int s = 0; s < max_steps; s++) {
        unsigned open = links[pos] & ~(unsigned)blocked[pos];
        if (!open)
            break;  /* dead end: the ant is terminated unfinished */
        const double *tau_row = tau + (size_t)pos * 8;
        const double *turn = corner + (prev + 1) * 8;
        double cw[8], total = 0.0;
        int cd[8], k = 0;
        for (; open; open &= open - 1) {
            int d = __builtin_ctz(open);
            /* pow(t, 1.0) == t: skip the call */
            double w = (phi == 1.0 ? tau_row[d] : pow(tau_row[d], phi)) * eta[d & 1];
            if (improved)
                w *= turn[d];
            cw[k] = w;
            cd[k] = d;
            k++;
            total += w;
        }
        if (!(total > 0.0 && total <= DBL_MAX))
            return BAD_TOTAL;
        double draw = pcg_double(g), acc = 0.0;
        /* the last candidate is taken when no earlier one is, also when the
         * cumulative sum rounds to just below 1 */
        int pick = k - 1;
        for (int i = 0; i < k - 1; i++) {
            acc += cw[i] / total;
            if (draw < acc) {
                pick = i;
                break;
            }
        }
        int d = cd[pick];
        if (d != prev && prev >= 0)
            p->corners++;
        p->length += step[d & 1];
        p->dirs[p->n_steps] = (int8_t)d;
        p->n_steps++;
        pos += offset[d];
        p->cells[p->n_steps] = pos;
        enter(blocked, offset, pos);
        prev = d;
        if (pos == goal) {
            p->reached = 1;
            break;
        }
    }
    return OK;
}

static void copy_path(ant_path *dst, const ant_path *src)
{
    memcpy(dst->cells, src->cells, sizeof(int32_t) * (size_t)(src->n_steps + 1));
    memcpy(dst->dirs, src->dirs, sizeof(int8_t) * (size_t)src->n_steps);
    dst->n_steps = src->n_steps;
    dst->corners = src->corners;
    dst->reached = src->reached;
    dst->length = src->length;
    dst->cost = src->cost;
}

/* One colony run, as plan_cycle runs it per trial sub-goal. Arrays: links
 * (n = rows * cols, the open_directions table of the graph), tau (n * 8,
 * filled with tau0, then updated in place), corner (9, 8), key (n_key),
 * best_cells (max_steps + 1), best_dirs (max_steps), series (n_iters). A
 * straight step is cell_size long, a diagonal one cell_size * sqrt(2), and
 * its heuristic weight is pow(1 / step, gamma); the run builds both
 * straight/diagonal pairs itself.
 * Ant k of iteration it walks on the stream of the words (key..., it, k),
 * it from 1, and the repair draws from k = n_ants. max_steps must not
 * exceed n - 1. Returns OK, NO_PATH_STREAK, NO_PATH, BAD_TOTAL or NO_MEMORY;
 * on OK the best path is in
 * best_cells[0..*best_steps] and best_dirs[0..*best_steps - 1]. */
int colony_run(const uint8_t *links, int rows, int cols, double *tau, double cell_size,
               const double *corner, const uint32_t *key, int n_key, int start, int goal,
               double gamma, int n_iters, int n_ants, int max_steps, int improved, double phi,
               double rho, double q, double delta, double zeta, double tau0, int elite_cutoff,
               int32_t *best_cells, int8_t *best_dirs, int *best_steps, int *best_corners,
               double *best_length, double *series)
{
    const int m = n_ants, n = rows * cols;
    const size_t n_edges = (size_t)n * 8;
    const size_t ant_cells = (size_t)m * (size_t)(max_steps + 1);
    const size_t ant_dirs = (size_t)m * (size_t)max_steps;
    /* the walks' tabu mask, padded by cols + 1 bytes on each side */
    const size_t n_blocked = (size_t)n + 2 * ((size_t)cols + 1);
    /* one block, by alignment: the ants, then 32-bit ints, then bytes; the
     * tabu mask, cleared whole before each walk, ends it, so a short block
     * faults there */
    ant_path *ants = malloc(sizeof(ant_path) * (size_t)m
                            + sizeof(int32_t) * ((size_t)m + ant_cells + (size_t)n_key + 2)
                            + ant_dirs + n_blocked);
    if (!ants)
        return NO_MEMORY;
    int32_t *order = (int32_t *)(ants + m);
    int32_t *cell_buf = order + m;
    uint32_t *words = (uint32_t *)(cell_buf + ant_cells);
    int8_t *dir_buf = (int8_t *)(words + n_key + 2);
    uint8_t *padded = (uint8_t *)(dir_buf + ant_dirs);
    uint8_t *blocked = padded + cols + 1;
    ant_path best = {best_cells, best_dirs, 0, 0, 0, 0.0, INFINITY};
    int have_best = 0, fail_streak = 0, code = OK;
    const double keep = 1.0 - rho;
    int offset[8];
    const double step[2] = {cell_size, cell_size * sqrt(2.0)}; /* straight, diagonal */
    const double eta[2] = {pow(1.0 / step[0], gamma), pow(1.0 / step[1], gamma)};
    for (int k = 0; k < m; k++) {
        ants[k].cells = cell_buf + (size_t)k * (size_t)(max_steps + 1);
        ants[k].dirs = dir_buf + (size_t)k * (size_t)max_steps;
    }
    flat_offsets(cols, offset);
    memcpy(words, key, sizeof(uint32_t) * (size_t)n_key);
    for (size_t e = 0; e < n_edges; e++)
        tau[e] = tau0;
    for (int it = 0; it < n_iters; it++) {
        words[n_key] = (uint32_t)it + 1;
        int any_reached = 0;
        for (int k = 0; k < m; k++) {
            pcg64 g;
            words[n_key + 1] = (uint32_t)k;
            pcg_seed(&g, words, n_key + 2);
            memset(padded, 0, n_blocked);
            code = walk(links, offset, tau, phi, eta, corner, improved, step, start, goal,
                        max_steps, &g, blocked, &ants[k]);
            if (code != OK)
                goto done;
            if (ants[k].reached) {
                ants[k].cost = improved ? delta * ants[k].length + zeta * ants[k].corners
                                        : ants[k].length;
                any_reached = 1;
            }
        }

        if (!have_best && !any_reached) {
            /* no incumbent yet: skip repair and update, retry construction.
             * The improved loop gives up after three misses (its repair
             * stage needs an incumbent); the conventional one runs its
             * full budget. */
            fail_streak++;
            if (improved && fail_streak >= 3) {
                code = NO_PATH_STREAK;
                goto done;
            }
            series[it] = INFINITY;
            continue;
        }

        if (improved && have_best) {
            /* repair: copy the incumbent over an unfinished ant's walk when
             * there is one, otherwise over any ant's; the draw is
             * Generator.integers on the iteration's stream n_ants */
            int unfinished = 0;
            for (int k = 0; k < m; k++)
                if (!ants[k].reached)
                    order[unfinished++] = k;
            pcg64 g;
            words[n_key + 1] = (uint32_t)m;
            pcg_seed(&g, words, n_key + 2);
            int s = unfinished ? order[pcg_below(&g, (uint32_t)unfinished)]
                               : (int)pcg_below(&g, (uint32_t)m);
            copy_path(&ants[s], &best);
        }

        /* update: evaporate, then deposit q / cost along each finished path
         * in rank order; improved mode ranks by cost (stable on ties) and
         * keeps the first elite_cutoff */
        int r = 0;
        for (int k = 0; k < m; k++)
            if (ants[k].reached)
                order[r++] = k;
        if (improved) {
            for (int i = 1; i < r; i++) {
                int x = order[i], j = i;
                while (j > 0 && ants[order[j - 1]].cost > ants[x].cost) {
                    order[j] = order[j - 1];
                    j--;
                }
                order[j] = x;
            }
            if (r > elite_cutoff)
                r = elite_cutoff;
        }
        for (size_t e = 0; e < n_edges; e++)
            tau[e] *= keep;
        for (int i = 0; i < r; i++) {
            const ant_path *p = &ants[order[i]];
            double amount = q / p->cost;
            for (int j = 0; j < p->n_steps; j++)
                tau[(size_t)p->cells[j] * 8 + (size_t)p->dirs[j]] += amount;
        }

        int bi = -1;
        for (int k = 0; k < m; k++)
            if (ants[k].reached && ants[k].cost < best.cost) {
                best.cost = ants[k].cost;
                bi = k;
            }
        if (bi >= 0) {  /* never a repaired ant: its cost equals the incumbent's */
            copy_path(&best, &ants[bi]);
            have_best = 1;
        }
        series[it] = best.cost;
    }
    if (!have_best) {
        code = NO_PATH;
        goto done;
    }
    *best_steps = best.n_steps;
    *best_corners = best.corners;
    *best_length = best.length;

done:
    free(ants);
    return code;
}

/* Marks in reach the cells of the rows x cols grid 8-connected to cell id
 * start through traversable cells, start included, by the open_directions
 * table links. queue (rows * cols) is the breadth-first queue, passed in so
 * that the search allocates nothing. */
void reachable(const uint8_t *links, int rows, int cols, int start, int32_t *queue, bool *reach)
{
    int offset[8], count = 1;
    flat_offsets(cols, offset);
    memset(reach, 0, (size_t)rows * (size_t)cols);
    reach[start] = true;
    queue[0] = start;
    for (int head = 0; head < count; head++)
        for (unsigned open = links[queue[head]]; open; open &= open - 1) {
            int nid = queue[head] + offset[__builtin_ctz(open)];
            if (!reach[nid]) {
                reach[nid] = true;
                queue[count++] = nid;
            }
        }
}
