/* Compiled colony run of antnav.aco.plan_subpath and reachability search of
 * antnav.aco.GridGraph.reachable_from, both on the graph's traversable mask.
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
 * The mask does not change during a run, so colony_run tests it once: each
 * cell gets an open-direction byte, and a walk steps by a flat offset to the
 * neighbours its byte lets through. A step weighs only those candidates,
 * by the reference loop's tau^phi * eta^gamma on the same operands. Repair
 * copies the incumbent over the chosen ant's walk, so the rank and the
 * deposits read the ants alone. Each call takes its scratch from one heap
 * block, sized and sliced in one place.
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

enum {
    COLONY_OK = 0,
    COLONY_NO_PATH_STREAK = 1, /* improved mode: no finisher in the first 3 iterations */
    COLONY_NO_PATH = 2,        /* no finisher in any iteration */
    COLONY_BAD_TOTAL = 3,      /* a roulette total was 0, infinite or NaN */
    COLONY_NO_MEMORY = 4,
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
    int steps, corners, reached;
    double length, cost;
} ant_path;

/* (row, column) offset per direction index: antnav.geometry.DIR_OFFSETS */
static const int DIR_OFFSETS[8][2] = {{1, 0}, {1, 1}, {0, 1}, {-1, 1},
                                      {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};

/* Id of the neighbour of cell id pos in direction d, or -1 when off the grid or blocked */
static int neighbour(const bool *mask, int rows, int cols, int pos, int d)
{
    int r = pos / cols + DIR_OFFSETS[d][0], c = pos % cols + DIR_OFFSETS[d][1];
    return r >= 0 && r < rows && c >= 0 && c < cols && mask[r * cols + c] ? r * cols + c : -1;
}

/* One roulette walk with a tabu list and a step cap. links[pos] has bit d set
 * when the neighbour pos + offset[d] is on the grid and traversable; the
 * weight of an open candidate is tau^phi * eta^gamma of its edge, times its
 * turn factor in improved mode. Returns COLONY_OK or COLONY_BAD_TOTAL. */
static int walk(const unsigned char *links, const int *offset, const double *tau, double phi,
                const double *eta_g, const double *corner, int improved, const double *steps,
                int start, int goal, int max_steps, pcg64 *g, unsigned char *tabu, ant_path *p)
{
    int pos = start, prev = -1;
    p->cells[0] = start;
    p->steps = p->corners = p->reached = 0;
    p->length = 0.0;
    tabu[start] = 1;
    for (int s = 0; s < max_steps; s++) {
        const double *tau_row = tau + (size_t)pos * 8;
        const double *turn = corner + (prev + 1) * 8;
        const unsigned open = links[pos];
        double cw[8], total = 0.0;
        int cn[8], cd[8], k = 0;
        for (int d = 0; d < 8; d++) {
            if (!(open >> d & 1u))
                continue;
            int nid = pos + offset[d];
            if (tabu[nid])
                continue;
            /* pow(t, 1.0) == t: skip the call */
            double w = (phi == 1.0 ? tau_row[d] : pow(tau_row[d], phi)) * eta_g[d];
            if (improved)
                w *= turn[d];
            cw[k] = w;
            cn[k] = nid;
            cd[k] = d;
            k++;
            total += w;
        }
        if (k == 0)
            break;  /* dead end: the ant is terminated unfinished */
        if (!(total > 0.0 && total <= DBL_MAX))
            return COLONY_BAD_TOTAL;
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
        p->length += steps[d];
        p->dirs[p->steps] = (int8_t)d;
        p->steps++;
        pos = cn[pick];
        p->cells[p->steps] = pos;
        tabu[pos] = 1;
        prev = d;
        if (pos == goal) {
            p->reached = 1;
            break;
        }
    }
    return COLONY_OK;
}

static void copy_path(ant_path *dst, const ant_path *src)
{
    memcpy(dst->cells, src->cells, sizeof(int32_t) * (size_t)(src->steps + 1));
    memcpy(dst->dirs, src->dirs, sizeof(int8_t) * (size_t)src->steps);
    dst->steps = src->steps;
    dst->corners = src->corners;
    dst->reached = src->reached;
    dst->length = src->length;
    dst->cost = src->cost;
}

/* The colony run of plan_subpath. Arrays: mask (rows, cols), tau (n * 8 for
 * n = rows * cols, filled with tau0, then updated in place), corner (9, 8),
 * key (n_key), best_cells (max_steps + 1), best_dirs (max_steps), series
 * (n_iters). A straight step is cell_size long and has the heuristic weight
 * eta_straight, a diagonal one cell_size * sqrt(2) and eta_diagonal; the
 * run builds its per-direction tables from them. Ant k of iteration it
 * walks on the stream of the words (key..., it, k), it from 1, and the
 * repair draws from k = n_ants. max_steps must not exceed n - 1. The
 * open-direction bytes and the flat offsets are built once per call, before
 * the first iteration. On COLONY_OK the best path is in
 * best_cells[0..*best_steps] and best_dirs[0..*best_steps - 1]. */
int colony_run(const bool *mask, int rows, int cols, double *tau, double tau0,
               double cell_size, double eta_straight, double eta_diagonal, const double *corner,
               const uint32_t *key, int n_key, int n_iters, int n_ants, int max_steps,
               int start, int goal, int improved, double phi, double rho, double q,
               double delta, double zeta, int elite_cutoff,
               int32_t *best_cells, int8_t *best_dirs, int *best_steps, int *best_corners,
               double *best_length, double *series)
{
    const int m = n_ants, n = rows * cols;
    const size_t n_edges = (size_t)n * 8;
    const size_t ant_cells = (size_t)m * (size_t)(max_steps + 1);
    const size_t ant_dirs = (size_t)m * (size_t)max_steps;
    /* one block, by alignment: the ants, then 32-bit ints, then bytes; tabu,
     * cleared whole before each walk, ends it, so a short block faults there */
    ant_path *ants = malloc(sizeof(ant_path) * (size_t)m
                            + sizeof(int32_t) * ((size_t)m + ant_cells + (size_t)n_key + 2)
                            + ant_dirs + 2 * (size_t)n);
    if (!ants)
        return COLONY_NO_MEMORY;
    int32_t *order = (int32_t *)(ants + m);
    int32_t *cell_buf = order + m;
    uint32_t *words = (uint32_t *)(cell_buf + ant_cells);
    int8_t *dir_buf = (int8_t *)(words + n_key + 2);
    unsigned char *links = (unsigned char *)(dir_buf + ant_dirs);
    unsigned char *tabu = links + n;
    ant_path best = {best_cells, best_dirs, 0, 0, 0, 0.0, INFINITY};
    int have_best = 0, fail_streak = 0, code = COLONY_OK;
    const double keep = 1.0 - rho;
    int offset[8];
    double steps[8], eta_g[8];
    for (int k = 0; k < m; k++) {
        ants[k].cells = cell_buf + (size_t)k * (size_t)(max_steps + 1);
        ants[k].dirs = dir_buf + (size_t)k * (size_t)max_steps;
    }
    for (int d = 0; d < 8; d++) {
        bool diagonal = DIR_OFFSETS[d][0] != 0 && DIR_OFFSETS[d][1] != 0;
        steps[d] = diagonal ? cell_size * sqrt(2.0) : cell_size;
        eta_g[d] = diagonal ? eta_diagonal : eta_straight;
        offset[d] = DIR_OFFSETS[d][0] * cols + DIR_OFFSETS[d][1];
    }
    for (int i = 0; i < n; i++) {
        unsigned open = 0;
        for (int d = 0; d < 8; d++)
            if (neighbour(mask, rows, cols, i, d) >= 0)
                open |= 1u << d;
        links[i] = (unsigned char)open;
    }
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
            memset(tabu, 0, (size_t)n);
            code = walk(links, offset, tau, phi, eta_g, corner, improved, steps, start, goal,
                        max_steps, &g, tabu, &ants[k]);
            if (code != COLONY_OK)
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
                code = COLONY_NO_PATH_STREAK;
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
            for (int j = 0; j < p->steps; j++)
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
        code = COLONY_NO_PATH;
        goto done;
    }
    *best_steps = best.steps;
    *best_corners = best.corners;
    *best_length = best.length;

done:
    free(ants);
    return code;
}

/* Marks in reach the cells of the rows x cols mask 8-connected to cell id start
 * through traversable cells, start included. queue (rows * cols) is the
 * breadth-first queue, passed in so that the search allocates nothing. */
void reachable(const bool *mask, int rows, int cols, int start, int32_t *queue, bool *reach)
{
    int count = 1;
    memset(reach, 0, (size_t)rows * (size_t)cols);
    reach[start] = true;
    queue[0] = start;
    for (int head = 0; head < count; head++)
        for (int d = 0; d < 8; d++) {
            int nid = neighbour(mask, rows, cols, queue[head], d);
            if (nid >= 0 && !reach[nid]) {
                reach[nid] = true;
                queue[count++] = nid;
            }
        }
}
