/* The paper's particle loops (Fig. 1 lines 9-11, Fig. 2) and the two
 * per-cell loops its redundant layout adds (section II), scalar C99.
 *
 * One statement of every hot kernel over the redundant [ncell][2^ndim]
 * rows, ndim in {2, 3}; built by repro/core/cbuild.py, called through
 * ctypes by CBackend.  The arithmetic is written to be BITWISE EQUAL to
 * repro/core/kernels.py (docs/kernels.md, "C rendering"):
 *
 *  - weights are left-fold products of (1 - d) / (0 + d) per axis, the
 *    values of Fig. 2's c + s*d tables (0 + d keeps d = -0.0 identical);
 *  - the gather is a left fold in corner order;
 *  - the deposit overwrites its columns: each starts from +0.0 and adds
 *    in particle order — the fold of one np.bincount per corner;
 *  - the rho fold starts every grid point from +0.0 and adds its corner
 *    entries in corner order; the field broadcast is one product;
 *  - build with -ffp-contract=off: a fused multiply-add rounds once
 *    where NumPy rounds twice.
 *
 * Every function is defined on every input: no out-of-range
 * double -> int64 conversion, no signed overflow, no index outside the
 * arrays.  Functions that index by a cell return -1, or the index of
 * the first particle (grid point) whose cell is outside [0, ncell) —
 * the deposit, the fold and the broadcast check before they write.
 */
#include <math.h>
#include <stdint.h>

#define MAXDIM 3
#define MAXCORNER 8

/* The loops below are written once over ndim (and the sweep over the
 * wrap variant) and instantiated by inlining with constant arguments;
 * without the attribute the compiler may keep one general copy. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

enum { WRAP_BRANCH, WRAP_MODULO, WRAP_BITWISE };
enum { ORDER_OTHER, ORDER_ROW_MAJOR, ORDER_COLUMN_MAJOR, ORDER_MORTON };

/* ------------------------------------------------------------------ */
/* CiC weights (Fig. 2): corner c takes d along the axes whose bit is
 * set, 1 - d along the others; axis 0 owns the most significant bit. */
INLINE void weights(const int ndim, const double *d, double *w)
{
    double lo[MAXDIM], hi[MAXDIM];
    for (int a = 0; a < ndim; a++) {
        lo[a] = 1.0 - d[a];
        hi[a] = 0.0 + d[a];
    }
    for (int c = 0; c < 1 << ndim; c++) {
        double p = (c >> (ndim - 1)) & 1 ? hi[0] : lo[0];
        for (int a = 1; a < ndim; a++)
            p *= (c >> (ndim - 1 - a)) & 1 ? hi[a] : lo[a];
        w[c] = p;
    }
}

/* Field at one particle from its row e[ndim][ncorner] (Fig. 1 line 9,
 * the gather half): per axis, a left fold over the corners. */
INLINE void gather(const int ndim, const double *row, const double *d,
                          double *e_p)
{
    const int nc = 1 << ndim;
    double w[MAXCORNER];
    weights(ndim, d, w);
    for (int a = 0; a < ndim; a++) {
        double acc = w[0] * row[a * nc];
        for (int c = 1; c < nc; c++)
            acc += w[c] * row[a * nc + c];
        e_p[a] = acc;
    }
}

/* ------------------------------------------------------------------ */
/* The three periodic wraps of one axis (paper section IV-C).
 *
 * x86's cvttsd2si returns INT64_MIN for NaN and anything outside
 * int64; in C that conversion is undefined, so it is spelled out.
 * With it a non-finite x comes back as a non-finite offset, exactly as
 * from NumPy on x86, and the supervisor's finite guard sees it. */
INLINE int64_t to_int64(double x)
{
    return fabs(x) < 0x1p63 ? (int64_t)x : INT64_MIN;
}

/* np.mod(x, nc) for nc > 0: the sign follows nc, a zero is +0.0 */
INLINE double floored_mod(double x, double nc)
{
    double m = fmod(x, nc);
    if (m != 0.0)
        return m < 0.0 ? m + nc : m;
    return 0.0;
}

INLINE void wrap(const int variant, double x, int64_t nc,
                        int64_t *icoord, double *offset)
{
    if (variant == WRAP_BITWISE) {
        /* floor(x) = (int)x - (x < 0); mod = & (nc - 1), nc = 2^k */
        uint64_t fx = (uint64_t)to_int64(x) - (uint64_t)(x < 0.0);
        *icoord = (int64_t)(fx & (uint64_t)(nc - 1));
        *offset = x - (double)(int64_t)fx;
    } else if (variant == WRAP_MODULO) {
        double fx = floor(x);
        *icoord = to_int64(floored_mod(fx, (double)nc));
        *offset = x - fx;
    } else {
        if (x < 0.0 || x >= (double)nc)
            x = floored_mod(x, (double)nc);
        double fx = floor(x);
        int64_t i = to_int64(fx);
        if (i == nc) { /* the float modulo rounded up to nc itself */
            i = 0;
            fx = 0.0;
            x = 0.0;
        }
        *icoord = i;
        *offset = x - fx;
    }
}

/* ------------------------------------------------------------------ */
/* Cell index of a coordinate tuple, in the closed forms section IV-B
 * picks because they inline here: scan orders, and Morton by
 * shift-and-mask dilation (Raman & Wise; no lookup table).  Unsigned
 * throughout, so coordinates of a non-finite position wrap instead of
 * overflowing. */
INLINE uint64_t dilate(const int ndim, uint64_t x)
{
    if (ndim == 2) { /* a 16-bit value in each 32-bit half */
        x &= 0x0000FFFF0000FFFF;
        x = (x | (x << 8)) & 0x00FF00FF00FF00FF;
        x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F;
        x = (x | (x << 2)) & 0x3333333333333333;
        x = (x | (x << 1)) & 0x5555555555555555;
    } else {
        x &= 0xFFFF;
        x = (x | (x << 32)) & 0xFFFF00000000FFFF;
        x = (x | (x << 16)) & 0x00FF0000FF0000FF;
        x = (x | (x << 8)) & 0xF00F00F00F00F00F;
        x = (x | (x << 4)) & 0x30C30C30C30C30C3;
        x = (x | (x << 2)) & 0x9249249249249249;
    }
    return x;
}

INLINE int64_t encode(const int ndim, const int order,
                             const int64_t *extent, const int *log2_extent,
                             const int64_t *icoord)
{
    uint64_t code = 0;
    if (order == ORDER_ROW_MAJOR) {
        for (int a = 0; a < ndim; a++)
            code = code * (uint64_t)extent[a] + (uint64_t)icoord[a];
    } else if (order == ORDER_COLUMN_MAJOR) {
        for (int a = ndim - 1; a >= 0; a--)
            code = code * (uint64_t)extent[a] + (uint64_t)icoord[a];
    } else {
        /* the low `shared` bits of every axis interleave (last axis
         * least significant); longer axes append their surplus above */
        int shared = log2_extent[0];
        for (int a = 1; a < ndim; a++)
            if (log2_extent[a] < shared)
                shared = log2_extent[a];
        const uint64_t mask = ((uint64_t)1 << shared) - 1;
        int shift = ndim * shared;
        if (ndim == 2) { /* both axes in one dilation: 1 ns a particle */
            const uint64_t t = dilate(2, ((uint64_t)icoord[0] & mask) << 32
                                             | ((uint64_t)icoord[1] & mask));
            code = ((t >> 31) | t) & 0xFFFFFFFF;
        } else
            for (int a = 0; a < ndim; a++)
                code |= dilate(ndim, (uint64_t)icoord[a] & mask)
                        << (ndim - 1 - a);
        for (int a = 0; a < ndim; a++)
            if (log2_extent[a] > shared) {
                code |= (((uint64_t)icoord[a] >> shared) & 0xFFFF) << shift;
                shift += log2_extent[a] - shared;
            }
    }
    return (int64_t)code;
}

/* Scan orders decode in one division per axis, so their coordinates
 * are recomputed rather than stored (section IV-B). */
INLINE void decode_scan(const int ndim, const int order,
                               const int64_t *extent, int64_t icell,
                               int64_t *icoord)
{
    uint64_t rest = (uint64_t)icell;
    for (int k = 0; k < ndim; k++) {
        const int a = order == ORDER_ROW_MAJOR ? ndim - 1 - k : k;
        icoord[a] = (int64_t)(rest % (uint64_t)extent[a]);
        rest /= (uint64_t)extent[a];
    }
}

/* ------------------------------------------------------------------ */
/* One pass over the population: the position update alone, or — with
 * field rows `e` — gather, kick and position update per particle.
 * `d`, `v`, `icoord` are arrays of ndim column pointers; `icoord` is
 * NULL when the coordinates are not stored (scan orders only).  The
 * sweep reads the source columns and writes the `*_out` ones: the same
 * pointers update in place, others stage the result elsewhere (the
 * numpy-mp back buffer).  A particle's inputs are all read before any
 * of its outputs is written, so either is safe. */
typedef struct {
    int variant, order;
    int64_t n, ncell;
    const double *e, *coef, *scale;
    int64_t extent[MAXDIM];
    int log2_extent[MAXDIM];
    const int64_t *icell;
    double *const *d, *const *v;
    int64_t *const *icoord;
    int64_t *icell_out;
    double *const *d_out;
    int64_t *const *icoord_out;
} sweep_args;

/* The loop, over compile-time `fuse`, `ndim`, `variant` and `stored`:
 * sweep() below instantiates every combination, so that each runs
 * without a per-particle dispatch (a third faster than one loop that
 * tests them). */
INLINE int64_t sweep_loop(const int fuse, const int ndim, const int variant,
                          const int stored, const sweep_args *s)
{
    const int width = ndim << ndim;
    for (int64_t k = 0; k < s->n; k++) {
        int64_t i[MAXDIM];
        double dk[MAXDIM], vk[MAXDIM];
        for (int a = 0; a < ndim; a++) {
            dk[a] = s->d[a][k];
            vk[a] = s->v[a][k];
        }
        if (fuse) { /* Fig. 1 line 9 */
            double ek[MAXDIM];
            if ((uint64_t)s->icell[k] >= (uint64_t)s->ncell)
                return k;
            gather(ndim, s->e + s->icell[k] * width, dk, ek);
            for (int a = 0; a < ndim; a++) {
                vk[a] += s->coef[a] * ek[a];
                s->v[a][k] = vk[a];
            }
        }
        /* Fig. 1 line 10: x = i + d + scale * v per axis, wrapped */
        if (stored)
            for (int a = 0; a < ndim; a++)
                i[a] = s->icoord[a][k];
        else
            decode_scan(ndim, s->order, s->extent, s->icell[k], i);
        for (int a = 0; a < ndim; a++) {
            double x = (double)i[a] + dk[a] + s->scale[a] * vk[a];
            wrap(variant, x, s->extent[a], &i[a], &s->d_out[a][k]);
            if (stored)
                s->icoord_out[a][k] = i[a];
        }
        if (s->order != ORDER_OTHER)
            s->icell_out[k] = encode(ndim, s->order, s->extent, s->log2_extent, i);
    }
    return -1;
}

INLINE int64_t sweep_variant(const int fuse, const int ndim, const int variant,
                             const sweep_args *s)
{
    return s->icoord ? sweep_loop(fuse, ndim, variant, 1, s)
                     : sweep_loop(fuse, ndim, variant, 0, s);
}

INLINE int64_t sweep_ndim(const int fuse, const int ndim, const sweep_args *s)
{
    switch (s->variant) {
    case WRAP_BRANCH:
        return sweep_variant(fuse, ndim, WRAP_BRANCH, s);
    case WRAP_MODULO:
        return sweep_variant(fuse, ndim, WRAP_MODULO, s);
    default:
        return sweep_variant(fuse, ndim, WRAP_BITWISE, s);
    }
}

INLINE int64_t sweep(const int fuse, int ndim, int64_t n, int64_t ncell,
                     const double *e, const double *coef, int variant,
                     int order, const int64_t *extent, const double *scale,
                     const int64_t *icell, double *const *d,
                     double *const *v, int64_t *const *icoord,
                     int64_t *icell_out, double *const *d_out,
                     int64_t *const *icoord_out)
{
    sweep_args s;
    s.variant = variant, s.order = order;
    s.n = n, s.ncell = ncell;
    s.e = e, s.coef = coef, s.scale = scale;
    s.icell = icell, s.d = d, s.v = v, s.icoord = icoord;
    s.icell_out = icell_out, s.d_out = d_out, s.icoord_out = icoord_out;
    for (int a = 0; a < ndim; a++) {
        s.extent[a] = extent[a];
        s.log2_extent[a] = 0;
        while (s.log2_extent[a] < 31
               && ((int64_t)2 << s.log2_extent[a]) <= extent[a])
            s.log2_extent[a]++;
    }
    return ndim == 2 ? sweep_ndim(fuse, 2, &s) : sweep_ndim(fuse, 3, &s);
}

/* ------------------------------------------------------------------ */
/* The row kernels' loops over a compile-time ndim. */
INLINE int64_t interp_loop(const int ndim, int64_t n, int64_t ncell,
                           const double *e, const int64_t *icell,
                           double *const *d, double *const *e_p)
{
    const int width = ndim << ndim;
    for (int64_t k = 0; k < n; k++) {
        double dk[MAXDIM], ek[MAXDIM];
        if ((uint64_t)icell[k] >= (uint64_t)ncell)
            return k;
        for (int a = 0; a < ndim; a++)
            dk[a] = d[a][k];
        gather(ndim, e + icell[k] * width, dk, ek);
        for (int a = 0; a < ndim; a++)
            e_p[a][k] = ek[a];
    }
    return -1;
}

/* `col[c]` is corner c's column, cell j at col[c][j * stride], or NULL
 * for a corner the caller does not own; every owned column is zeroed
 * over its ncell cells, then folded.  With compile-time `row` the
 * columns are known to be one [ncell][ncorner] array, so a particle
 * adds one contiguous row (8 % faster in 2D than four columns).  ndim
 * must be a constant too: with a run-time ndim the loop measured five
 * times slower.  The cells were checked by the caller. */
INLINE void deposit_loop(const int ndim, const int row, int64_t n,
                         int64_t ncell, double *const *col, int64_t stride,
                         const int64_t *icell, double *const *d,
                         double charge)
{
    const int nc = 1 << ndim;
    double *cp[MAXCORNER];
    for (int c = 0; c < nc; c++)
        cp[c] = col[c];
    if (row)
        for (int64_t j = 0; j < ncell * nc; j++)
            cp[0][j] = 0.0;
    else
        for (int c = 0; c < nc; c++)
            if (cp[c])
                for (int64_t j = 0; j < ncell; j++)
                    cp[c][j * stride] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double dk[MAXDIM], w[MAXCORNER];
        for (int a = 0; a < ndim; a++)
            dk[a] = d[a][k];
        weights(ndim, dk, w);
        if (row) {
            double *r = cp[0] + icell[k] * nc;
            for (int c = 0; c < nc; c++)
                r[c] += w[c] * charge;
        } else
            for (int c = 0; c < nc; c++)
                if (cp[c])
                    cp[c][icell[k] * stride] += w[c] * charge;
    }
}

/* -1, or the first k with key[k] outside [0, bound).  A branch-free OR
 * per block (the top bit of key, or of bound - 1 - key, is set exactly
 * for a key outside) so the pass runs at memory speed; only a block
 * that fails is searched. */
static int64_t first_outside(int64_t n, const int64_t *key, int64_t bound)
{
    if (bound <= 0)
        return n > 0 ? 0 : -1;
    const uint64_t last = (uint64_t)bound - 1;
    for (int64_t lo = 0; lo < n; lo += 4096) {
        const int64_t hi = n - lo < 4096 ? n : lo + 4096;
        uint64_t bits = 0;
        for (int64_t k = lo; k < hi; k++)
            bits |= (uint64_t)key[k] | (last - (uint64_t)key[k]);
        if (bits >> 63)
            for (int64_t k = lo; k < hi; k++)
                if ((uint64_t)key[k] > last)
                    return k;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* The per-cell half of the step (section II): folding the deposited
 * corner charges onto grid points before the solve, and broadcasting
 * the solved field back into the corner rows after it.  Both walk the
 * grid points and read the layout only through `cell_map`, the
 * grid-shaped array of the cell row each grid point's cell is stored
 * in (the ordering's encode), so one loop serves every ordering: rows
 * no cell maps to (L4D padding) are neither read nor written.
 *
 * For the grid point at coordinates i, `here[a]` / `next[a]` are the
 * flat offsets of axis a's coordinate i[a] and of its periodic
 * neighbour one step back (fold) or ahead (broadcast); corner c takes
 * the neighbour along the axes whose bit is set, axis 0 on the most
 * significant bit, as in weights(). */
INLINE int64_t corner_point(const int ndim, int c, const int64_t *here,
                            const int64_t *next)
{
    int64_t p = 0;
    for (int a = 0; a < ndim; a++)
        p += (c >> (ndim - 1 - a)) & 1 ? next[a] : here[a];
    return p;
}

/* The walk visits the grid points in tiles of TILE along every axis —
 * C order inside a tile, tiles in C order — so that the rows one tile
 * touches are few and, on a curve, one run: a Morton tile is TILE^ndim
 * consecutive rows (walked in C order, the 512^2 Morton broadcast took
 * 3.0 ms against 1.7 ms tiled, the fold 1.3 against 0.9; row-major did
 * not move).  The order cannot change a value: every grid point writes
 * only its own output.
 *
 * grid_start sets each axis's flat stride and the first point `i` (in
 * tile `t`) and returns the number of points; grid_next steps to the
 * next point and returns 0 after the last. */
#define TILE 8

INLINE int64_t grid_start(const int ndim, const int64_t *extent,
                          int64_t *stride, int64_t *t, int64_t *i)
{
    int64_t npoint = 1;
    for (int a = ndim - 1; a >= 0; a--) {
        stride[a] = npoint;
        npoint *= extent[a];
        t[a] = i[a] = 0;
    }
    return npoint;
}

INLINE int grid_next(const int ndim, const int64_t *extent, int64_t *t,
                     int64_t *i)
{
    for (int a = ndim - 1; a >= 0; a--) {
        if (++i[a] < extent[a] && i[a] < t[a] + TILE)
            return 1;
        i[a] = t[a];
    }
    for (int a = ndim - 1; a >= 0; a--) {
        t[a] += TILE;
        if (t[a] < extent[a]) {
            for (int b = 0; b < ndim; b++)
                i[b] = t[b];
            return 1;
        }
        t[a] = 0;
    }
    return 0;
}

/* rho fold: out[g] = +0.0, then + rho[cell of the corner-c neighbour
 * behind g][c] for c in corner order — the grid point is corner c of
 * the cell one corner offset behind it. */
INLINE void reduce_loop(const int ndim, const int64_t *extent,
                        const int64_t *cell_map, const double *rho,
                        double *out)
{
    const int nc = 1 << ndim;
    int64_t stride[MAXDIM], t[MAXDIM], i[MAXDIM];
    if (grid_start(ndim, extent, stride, t, i) == 0)
        return;
    do {
        int64_t here[MAXDIM], back[MAXDIM];
        for (int a = 0; a < ndim; a++) {
            here[a] = i[a] * stride[a];
            back[a] = (i[a] ? i[a] - 1 : extent[a] - 1) * stride[a];
        }
        double acc = 0.0;
        for (int c = 0; c < nc; c++)
            acc += rho[cell_map[corner_point(ndim, c, here, back)] * nc + c];
        out[corner_point(ndim, 0, here, back)] = acc;
    } while (grid_next(ndim, extent, t, i));
}

/* Field broadcast: the row of the cell at g gets, in column group k,
 * comp[k][corner-c neighbour ahead of g] * scale[k] for every corner. */
INLINE void broadcast_loop(const int ndim, const int64_t *extent,
                           const int64_t *cell_map,
                           const double *const *comp, const double *scale,
                           double *e)
{
    const int nc = 1 << ndim, width = ndim << ndim;
    int64_t stride[MAXDIM], t[MAXDIM], i[MAXDIM];
    if (grid_start(ndim, extent, stride, t, i) == 0)
        return;
    /* copied out of the argument arrays: the row stores below may not
     * be assumed not to overwrite a double the compiler would reload */
    const double *src[MAXDIM];
    double s[MAXDIM];
    for (int k = 0; k < ndim; k++) {
        src[k] = comp[k];
        s[k] = scale[k];
    }
    do {
        int64_t here[MAXDIM], ahead[MAXDIM];
        double v[MAXDIM * MAXCORNER];
        for (int a = 0; a < ndim; a++) {
            here[a] = i[a] * stride[a];
            ahead[a] = (i[a] + 1 < extent[a] ? i[a] + 1 : 0) * stride[a];
        }
        for (int c = 0; c < nc; c++) {
            const int64_t p = corner_point(ndim, c, here, ahead);
            for (int k = 0; k < ndim; k++)
                v[k * nc + c] = src[k][p] * s[k];
        }
        double *row = e + cell_map[corner_point(ndim, 0, here, ahead)] * width;
        for (int j = 0; j < width; j++)
            row[j] = v[j];
    } while (grid_next(ndim, extent, t, i));
}

/* ------------------------------------------------------------------ */
/* Exported entry points.  Column-pointer arguments hold ndim pointers
 * to contiguous columns n long; ndim is 2 or 3. */

/* Gather: e_p[a][k] = field along axis a at particle k. */
int64_t interp_rows(int ndim, int64_t n, int64_t ncell, const double *e,
                    const int64_t *icell, double *const *d,
                    double *const *e_p)
{
    return ndim == 2 ? interp_loop(2, n, ncell, e, icell, d, e_p)
                     : interp_loop(3, n, ncell, e, icell, d, e_p);
}

/* Fig. 1 line 10 over the population (one of the three loops of
 * section IV-A), from the source columns into the `*_out` ones, which
 * may be the same. */
void push(int ndim, int64_t n, int variant, int order, const int64_t *extent,
          const double *scale, const int64_t *icell, double *const *d,
          double *const *v, int64_t *const *icoord, int64_t *icell_out,
          double *const *d_out, int64_t *const *icoord_out)
{
    sweep(0, ndim, n, 0, 0, 0, variant, order, extent, scale, icell, d, v,
          icoord, icell_out, d_out, icoord_out);
}

/* Fig. 1 lines 9-10 in one pass per particle, in place: the paper's
 * baseline loop, before section IV-A splits it. */
int64_t fused(int ndim, int64_t n, int64_t ncell, const double *e,
              const double *coef, int variant, int order,
              const int64_t *extent, const double *scale, int64_t *icell,
              double *const *d, double *const *v, int64_t *const *icoord)
{
    return sweep(1, ndim, n, ncell, e, coef, variant, order, extent, scale,
                 icell, d, v, icoord, icell, d, icoord);
}

/* Fig. 1 line 11 / Fig. 2 (bottom), into 1 << ndim column pointers
 * (NULL: skip that corner) whose cells are `stride` doubles apart: each
 * owned column is overwritten with its fold — rho = sum, not rho += sum.
 * The columns of one row-major [ncell][ncorner] array give each
 * particle one contiguous row. */
int64_t deposit_rows(int ndim, int64_t n, int64_t ncell, double *const *col,
                     int64_t stride, const int64_t *icell, double *const *d,
                     double charge)
{
    const int nc = 1 << ndim;
    const int64_t bad = first_outside(n, icell, ncell);
    if (bad >= 0)
        return bad;
    int row = stride == nc && col[0];
    for (int c = 1; c < nc; c++)
        row = row && (uintptr_t)col[c]
                         == (uintptr_t)col[0] + c * sizeof(double);
    if (ndim == 2) {
        if (row)
            deposit_loop(2, 1, n, ncell, col, stride, icell, d, charge);
        else
            deposit_loop(2, 0, n, ncell, col, stride, icell, d, charge);
    } else if (row)
        deposit_loop(3, 1, n, ncell, col, stride, icell, d, charge);
    else
        deposit_loop(3, 0, n, ncell, col, stride, icell, d, charge);
    return -1;
}

/* Section II's fold: `out` (grid-shaped, `extent`) from the corner rows
 * `rho` [ncell][1 << ndim] through the grid-shaped `cell_map`.  Returns
 * -1, or the first grid point whose cell is outside [0, ncell). */
int64_t reduce_rows(int ndim, const int64_t *extent, int64_t ncell,
                    const int64_t *cell_map, const double *rho, double *out)
{
    int64_t npoint = 1;
    for (int a = 0; a < ndim; a++)
        npoint *= extent[a];
    const int64_t bad = first_outside(npoint, cell_map, ncell);
    if (bad >= 0)
        return bad;
    if (ndim == 2)
        reduce_loop(2, extent, cell_map, rho, out);
    else
        reduce_loop(3, extent, cell_map, rho, out);
    return -1;
}

/* Its inverse: ndim grid-shaped components, each times its scale, into
 * the rows `e` [ncell][ndim << ndim] of every cell `cell_map` names. */
int64_t broadcast_rows(int ndim, const int64_t *extent, int64_t ncell,
                       const int64_t *cell_map, const double *const *comp,
                       const double *scale, double *e)
{
    int64_t npoint = 1;
    for (int a = 0; a < ndim; a++)
        npoint *= extent[a];
    const int64_t bad = first_outside(npoint, cell_map, ncell);
    if (bad >= 0)
        return bad;
    if (ndim == 2)
        broadcast_loop(2, extent, cell_map, comp, scale, e);
    else
        broadcast_loop(3, extent, cell_map, comp, scale, e);
    return -1;
}

/* Stable counting sort by cell (section IV-E): histogram, exclusive
 * prefix sum, cursor scatter.  `cursor` is ncell entries of scratch.
 * Returns -1, or the index of the first key outside [0, ncell). */
int64_t sort_permutation(int64_t n, int64_t ncell, const int64_t *key,
                         int64_t *cursor, int64_t *perm)
{
    for (int64_t c = 0; c < ncell; c++)
        cursor[c] = 0;
    for (int64_t k = 0; k < n; k++) {
        if ((uint64_t)key[k] >= (uint64_t)ncell)
            return k;
        cursor[key[k]]++;
    }
    int64_t start = 0;
    for (int64_t c = 0; c < ncell; c++) {
        const int64_t count = cursor[c];
        cursor[c] = start;
        start += count;
    }
    for (int64_t k = 0; k < n; k++)
        perm[cursor[key[k]]++] = k;
    return -1;
}
