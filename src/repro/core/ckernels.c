/* The paper's particle loops (Fig. 1 lines 9-11, Fig. 2) and the two
 * per-cell loops its redundant layout adds (section II), in C99 that
 * GCC vectorizes where section IV says it should (the CLONES macro
 * below).
 *
 * One statement of every hot kernel over the redundant [ncell][2^ndim]
 * rows, ndim in {2, 3}; built by repro/core/cbuild.py, called through
 * ctypes by CBackend.  The arithmetic is written to be BITWISE EQUAL to
 * repro/core/kernels.py (docs/kernels.md, "C rendering"):
 *
 *  - weights are left-fold products of (1 - d) / (0 + d) per axis, the
 *    values of Fig. 2's c + s*d tables (0 + d keeps d = -0.0 identical);
 *  - the gather is a left fold in corner order; update-v adds e_p to v
 *    (hoisted units, section IV-D: the field rows are pre-scaled, so
 *    there is no coefficient, as NumPy's kick has none for 1.0);
 *  - the deposit overwrites its columns: each starts from +0.0 and adds
 *    in particle order — the fold of one np.bincount per corner;
 *  - the rho fold starts every grid point from +0.0 and adds its corner
 *    entries in corner order; the field broadcast is one product;
 *  - the energies' sum of squares is a left fold over the columns of
 *    (c * scale)^2 per term, and NumPy's pairwise np.sum over the terms
 *    (sum_squares below);
 *  - build with -ffp-contract=off: a fused multiply-add rounds once
 *    where NumPy rounds twice.  A vector lane runs the same operations
 *    in the same order as the scalar statement, so vectorizing moves
 *    no bit.
 *
 * Every function is defined on every input: no out-of-range
 * double -> int64 conversion, no signed overflow, no index outside the
 * arrays.  Functions that index by a cell return -1, or the index of
 * the first particle (grid point) whose cell is outside [0, ncell) —
 * update-v, the push-and-update-v pass, the deposit, the fold and the
 * broadcast check before they write.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime under -std=c99 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

#define MAXDIM 3
#define MAXCORNER 8

/* The loops below are written once over ndim (and the push over the
 * wrap variant and the ordering) and instantiated by
 * inlining with constant arguments; without the attribute the compiler
 * may keep one general copy. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* The hot entry points (update-v, the bitwise push, the deposit, the
 * energies' sum of squares) are compiled twice from the one statement:
 * for the x86-64 baseline and for x86-64-v4 (AVX-512 F/BW/CD/DQ/VL),
 * and the dynamic loader's ifunc resolver binds the clone the host
 * runs, so one cached object serves every host.  AVX2 alone would not
 * vectorize the push: converting int64 to double (and back) needs
 * AVX-512DQ.  Neither clone contracts or reassociates (-ffp-contract=off,
 * no -ffast-math): both give the same bits.  Off x86-64, without glibc
 * (no ifunc), before GCC 12 (no arch=x86-64-v4 clones) and under
 * -DCKERNELS_NO_CLONES (the tests build the baseline alone with it, to
 * compare the two), CLONES is empty and there is one body. */
#if !defined(CKERNELS_NO_CLONES) && defined(__x86_64__) && defined(__GLIBC__) \
    && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CKERNELS_CLONED 1
#define CLONES __attribute__((target_clones("default", "arch=x86-64-v4")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

/* The wrap variant a grid runs, as repro.core.kernels.wrap_for names
 * it: bitwise on power-of-two extents, modulo on any other, the mirror
 * fold between reflecting walls. */
enum { WRAP_MODULO, WRAP_BITWISE, WRAP_REFLECT };
enum { ORDER_OTHER, ORDER_ROW_MAJOR, ORDER_COLUMN_MAJOR, ORDER_MORTON };

/* ------------------------------------------------------------------ */
/* CiC weights (Fig. 2) of one particle at offsets (d0, d1[, d2]):
 * corner c takes d along the axes whose bit is set, 1 - d along the
 * others; axis 0 owns the most significant bit.  C's a * b * c is the
 * left fold over the axes. */
INLINE void weights(const int ndim, double d0, double d1, double d2,
                    double *w)
{
    const double lo0 = 1.0 - d0, hi0 = 0.0 + d0;
    const double lo1 = 1.0 - d1, hi1 = 0.0 + d1;
    if (ndim == 2) {
        w[0] = lo0 * lo1;
        w[1] = lo0 * hi1;
        w[2] = hi0 * lo1;
        w[3] = hi0 * hi1;
    } else {
        const double lo2 = 1.0 - d2, hi2 = 0.0 + d2;
        w[0] = lo0 * lo1 * lo2;
        w[1] = lo0 * lo1 * hi2;
        w[2] = lo0 * hi1 * lo2;
        w[3] = lo0 * hi1 * hi2;
        w[4] = hi0 * lo1 * lo2;
        w[5] = hi0 * lo1 * hi2;
        w[6] = hi0 * hi1 * lo2;
        w[7] = hi0 * hi1 * hi2;
    }
}

/* One axis of the field at a particle from its nc corner values
 * e[at .. at + nc) (Fig. 1 line 9, the gather half): a left fold over
 * the corners.  Indexed from `e` itself, not from a row pointer, so
 * that a vectorized loop can load each corner as one gather. */
INLINE double gather(const int nc, const double *e, int64_t at,
                     const double *w)
{
    double acc = w[0] * e[at];
    for (int c = 1; c < nc; c++)
        acc += w[c] * e[at + c];
    return acc;
}

/* ------------------------------------------------------------------ */
/* The two executed periodic wraps of one axis (paper section IV-C),
 * and the reflecting wall of its section VI outlook.
 *
 * x86's cvttsd2si returns INT64_MIN for NaN and anything outside
 * int64; in C that conversion is undefined, so it is spelled out —
 * as two selects around an unconditional conversion of a value known
 * to be in range, which the vectorizer turns into masks.  With it a
 * non-finite x comes back as a non-finite offset, exactly as from
 * NumPy on x86, and the supervisor's finite guard sees it. */
INLINE int64_t to_int64(double x)
{
    const int fits = fabs(x) < 0x1p63;
    const int64_t t = (int64_t)(fits ? x : 0.0);
    return fits ? t : INT64_MIN;
}

/* np.mod(x, nc) for nc > 0: the sign follows nc, a zero is +0.0 */
INLINE double floored_mod(double x, double nc)
{
    double m = fmod(x, nc);
    if (m != 0.0)
        return m < 0.0 ? m + nc : m;
    return 0.0;
}

/* Returns the wrapped coordinate, its offset through `offset` and, for
 * the wall, the velocity factor through `flip`.  Only the bitwise wrap
 * is free of branches and calls, so only it vectorizes; the modulo wrap
 * and the wall call fmod. */
INLINE int64_t wrap(const int variant, double x, int64_t nc, double *offset,
                    double *flip)
{
    if (variant == WRAP_BITWISE) {
        /* floor(x) = (int)x - (x < 0); mod = & (nc - 1), nc = 2^k */
        const uint64_t fx = (uint64_t)to_int64(x) - (uint64_t)(x < 0.0);
        *offset = x - (double)(int64_t)fx;
        return (int64_t)(fx & (uint64_t)(nc - 1));
    }
    if (variant == WRAP_REFLECT) {
        /* x_f = L - |mod(x, 2L) - L|: the velocity flips on the
         * descending half; x_f == L parks in the last cell at 1.0 */
        const double l = (double)nc, over = floored_mod(x, 2.0 * l) - l;
        const double folded = l - fabs(over), fx = floor(folded);
        const int64_t i = to_int64(fx);
        *flip = over > 0.0 ? -1.0 : 1.0;
        *offset = i >= nc ? 1.0 : folded - fx;
        return i >= nc ? nc - 1 : i;
    }
    const double fx = floor(x);
    *offset = x - fx;
    return to_int64(floored_mod(fx, (double)nc));
}

/* ------------------------------------------------------------------ */
/* Cell index of a coordinate tuple, in the closed forms section IV-B
 * picks because they inline here: scan orders, and Morton by
 * shift-and-mask dilation (Raman & Wise; no lookup table).  Unsigned
 * throughout, so coordinates of a non-finite position wrap instead of
 * overflowing.  Everything that depends only on the extents is worked
 * out once per call, into a `curve`. */
typedef struct {
    uint64_t extent[MAXDIM];
    /* Morton: the low `shared` bits of every axis interleave (mask);
     * an axis longer than the shortest appends its 16 bits above
     * `shared` at surplus_shift, where surplus_mask is 0xFFFF (0 for
     * the other axes) */
    int shared;
    uint64_t mask, surplus_mask[MAXDIM];
    int surplus_shift[MAXDIM];
} curve;

static curve make_curve(int ndim, const int64_t *extent)
{
    curve k;
    int log2_extent[MAXDIM];
    for (int a = 0; a < MAXDIM; a++) {
        k.extent[a] = a < ndim ? (uint64_t)extent[a] : 1;
        log2_extent[a] = 0;
        while (a < ndim && log2_extent[a] < 31
               && ((int64_t)2 << log2_extent[a]) <= extent[a])
            log2_extent[a]++;
    }
    k.shared = log2_extent[0];
    for (int a = 1; a < ndim; a++)
        if (log2_extent[a] < k.shared)
            k.shared = log2_extent[a];
    k.mask = ((uint64_t)1 << k.shared) - 1;
    int shift = ndim * k.shared;
    for (int a = 0; a < MAXDIM; a++) {
        const int surplus = a < ndim && log2_extent[a] > k.shared;
        k.surplus_mask[a] = surplus ? 0xFFFF : 0;
        k.surplus_shift[a] = surplus ? shift : 0;
        if (surplus)
            shift += log2_extent[a] - k.shared;
    }
    return k;
}

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

INLINE int64_t encode(const int ndim, const int order, const curve *k,
                      int64_t i0, int64_t i1, int64_t i2)
{
    const uint64_t u0 = (uint64_t)i0, u1 = (uint64_t)i1, u2 = (uint64_t)i2;
    uint64_t code;
    if (order == ORDER_ROW_MAJOR) {
        code = u0 * k->extent[1] + u1;
        if (ndim == 3)
            code = code * k->extent[2] + u2;
    } else if (order == ORDER_COLUMN_MAJOR) {
        code = ndim == 3 ? u2 * k->extent[1] + u1 : u1;
        code = code * k->extent[0] + u0;
    } else {
        /* the last axis least significant */
        if (ndim == 2) { /* both axes in one dilation: 1 ns a particle */
            const uint64_t t = dilate(2, (u0 & k->mask) << 32 | (u1 & k->mask));
            code = ((t >> 31) | t) & 0xFFFFFFFF;
        } else
            code = dilate(3, u0 & k->mask) << 2 | dilate(3, u1 & k->mask) << 1
                   | dilate(3, u2 & k->mask);
        code |= ((u0 >> k->shared) & k->surplus_mask[0]) << k->surplus_shift[0];
        code |= ((u1 >> k->shared) & k->surplus_mask[1]) << k->surplus_shift[1];
        if (ndim == 3)
            code |= ((u2 >> k->shared) & k->surplus_mask[2])
                    << k->surplus_shift[2];
    }
    return (int64_t)code;
}

/* Scan orders decode in one division per axis, so their coordinates
 * are recomputed rather than stored (section IV-B).  Integer division
 * has no vector form: this path stays scalar. */
INLINE void decode_scan(const int ndim, const int order, const curve *k,
                        int64_t icell, int64_t *icoord)
{
    uint64_t rest = (uint64_t)icell;
    for (int j = 0; j < ndim; j++) {
        const int a = order == ORDER_ROW_MAJOR ? ndim - 1 - j : j;
        icoord[a] = (int64_t)(rest % k->extent[a]);
        rest /= k->extent[a];
    }
}

/* ------------------------------------------------------------------ */
/* One pass of the position update over the population, in place.
 * `d`, `v`, `icoord` are arrays of ndim column pointers; `icoord` is NULL
 * when the coordinates are not stored (scan orders only). */
typedef struct {
    int order;
    int64_t n;
    double scale[MAXDIM];
    curve k;
    int64_t *icell;
    double *d[MAXDIM], *v[MAXDIM];
    int64_t *icoord[MAXDIM];
} push_args;

/* The loop, over compile-time `ndim`, `variant`, `order` and `stored`:
 * push() below instantiates every combination, so that each runs
 * without a per-particle dispatch.  Every column is a restrict
 * parameter (GCC honours restrict on parameters, not on locals loaded
 * from the column arrays), read and written through that one pointer;
 * the velocities are written by the wall alone, times its factor.
 * Particles are independent, so the bitwise wrap vectorizes across
 * them. */
INLINE void push_loop(const int ndim, const int variant, const int order,
                      const int stored, int64_t n, const curve *curv,
                      const double *scale, int64_t *restrict cell,
                      double *restrict d0, double *restrict d1,
                      double *restrict d2, double *restrict v0,
                      double *restrict v1, double *restrict v2,
                      int64_t *restrict i0s, int64_t *restrict i1s,
                      int64_t *restrict i2s)
{
    const curve k = *curv;
    const int64_t nc0 = (int64_t)k.extent[0], nc1 = (int64_t)k.extent[1],
                  nc2 = (int64_t)k.extent[2];
    const double sc0 = scale[0], sc1 = scale[1], sc2 = scale[2];
    for (int64_t j = 0; j < n; j++) { /* cvec: push */
        int64_t i0, i1, i2 = 0;
        if (stored) {
            i0 = i0s[j];
            i1 = i1s[j];
            if (ndim == 3)
                i2 = i2s[j];
        } else {
            int64_t i[MAXDIM];
            decode_scan(ndim, order, &k, cell[j], i);
            i0 = i[0];
            i1 = i[1];
            i2 = i[ndim - 1];
        }
        /* Fig. 1 line 10: x = i + d + scale * v per axis, wrapped */
        double o0, o1, o2 = 0.0, f0 = 1.0, f1 = 1.0, f2 = 1.0;
        i0 = wrap(variant, (double)i0 + d0[j] + sc0 * v0[j], nc0, &o0, &f0);
        i1 = wrap(variant, (double)i1 + d1[j] + sc1 * v1[j], nc1, &o1, &f1);
        if (ndim == 3)
            i2 = wrap(variant, (double)i2 + d2[j] + sc2 * v2[j], nc2, &o2, &f2);
        const int64_t c = encode(ndim, order, &k, i0, i1, i2);
        d0[j] = o0;
        d1[j] = o1;
        if (ndim == 3)
            d2[j] = o2;
        if (variant == WRAP_REFLECT) {
            v0[j] = v0[j] * f0;
            v1[j] = v1[j] * f1;
            if (ndim == 3)
                v2[j] = v2[j] * f2;
        }
        if (stored) {
            i0s[j] = i0;
            i1s[j] = i1;
            if (ndim == 3)
                i2s[j] = i2;
        }
        if (order != ORDER_OTHER)
            cell[j] = c;
    }
}

/* push_loop over the columns of `s`, as its restrict parameters */
INLINE void push_columns(const int ndim, const int variant, const int order,
                         const int stored, const push_args *s)
{
    int64_t *const *i = s->icoord;
    push_loop(ndim, variant, order, stored, s->n, &s->k, s->scale, s->icell,
              s->d[0], s->d[1], s->d[2], s->v[0], s->v[1], s->v[2], i[0],
              i[1], i[2]);
}

/* Coordinates are stored for every order but the scan orders, which
 * decode them (a NULL `icoord` with any other order decodes and
 * encodes column-major). */
INLINE void push_order(const int ndim, const int variant, const int order,
                       const push_args *s)
{
    if (!s->icoord[0]) {
        if (order == ORDER_ROW_MAJOR)
            push_columns(ndim, variant, ORDER_ROW_MAJOR, 0, s);
        else
            push_columns(ndim, variant, ORDER_COLUMN_MAJOR, 0, s);
    } else if (order == ORDER_ROW_MAJOR)
        push_columns(ndim, variant, ORDER_ROW_MAJOR, 1, s);
    else if (order == ORDER_COLUMN_MAJOR)
        push_columns(ndim, variant, ORDER_COLUMN_MAJOR, 1, s);
    else if (order == ORDER_MORTON)
        push_columns(ndim, variant, ORDER_MORTON, 1, s);
    else
        push_columns(ndim, variant, ORDER_OTHER, 1, s);
}

/* The bitwise wrap is the one that vectorizes (the modulo wrap and the
 * wall call fmod), so it alone is cloned. */
static CLONES void push_bitwise(const int ndim, const push_args *s)
{
    if (ndim == 2)
        push_order(2, WRAP_BITWISE, s->order, s);
    else
        push_order(3, WRAP_BITWISE, s->order, s);
}

static void push_fmod(const int ndim, const int variant, const push_args *s)
{
    if (ndim == 2 && variant == WRAP_REFLECT)
        push_order(2, WRAP_REFLECT, s->order, s);
    else if (ndim == 2)
        push_order(2, WRAP_MODULO, s->order, s);
    else if (variant == WRAP_REFLECT)
        push_order(3, WRAP_REFLECT, s->order, s);
    else
        push_order(3, WRAP_MODULO, s->order, s);
}

/* The push over particles [lo, hi) of `s`: every column pointer moved
 * to lo (a NULL one stays NULL). */
static void push_span(const int ndim, const int variant, const push_args *s,
                      int64_t lo, int64_t hi)
{
    push_args b = *s;
    b.n = hi - lo;
    b.icell = s->icell + lo;
    for (int a = 0; a < MAXDIM; a++) {
        b.d[a] = s->d[a] ? s->d[a] + lo : NULL;
        b.v[a] = s->v[a] ? s->v[a] + lo : NULL;
        b.icoord[a] = s->icoord[a] ? s->icoord[a] + lo : NULL;
    }
    if (variant == WRAP_BITWISE)
        push_bitwise(ndim, &b);
    else
        push_fmod(ndim, variant, &b);
}

/* ------------------------------------------------------------------ */
/* The row kernels' loops over a compile-time ndim. */
INLINE int64_t interp_loop(const int ndim, int64_t n, int64_t ncell,
                           const double *e, const int64_t *icell,
                           double *const *d, double *const *e_p)
{
    const int nc = 1 << ndim, width = ndim << ndim;
    for (int64_t k = 0; k < n; k++) {
        double w[MAXCORNER];
        if ((uint64_t)icell[k] >= (uint64_t)ncell)
            return k;
        weights(ndim, d[0][k], d[1][k], d[ndim - 1][k], w);
        for (int a = 0; a < ndim; a++)
            e_p[a][k] = gather(nc, e, icell[k] * width + a * nc, w);
    }
    return -1;
}

/* The scenario zoo's stages of a 2D update-v, in stored units
 * (repro.core.kernels.Drive): `field` adds e[] to the gathered field;
 * `rotate` runs Boris's half kick, rotation of the physical velocities
 * (v * scale) by (t, s) and half kick, where without it the field takes
 * one full kick.  No flag is a `+ 0.0`: that would turn a -0.0 field
 * into +0.0. */
typedef struct {
    int field, rotate;
    double e[2], t, s, scale[2];
} drive;

/* Fig. 1 line 9 in one pass: the gather above, then v += e per axis
 * (hoisted units), without the e_p columns in between; `driven` (2D
 * only) runs the drive's stages, whose flags select between results
 * rather than branch.  The cells were checked by the caller.  Particles
 * are independent: the loop vectorizes across them, each corner value
 * one gather. */
INLINE void update_v_loop(const int ndim, const int driven, int64_t n,
                          const double *restrict rows,
                          const int64_t *restrict cell,
                          const double *restrict d0, const double *restrict d1,
                          const double *restrict d2, double *restrict v0,
                          double *restrict v1, double *restrict v2,
                          const drive *dr)
{
    const int nc = 1 << ndim, width = ndim << ndim;
    const drive g = *dr;
    for (int64_t k = 0; k < n; k++) { /* cvec: update-v */
        double w[MAXCORNER];
        weights(ndim, d0[k], d1[k], d2[k], w);
        const int64_t at = cell[k] * width;
        if (driven) {
            double e0 = gather(nc, rows, at, w), e1 = gather(nc, rows, at + nc, w);
            e0 = g.field ? e0 + g.e[0] : e0;
            e1 = g.field ? e1 + g.e[1] : e1;
            const double h0 = 0.5 * e0, h1 = 0.5 * e1;
            const double x = (v0[k] + h0) * g.scale[0],
                         y = (v1[k] + h1) * g.scale[1];
            const double px = x + y * g.t, py = y - x * g.t;
            v0[k] = g.rotate ? (x + py * g.s) / g.scale[0] + h0 : v0[k] + e0;
            v1[k] = g.rotate ? (y - px * g.s) / g.scale[1] + h1 : v1[k] + e1;
            continue;
        }
        v0[k] = v0[k] + gather(nc, rows, at, w);
        v1[k] = v1[k] + gather(nc, rows, at + nc, w);
        if (ndim == 3)
            v2[k] = v2[k] + gather(nc, rows, at + 2 * nc, w);
    }
}

/* Update-v over particles [lo, hi), whose cells the caller checked;
 * `dr` NULL runs no drive (the caller passes none in 3D). */
static CLONES void update_v_span(const int ndim, int64_t lo, int64_t hi,
                                 const double *e, const int64_t *icell,
                                 double *const *d, double *const *v,
                                 const drive *dr)
{
    static const drive none = {0, 0, {0.0, 0.0}, 0.0, 0.0, {1.0, 1.0}};
    const int64_t n = hi - lo;
    const int64_t *const cell = icell + lo;
    double *const d0 = d[0] + lo, *const d1 = d[1] + lo,
                  *const d2 = d[ndim - 1] + lo;
    double *const v0 = v[0] + lo, *const v1 = v[1] + lo,
                  *const v2 = v[ndim - 1] + lo;
    if (ndim == 3)
        update_v_loop(3, 0, n, e, cell, d0, d1, d2, v0, v1, v2, &none);
    else if (dr)
        update_v_loop(2, 1, n, e, cell, d0, d1, d2, v0, v1, v2, dr);
    else
        update_v_loop(2, 0, n, e, cell, d0, d1, d2, v0, v1, v2, &none);
}

/* `col[c]` is corner c's column, cell j at col[c][j * stride], or NULL
 * for a corner the caller does not own; every owned column is zeroed
 * over its ncell cells, then folded.  ndim must be a constant: with a
 * run-time ndim the loop measured five times slower.  The cells were
 * checked by the caller. */
INLINE void deposit_columns(const int ndim, int64_t n, int64_t ncell,
                            double *const *col, int64_t stride,
                            const int64_t *icell, double *const *d,
                            double charge)
{
    const int nc = 1 << ndim;
    double *cp[MAXCORNER];
    for (int c = 0; c < nc; c++)
        cp[c] = col[c];
    for (int c = 0; c < nc; c++)
        if (cp[c])
            for (int64_t j = 0; j < ncell; j++)
                cp[c][j * stride] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double w[MAXCORNER];
        weights(ndim, d[0][k], d[1][k], d[ndim - 1][k], w);
        for (int c = 0; c < nc; c++)
            if (cp[c])
                cp[c][icell[k] * stride] += w[c] * charge;
    }
}

/* The columns of one [ncell][ncorner] array: each particle adds one
 * contiguous row.  Two particles may share a cell, so the loop is not
 * vectorized across particles; the row add is, across one particle's
 * 4 (2D) or 8 (3D) corners. */
INLINE void deposit_row(const int ndim, int64_t n, int64_t ncell,
                        double *restrict rho, const int64_t *restrict cell,
                        const double *restrict d0, const double *restrict d1,
                        const double *restrict d2, double charge)
{
    const int nc = 1 << ndim;
    for (int64_t j = 0; j < ncell * nc; j++)
        rho[j] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double w[MAXCORNER];
        weights(ndim, d0[k], d1[k], d2[k], w);
        /* summed into a copy, then stored: written as row[c] +=, GCC
         * cannot tell the corners' addresses apart and adds them one by
         * one */
        double *row = rho + cell[k] * nc, sum[MAXCORNER];
        for (int c = 0; c < nc; c++)
            sum[c] = row[c] + w[c] * charge;
        for (int c = 0; c < nc; c++)
            row[c] = sum[c]; /* cvec: deposit row add */
    }
}

/* -1, or the first k with key[k] outside [0, bound).  A branch-free OR
 * per block (the top bit of key, or of bound - 1 - key, is set exactly
 * for a key outside) so the pass runs at memory speed; only a block
 * that fails is searched.  Every row kernel runs it first; exported so
 * that a thread team can check all of its shards before any writes. */
int64_t first_outside(int64_t n, const int64_t *key, int64_t bound)
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

/* Update-v (Fig. 1 line 9, one of the three loops of section IV-A):
 * v[a][k] += (field along axis a at particle k), in place, through the
 * stages of `dr` (NULL: none).  Returns -1, or the first particle whose
 * cell is outside [0, ncell), before any v is written. */
CLONES int64_t update_v_rows(int ndim, int64_t n, int64_t ncell,
                             const double *e, const int64_t *icell,
                             double *const *d, double *const *v,
                             const drive *dr)
{
    const int64_t bad = first_outside(n, icell, ncell);
    if (bad >= 0)
        return bad;
    update_v_span(ndim, 0, n, e, icell, d, v, dr);
    return -1;
}

static push_args make_push_args(int ndim, int64_t n, int order,
                                const int64_t *extent, const double *scale,
                                int64_t *icell, double *const *d,
                                double *const *v, int64_t *const *icoord)
{
    push_args s;
    s.order = order;
    s.n = n;
    s.k = make_curve(ndim, extent);
    s.icell = icell;
    for (int a = 0; a < MAXDIM; a++) {
        const int on = a < ndim;
        s.scale[a] = on ? scale[a] : 0.0;
        s.d[a] = on ? d[a] : NULL;
        s.v[a] = on ? v[a] : NULL;
        s.icoord[a] = on && icoord ? icoord[a] : NULL;
    }
    return s;
}

/* Fig. 1 line 10 over the population (one of the three loops of
 * section IV-A), in place. */
void push(int ndim, int64_t n, int variant, int order, const int64_t *extent,
          const double *scale, int64_t *icell, double *const *d,
          double *const *v, int64_t *const *icoord)
{
    const push_args s = make_push_args(ndim, n, order, extent, scale, icell,
                                       d, v, icoord);
    push_span(ndim, variant, &s, 0, n);
}

/* The strip-mined push: update-v (through the stages of `dr`), then the
 * in-place push (hoisted units: every scale 1), over one block of BLOCK
 * particles after another, so that the push reads the cells, offsets and
 * velocities update-v just streamed from L1/L2 rather than from memory.
 * Particles are independent in both loops,
 * so the block size moves no bit; the deposit is not folded in (its
 * rows and the field's would share L2 with the block, docs/kernels.md
 * "Strip-mined push").  Every cell is checked first: -1, or the first
 * particle whose cell is outside [0, ncell), before any v or x is
 * written.  seconds[0] / seconds[1] get the time spent in update-v /
 * the push, summed over the blocks (the cell check counts as
 * update-v's). */
#define BLOCK 4096

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

int64_t advance(int ndim, int64_t n, int64_t ncell, const double *e,
                int variant, int order, const int64_t *extent,
                int64_t *icell, double *const *d, double *const *v,
                int64_t *const *icoord, const drive *dr, double *seconds)
{
    static const double unit[MAXDIM] = {1.0, 1.0, 1.0};
    double t0 = now(), update_v = 0.0, update_x = 0.0;
    const int64_t bad = first_outside(n, icell, ncell);
    if (bad >= 0)
        return bad;
    const push_args s = make_push_args(ndim, n, order, extent, unit, icell,
                                       d, v, icoord);
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        const int64_t hi = n - lo < BLOCK ? n : lo + BLOCK;
        update_v_span(ndim, lo, hi, e, icell, d, v, dr);
        const double t1 = now();
        push_span(ndim, variant, &s, lo, hi);
        const double t2 = now();
        update_v += t1 - t0;
        update_x += t2 - t1;
        t0 = t2;
    }
    seconds[0] = update_v;
    seconds[1] = update_x;
    return -1;
}

/* Fig. 1 line 11 / Fig. 2 (bottom), into 1 << ndim column pointers
 * (NULL: skip that corner) whose cells are `stride` doubles apart: each
 * owned column is overwritten with its fold — rho = sum, not rho += sum.
 * The columns of one row-major [ncell][ncorner] array give each
 * particle one contiguous row. */
CLONES int64_t deposit_rows(int ndim, int64_t n, int64_t ncell,
                            double *const *col, int64_t stride,
                            const int64_t *icell, double *const *d,
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
            deposit_row(2, n, ncell, col[0], icell, d[0], d[1], d[1], charge);
        else
            deposit_columns(2, n, ncell, col, stride, icell, d, charge);
    } else if (row)
        deposit_row(3, n, ncell, col[0], icell, d[0], d[1], d[2], charge);
    else
        deposit_columns(3, n, ncell, col, stride, icell, d, charge);
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

/* The energy diagnostics' sum of squares (section IV's energy check):
 * sum over k of the left fold over the columns of (c[a][k] * scale[a])^2,
 * each term formed on the fly (no N-sized array), the terms folded as
 * NumPy's float64 pairwise sum (np.sum) folds an array of them:
 *
 *  - below 8 terms, one running sum from 0.0;
 *  - from 8 to PAIRWISE_LEAF terms, eight accumulators seeded with the
 *    first eight terms and stepped by 8, combined as
 *    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail
 *    added in order;
 *  - above PAIRWISE_LEAF, the sum of the two halves split at n / 2
 *    rounded down to a multiple of 8.
 *
 * The eight accumulators are eight lanes: vectorizing the stepping loop
 * moves no bit. */
#define PAIRWISE_LEAF 128

INLINE double square_term(const int ncol, const double *restrict c0,
                          const double *restrict c1, const double *restrict c2,
                          double s0, double s1, double s2, int64_t k)
{
    const double t0 = c0[k] * s0, t1 = c1[k] * s1;
    double acc = t0 * t0 + t1 * t1;
    if (ncol == 3) {
        const double t2 = c2[k] * s2;
        acc += t2 * t2;
    }
    return acc;
}

/* One leaf of the pairwise tree: n <= PAIRWISE_LEAF terms from c[.][0]. */
INLINE double squares_leaf(const int ncol, int64_t n, const double *restrict c0,
                           const double *restrict c1, const double *restrict c2,
                           double s0, double s1, double s2)
{
    double res = 0.0;
    int64_t k = 0;
    if (n >= 8) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = square_term(ncol, c0, c1, c2, s0, s1, s2, j);
        for (k = 8; k < n - n % 8; k += 8) /* cvec: sum squares */
            for (int j = 0; j < 8; j++)
                r[j] += square_term(ncol, c0, c1, c2, s0, s1, s2, k + j);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; k < n; k++)
        res += square_term(ncol, c0, c1, c2, s0, s1, s2, k);
    return res;
}

/* The pairwise tree without recursion (the clones inline no recursive
 * call): descend to the leftmost leaf, remembering every right half;
 * each finished subtree is added to the left sibling it completes. */
INLINE double squares_tree(const int ncol, int64_t n, const double *c0,
                           const double *c1, const double *c2,
                           double s0, double s1, double s2)
{
    int64_t right_lo[64], right_n[64]; /* n halves at most 63 times */
    double left[64];
    int has_left[64], top = 0;
    int64_t lo = 0;
    for (;;) {
        while (n > PAIRWISE_LEAF) {
            int64_t half = n / 2;
            half -= half % 8;
            right_lo[top] = lo + half;
            right_n[top] = n - half;
            has_left[top++] = 0;
            n = half;
        }
        double acc = squares_leaf(ncol, n, c0 + lo, c1 + lo, c2 + lo,
                                  s0, s1, s2);
        while (top > 0 && has_left[top - 1])
            acc = left[--top] + acc;
        if (top == 0)
            return acc;
        left[top - 1] = acc;
        has_left[top - 1] = 1;
        lo = right_lo[top - 1];
        n = right_n[top - 1];
    }
}

CLONES double sum_squares(int ncol, int64_t n, const double *const *c,
                          const double *scale)
{
    if (ncol == 2)
        return squares_tree(2, n, c[0], c[1], c[1], scale[0], scale[1],
                            scale[1]);
    return squares_tree(3, n, c[0], c[1], c[2], scale[0], scale[1], scale[2]);
}

/* The clone of the hot entry points the loader bound: "x86-64-v4" or
 * "default", by the test GCC's resolver makes, or "single" when this
 * object was built without clones. */
const char *kernel_isa(void)
{
#ifdef CKERNELS_CLONED
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") ? "x86-64-v4" : "default";
#else
    return "single";
#endif
}
