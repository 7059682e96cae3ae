/* The Maronna fixed point, one window at a time (see maronna.py).
 *
 * Each window iterates from its robust start to its own fixed point;
 * a step is two loops over the window's M observations:
 *
 *   1. dx, dy, d^2 under the current scatter, the Huber weights u1 and
 *      u2, and the sums of u1, u1*x and u1*y (the new location);
 *   2. the sums of (u2*dx)*dx, (u2*dx)*dy and (u2*dy)*dy (the new
 *      scatter), then the freeze test delta > tol * scale.
 *
 * Every operation is the vectorised NumPy step's, in its order: built
 * with -ffp-contract=off and without -ffast-math, max/min propagate NaN
 * like np.maximum/np.minimum, and every sum is add_reduce, a replica of
 * np.add.reduce over a row (numpy's pairwise summation: 8 accumulators,
 * blocks of at most 128 split in halves, the result added to 0.0).  So
 * a window's correlation, step count and convergence are bitwise what
 * the NumPy step gives.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define EPS 1e-18
#define PW_BLOCKSIZE 128

/* np.maximum: a NaN in either operand is the result. */
static inline double np_max(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

/* np.sign: +-1, 0.0 for either zero, NaN for NaN. */
static inline double np_sign(double v)
{
    return v > 0.0 ? 1.0 : (v < 0.0 ? -1.0 : (v == 0.0 ? 0.0 : v));
}

/* numpy's pairwise_sum over n values `stride` apart. */
static double pairwise(const double *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        const int64_t s = stride;
        double r0 = a[0], r1 = a[s], r2 = a[2 * s], r3 = a[3 * s],
               r4 = a[4 * s], r5 = a[5 * s], r6 = a[6 * s], r7 = a[7 * s];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            const double *b = a + i * s;
            r0 += b[0];
            r1 += b[s];
            r2 += b[2 * s];
            r3 += b[3 * s];
            r4 += b[4 * s];
            r5 += b[5 * s];
            r6 += b[6 * s];
            r7 += b[7 * s];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i * s];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2, stride) + pairwise(a + n2 * stride, n - n2, stride);
}

/* np.add.reduce of one row: the reduction starts from its identity. */
double add_reduce(const double *a, int64_t n, int64_t stride)
{
    return 0.0 + pairwise(a, n, stride);
}

/* Iterate every window of every pair to its fixed point.
 *
 * Window w of series s is series[s * series_len + w * step ..] (m values)
 * and its robust start is (start[(2s) * n_win + w], start[(2s + 1) *
 * n_win + w]) = (median, scale).  pairs holds n_pairs (x, y) series
 * indices.  rho0[j] is the clipped sine start for a quadrant sum of
 * j - m.  The correlation of window w of pair p lands in
 * corr[w * n_pairs + p].  Returns the (window, step) updates made, or -1
 * if the scratch could not be allocated; *unconverged counts the windows
 * still moving when max_iter stopped them.
 */
int64_t maronna_fixed_point(int64_t n_pairs, const int64_t *pairs,
                            int64_t n_win, int64_t m, const double *series,
                            int64_t series_len, int64_t step,
                            const double *start, const double *rho0,
                            double k, double tol, int64_t max_iter,
                            double *corr, int64_t *unconverged)
{
    double *buf = malloc(4 * (size_t)m * sizeof(double));
    if (buf == NULL)
        return -1;
    /* s1..s3 hold loop 1's summands, then loop 2's; u2 spans both. */
    double *s1 = buf, *s2 = buf + m, *s3 = buf + 2 * m, *u2 = buf + 3 * m;
    /* sqrt(0.99 * k2) < k and 0.99 * k2 < k2 by far more than rounding
     * can move a quotient. */
    const double k2 = k * k, inner = 0.99 * k2, dm = (double)m;
    int64_t row_steps = 0, stuck = 0;

    for (int64_t p = 0; p < n_pairs; p++) {
        const int64_t i = pairs[2 * p], j = pairs[2 * p + 1];
        for (int64_t w = 0; w < n_win; w++) {
            const double *x = series + i * series_len + w * step;
            const double *y = series + j * series_len + w * step;
            double tx = start[2 * i * n_win + w];
            double ty = start[2 * j * n_win + w];
            const double sx = start[(2 * i + 1) * n_win + w];
            const double sy = start[(2 * j + 1) * n_win + w];
            double *out = corr + w * n_pairs + p;
            if (sx <= EPS || sy <= EPS) { /* constant window */
                *out = 0.0;
                continue;
            }

            /* Quadrant correlation as the initial shape: the sum of sign
             * products is an exact integer, so any order gives it. */
            double q = 0.0;
            for (int64_t t = 0; t < m; t++)
                q += np_sign(x[t] - tx) * np_sign(y[t] - ty);
            const double rho = q == q ? rho0[(int64_t)q + m] : q;
            double a = sx * sx, b = rho * sx * sy, c = sy * sy;

            int still = 1;
            int64_t it;
            for (it = 0; it < max_iter && still; it++) {
                /* Mahalanobis distances under the current 2x2 scatter. */
                const double det = np_max(a * c - b * b, EPS);
                const double b2 = 2.0 * b;
                /* A numerator at most lim = inner * det is a point well
                 * inside the radius whatever the rounding: its d2 = num /
                 * det is below k2 and its d = sqrt(d2) below k, so u1 =
                 * u2 = 1 without dividing.  An infinite or NaN lim sends
                 * every point down the exact path. */
                double lim = inner * det;
                if (!(lim < INFINITY))
                    lim = NAN;
                for (int64_t t = 0; t < m; t++) {
                    const double dx = x[t] - tx, dy = y[t] - ty;
                    const double num = c * dx * dx - b2 * dx * dy + a * dy * dy;
                    if (num <= lim) {
                        u2[t] = s1[t] = 1.0;
                        s2[t] = x[t];
                        s3[t] = y[t];
                        continue;
                    }
                    double d2 = num / det;
                    d2 = 0.0 > d2 ? 0.0 : d2; /* np.maximum(d2, 0.0) */
                    /* u1 = min(1, k / max(d, EPS)), u2 = min(1, k2 /
                     * max(d2, EPS)): k over at most k is at least 1, so
                     * only a point outside the radius divides (and a NaN
                     * distance, which stays NaN). */
                    const double d = sqrt(d2);
                    const double u1 = d <= k ? 1.0 : k / d;
                    u2[t] = d2 <= k2 ? 1.0 : k2 / d2;
                    s1[t] = u1;
                    s2[t] = u1 * x[t];
                    s3[t] = u1 * y[t];
                }
                const double w1 = add_reduce(s1, m, 1);
                const double tx_new = add_reduce(s2, m, 1) / w1;
                const double ty_new = add_reduce(s3, m, 1) / w1;

                for (int64_t t = 0; t < m; t++) {
                    const double dx = x[t] - tx_new, dy = y[t] - ty_new;
                    const double u2dx = u2[t] * dx;
                    s1[t] = u2dx * dx;
                    s2[t] = u2dx * dy;
                    s3[t] = u2[t] * dy * dy;
                }
                const double a_new = add_reduce(s1, m, 1) / dm;
                const double b_new = add_reduce(s2, m, 1) / dm;
                const double c_new = add_reduce(s3, m, 1) / dm;

                /* still = delta > tol * scale, before the state moves. */
                const double scale = tol * np_max(np_max(a, c), EPS);
                const double delta = np_max(
                    np_max(fabs(a_new - a), fabs(c_new - c)), fabs(b_new - b));
                still = delta > scale;
                tx = tx_new, ty = ty_new, a = a_new, b = b_new, c = c_new;
            }
            row_steps += it;
            stuck += still;

            /* np.where(a*c > EPS, b / sqrt(a*c), 0.0), clipped to [-1, 1]
             * like np.clip (NaN stays NaN). */
            const double denom_sq = a * c;
            double r = denom_sq > EPS ? b / sqrt(denom_sq) : 0.0;
            if (r == r)
                r = r > -1.0 ? (r < 1.0 ? r : 1.0) : -1.0;
            *out = r;
        }
    }
    free(buf);
    *unconverged = stuck;
    return row_steps;
}
