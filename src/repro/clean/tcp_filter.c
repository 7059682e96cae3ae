/* The paper's TCP-like filter over one batch of quotes (see filters.py).
 *
 * One pass in stream order over the batch's bid-ask midpoints.  Each
 * symbol's smoothed price, smoothed absolute deviation and accepted-tick
 * count live in the bank's arrays (seen[s] == 0: no average yet), so a
 * day may be fed whole or an interval at a time.  The arithmetic is the
 * frozen per-symbol update, operation for operation: built with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math, the
 * keep mask and the final state are bitwise what that update gives.
 */
#include <math.h>
#include <stdint.h>

int64_t tcp_filter(int64_t n, const double *bam, const uint8_t *crossed,
                   const int32_t *symbol, double *avg, double *dev,
                   int64_t *seen, double alpha, double beta, double k,
                   int64_t warmup, double min_dev_frac, uint8_t *keep)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < n; i++) {
        const double x = bam[i];
        keep[i] = 0;
        if (crossed[i] || !isfinite(x) || x <= 0.0)
            continue;
        const int32_t s = symbol[i];
        if (seen[s] == 0) {
            avg[s] = x;
            dev[s] = fabs(x) * min_dev_frac;
            seen[s] = 1;
        } else {
            const double a = avg[s], d = dev[s];
            const double floor_dev = a * min_dev_frac;
            /* Python's max(d, floor_dev): the first unless the second is
             * strictly greater. */
            const double band = k * (floor_dev > d ? floor_dev : d);
            const double err = fabs(x - a);
            if (seen[s] >= warmup && err > band)
                continue; /* rejected ticks leave the estimates alone */
            dev[s] = (1.0 - beta) * d + beta * err;
            avg[s] = (1.0 - alpha) * a + alpha * x;
            seen[s] += 1;
        }
        keep[i] = 1;
        kept++;
    }
    return kept;
}
