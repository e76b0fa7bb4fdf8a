/* One chunk of integrator._log_euler for one path, bit for bit: the same
 * expressions in the same order, and libm's exp, which math.exp calls.
 * Build it with -ffp-contract=off (no fused multiply-adds) and no flag that
 * relaxes IEEE arithmetic.
 *
 * Step j < n ends at mesh time t[j + 1] after a step of dt[j] with noise
 * g[3j .. 3j + 2]; mark[j + 1] >= 0 names its jump and row[j + 1] >= 0 its
 * record row.  k holds c1 c2 c3, D S0, m1 m2, m1/delta1 m2/delta2, the
 * ceiling, the floor and exp(floor); jl the (marks, 3) log jump sizes.  The
 * state s (l1 l2 l3 e1 e2 e3 iS ix iy b1 b2 b3 p1 p2 p3: log-states,
 * states, their integrals, the Brownian sums and the first pin times, NaN
 * until set) carries across chunks.  Series i of record r (e1 e2 e3 iS ix
 * iy l2 l3) goes to out[i * s0 + r * s1].
 *
 * Returns -1 once every step has run, or j if step j left a log-state
 * above the ceiling or NaN, or its jump took one past exp's range (where
 * math.exp raises OverflowError).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

ptrdiff_t log_euler_chunk(ptrdiff_t n, const double *t, const double *dt, const double *g,
                          const intptr_t *mark, const intptr_t *row, const double *k,
                          const double *jl, double *s, double *out, ptrdiff_t s0, ptrdiff_t s1)
{
    const double c1 = k[0], c2 = k[1], c3 = k[2], dso = k[3], m1 = k[4], m2 = k[5];
    const double m1d1 = k[6], m2d2 = k[7], ceiling = k[8], floor_ = k[9], floor_lin = k[10];
    double l[3] = {s[0], s[1], s[2]}, e[3] = {s[3], s[4], s[5]}, in[3] = {s[6], s[7], s[8]};
    double b[3] = {s[9], s[10], s[11]}, pin[3] = {s[12], s[13], s[14]};
    for (ptrdiff_t j = 0; j < n; j++) {
        const double p[3] = {e[0], e[1], e[2]}, h = 0.5 * dt[j];
        const intptr_t mk = mark[j + 1], r = row[j + 1];
        l[0] += (dso / e[0] - m1d1 * e[1] - c1) * dt[j] + g[3 * j];
        l[1] += (m1 * e[0] - m2d2 * e[2] - c2) * dt[j] + g[3 * j + 1];
        l[2] += (m2 * e[1] - c3) * dt[j] + g[3 * j + 2];
        if (!(l[0] <= ceiling && l[1] <= ceiling && l[2] <= ceiling))
            return j;
        for (int i = 0; i < 3; i++) {
            e[i] = exp(l[i]);
            in[i] += (p[i] + e[i]) * h;
            b[i] += g[3 * j + i];
        }
        for (int i = 0; mk >= 0 && i < 3; i++) {
            l[i] += jl[3 * mk + i];
            if (isinf(e[i] = exp(l[i])))
                return j;
        }
        for (int i = 0; i < 3; i++) {
            if (l[i] < floor_) {
                l[i] = floor_, e[i] = floor_lin;
                if (isnan(pin[i]))
                    pin[i] = t[j + 1];
            }
        }
        if (r >= 0) {
            const double v[8] = {e[0], e[1], e[2], in[0], in[1], in[2], l[1], l[2]};
            for (int i = 0; i < 8; i++)
                out[i * s0 + r * s1] = v[i];
        }
    }
    for (int i = 0; i < 3; i++)
        s[i] = l[i], s[3 + i] = e[i], s[6 + i] = in[i], s[9 + i] = b[i], s[12 + i] = pin[i];
    return -1;
}
