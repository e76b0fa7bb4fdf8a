/* One window of integrator._log_euler for one path, bit for bit: the mesh
 * and the noise as integrator._Mesh.piece and integrator._stepped build
 * them, then the same expressions in the same order, and libm's exp, which
 * math.exp calls.  Build it with -ffp-contract=off (no fused multiply-adds)
 * and no flag that relaxes IEEE arithmetic.
 *
 * The window runs from grid point a to grid point b of the uniform grid of
 * n steps of h = t_end / n, grid point u at u * h (t_end at u = n), with
 * the m events ev_t (in time order) and their marks ev_mark woven in: each
 * event before the first grid point at or after it, and never before the
 * origin.  Step j ends at the next mesh time, after a step of dt, the
 * difference of the two mesh times, with noise g_i = (sqrt(dt) * sigma_i) *
 * z[3j + i]; z holds b - a + m rows of normals, one per step.  Grid point u > 0 is a
 * record point when stride divides it or it is n, and records into row
 * ceil(u / stride).  k holds c1 c2 c3, D S0, m1 m2, m1/delta1 m2/delta2,
 * the ceiling, the floor and exp(floor); jl the (marks, 3) log jump sizes.
 * The state s (l1 l2 l3 e1 e2 e3 iS ix iy b1 b2 b3 p1 p2 p3: log-states,
 * states, their integrals, the Brownian sums and the first pin times, NaN
 * until set) carries across windows.  Series i of record r (e1 e2 e3 iS ix
 * iy l2 l3) goes to out[i * s0 + r]: each series is one contiguous row.
 *
 * Returns -1 once every step has run, or the time of the step that left a
 * log-state above the ceiling or NaN, or whose jump took one past exp's
 * range (where math.exp raises OverflowError); s is then left unwritten.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

double log_euler_window(const double *k, const double *jl, const double *sigma, ptrdiff_t n,
                        double h, double t_end, ptrdiff_t stride, ptrdiff_t a, ptrdiff_t b,
                        const double *ev_t, const intptr_t *ev_mark, ptrdiff_t m,
                        const double *z, double *s, double *out, ptrdiff_t s0)
{
    const double c1 = k[0], c2 = k[1], c3 = k[2], dso = k[3], m1 = k[4], m2 = k[5];
    const double m1d1 = k[6], m2d2 = k[7], ceiling = k[8], floor_ = k[9], floor_lin = k[10];
    double l[3] = {s[0], s[1], s[2]}, e[3] = {s[3], s[4], s[5]}, in[3] = {s[6], s[7], s[8]};
    double br[3] = {s[9], s[10], s[11]}, pin[3] = {s[12], s[13], s[14]};
    double t = a == n ? t_end : (double)a * h;
    ptrdiff_t u = a + 1, i = 0;
    double grid = u == n ? t_end : (double)u * h;
    for (const double *zj = z; u <= b; zj += 3) {
        double tj;
        intptr_t mk = -1, r = -1;
        if (i < m && ev_t[i] <= grid) {
            tj = ev_t[i], mk = ev_mark[i++];
        } else {
            tj = grid;
            if (u % stride == 0 || u == n)
                r = u / stride + (u % stride != 0);
            u++;
            grid = u == n ? t_end : (double)u * h;
        }
        const double dt = tj - t, sq = sqrt(dt), hdt = 0.5 * dt;
        const double g[3] = {sq * sigma[0] * zj[0], sq * sigma[1] * zj[1], sq * sigma[2] * zj[2]};
        const double p[3] = {e[0], e[1], e[2]};
        t = tj;
        l[0] += (dso / e[0] - m1d1 * e[1] - c1) * dt + g[0];
        l[1] += (m1 * e[0] - m2d2 * e[2] - c2) * dt + g[1];
        l[2] += (m2 * e[1] - c3) * dt + g[2];
        if (!(l[0] <= ceiling && l[1] <= ceiling && l[2] <= ceiling))
            return tj;
        for (int q = 0; q < 3; q++) {
            e[q] = exp(l[q]);
            in[q] += (p[q] + e[q]) * hdt;
            br[q] += g[q];
        }
        for (int q = 0; mk >= 0 && q < 3; q++) {
            l[q] += jl[3 * mk + q];
            if (isinf(e[q] = exp(l[q])))
                return tj;
        }
        for (int q = 0; q < 3; q++) {
            if (l[q] < floor_) {
                l[q] = floor_, e[q] = floor_lin;
                if (isnan(pin[q]))
                    pin[q] = tj;
            }
        }
        if (r >= 0) {
            const double v[8] = {e[0], e[1], e[2], in[0], in[1], in[2], l[1], l[2]};
            for (int q = 0; q < 8; q++)
                out[q * s0 + r] = v[q];
        }
    }
    for (int q = 0; q < 3; q++)
        s[q] = l[q], s[3 + q] = e[q], s[6 + q] = in[q], s[9 + q] = br[q], s[12 + q] = pin[q];
    return -1.0;
}
