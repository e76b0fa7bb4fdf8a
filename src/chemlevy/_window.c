/* One window of one path for each scheme of the window engine, bit for bit
 * integrator._walker of the scheme's Python step loop: the mesh and the
 * noise as _walker builds them, then the step loop's expressions in the
 * same order, and libm's exp and log, which math.exp and math.log call.
 * Build it with -ffp-contract=off (no fused multiply-adds) and no flag that
 * relaxes IEEE arithmetic.
 *
 * The mesh is the uniform grid of n steps of h = t_end / n, grid point u
 * at u * h (t_end at u = n), with the path's events woven in, each before
 * the first grid point at or after it.  A window runs `steps` mesh steps
 * from the resume point (at[0] the next grid point u, at[1] the next event
 * and *now the mesh time reached), given the m events ev_t (in time order)
 * and their marks ev_mark from that event on.  Past grid point n only
 * events are taken, so a window of at most n + 1 - u + m steps never steps
 * to a grid point past n.  Step j ends at the next mesh time, after a step
 * of dt, the difference of the two mesh times, with noise g_i = (sqrt(dt)
 * * sigma_i) * z[3j + i].  Grid point u is a record point when stride
 * divides it or it is n, and records into row ceil(u / stride).  The
 * walker is shared and specialised per scheme at compile time, so nothing
 * asks for the scheme once per step.
 *
 * The state s (l1 l2 l3 e1 e2 e3 iS ix iy b1 b2 b3 p1 p2 p3: log-states,
 * states, their integrals, the Brownian sums and the first pin times, NaN
 * until set) carries across windows; the linear-space schemes leave the
 * log-states and the pin times as they find them.  Series i of record r
 * (e1 e2 e3 iS ix iy, then l2 l3, or for a linear-space scheme the log of
 * e2 and e3, -inf at 0) goes to out[i * s0 + r]: each series is one
 * contiguous row.
 *
 * log_euler_window steps integrator._log_euler: k holds c1 c2 c3, D S0,
 * m1 m2, m1/delta1 m2/delta2, the ceiling, the floor and exp(floor), and jl
 * the (marks, 3) log jump sizes.  direct_euler_window and rk4_window step
 * integrator._linear with _direct_euler's and _rk4's step: k holds D S0 m1
 * delta1 m2 delta2 and the jump compensators sum_k w_k gamma_ik, and jl the
 * (marks, 3) jump sizes gamma_ik; RK4 reads neither the compensators nor
 * the marks.
 *
 * Each returns NULL once every step has run and at and *now are moved on,
 * or the reason its Python loop gives for the step that stopped the path,
 * with that step's time in *now and s and at left unwritten.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum scheme { LOG_EULER, DIRECT_EULER, RK4 };

static const char OVERFLOW[] = "log-state overflow";
static const char NONPOSITIVE[] = "direct Euler scheme produced a nonpositive state";
static const char NON_FINITE[] = "non-finite state";

/* The step of integrator._log_euler: a log-state above the ceiling or NaN,
 * or a jump that takes one past exp's range (where math.exp raises
 * OverflowError), stops the path.  The integrals take the states before
 * the jump. */
static inline const char *log_euler_step(const double *k, const double *jl, double *l, double *e,
                                         double *in, double *pin, const double *g, double dt,
                                         intptr_t mk, double tj)
{
    const double c1 = k[0], c2 = k[1], c3 = k[2], dso = k[3], m1 = k[4], m2 = k[5];
    const double m1d1 = k[6], m2d2 = k[7], ceiling = k[8], floor_ = k[9], floor_lin = k[10];
    const double p[3] = {e[0], e[1], e[2]}, hdt = 0.5 * dt;
    l[0] += (dso / e[0] - m1d1 * e[1] - c1) * dt + g[0];
    l[1] += (m1 * e[0] - m2d2 * e[2] - c2) * dt + g[1];
    l[2] += (m2 * e[1] - c3) * dt + g[2];
    if (!(l[0] <= ceiling && l[1] <= ceiling && l[2] <= ceiling))
        return OVERFLOW;
    for (int q = 0; q < 3; q++) {
        e[q] = exp(l[q]);
        in[q] += (p[q] + e[q]) * hdt;
    }
    for (int q = 0; mk >= 0 && q < 3; q++) {
        l[q] += jl[3 * mk + q];
        if (isinf(e[q] = exp(l[q])))
            return OVERFLOW;
    }
    for (int q = 0; q < 3; q++) {
        if (l[q] < floor_) {
            l[q] = floor_, e[q] = floor_lin;
            if (isnan(pin[q]))
                pin[q] = tj;
        }
    }
    return NULL;
}

/* model.drift at v: the same expressions in the same order. */
static inline void drift(const double *k, const double *v, double *d)
{
    const double D = k[0], S0 = k[1], m1 = k[2], delta1 = k[3], m2 = k[4], delta2 = k[5];
    d[0] = D * (S0 - v[0]) - m1 * v[0] * v[1] / delta1;
    d[1] = m1 * v[0] * v[1] - D * v[1] - m2 * v[1] * v[2] / delta2;
    d[2] = m2 * v[1] * v[2] - D * v[2];
}

static inline int finite3(const double *e)
{
    return isfinite(e[0]) && isfinite(e[1]) && isfinite(e[2]);
}

/* The step of integrator._direct_euler, then _linear's finiteness check. */
static inline const char *direct_euler_step(const double *k, const double *gamma, double *e,
                                            const double *g, double dt, intptr_t mk)
{
    double d[3];
    drift(k, e, d);
    for (int q = 0; q < 3; q++)
        e[q] = e[q] + (d[q] - k[6 + q] * e[q]) * dt + e[q] * g[q];
    for (int q = 0; mk >= 0 && q < 3; q++)
        e[q] *= 1.0 + gamma[3 * mk + q];
    if (e[0] <= 0.0 || e[1] <= 0.0 || e[2] <= 0.0)
        return NONPOSITIVE;
    return finite3(e) ? NULL : NON_FINITE;
}

/* The step of integrator._rk4, then _linear's finiteness check. */
static inline const char *rk4_step(const double *k, double *e, double dt)
{
    double k1[3], k2[3], k3[3], k4[3], v[3];
    drift(k, e, k1);
    for (int q = 0; q < 3; q++)
        v[q] = e[q] + 0.5 * dt * k1[q];
    drift(k, v, k2);
    for (int q = 0; q < 3; q++)
        v[q] = e[q] + 0.5 * dt * k2[q];
    drift(k, v, k3);
    for (int q = 0; q < 3; q++)
        v[q] = e[q] + dt * k3[q];
    drift(k, v, k4);
    for (int q = 0; q < 3; q++)
        e[q] = e[q] + dt / 6.0 * (k1[q] + 2.0 * k2[q] + 2.0 * k3[q] + k4[q]);
    return finite3(e) ? NULL : NON_FINITE;
}

static inline __attribute__((always_inline)) const char *
walk(enum scheme scheme, const double *k, const double *jl, const double *sigma, ptrdiff_t n,
     double h, double t_end, ptrdiff_t stride, ptrdiff_t *at, double *now, ptrdiff_t steps,
     const double *ev_t, const intptr_t *ev_mark, ptrdiff_t m, const double *z, double *s,
     double *out, ptrdiff_t s0)
{
    double l[3] = {s[0], s[1], s[2]}, e[3] = {s[3], s[4], s[5]}, in[3] = {s[6], s[7], s[8]};
    double br[3] = {s[9], s[10], s[11]}, pin[3] = {s[12], s[13], s[14]};
    double t = *now;
    ptrdiff_t u = at[0], i = 0;
    double grid = u == n ? t_end : (double)u * h;
    for (const double *zj = z; zj < z + 3 * steps; zj += 3) {
        double tj;
        intptr_t mk = -1, r = -1;
        if (i < m && (u > n || ev_t[i] <= grid)) {
            tj = ev_t[i], mk = ev_mark[i++];
        } else {
            tj = grid;
            if (u % stride == 0 || u == n)
                r = u / stride + (u % stride != 0);
            u++;
            grid = u == n ? t_end : (double)u * h;
        }
        const double dt = tj - t, sq = sqrt(dt);
        const double g[3] = {sq * sigma[0] * zj[0], sq * sigma[1] * zj[1], sq * sigma[2] * zj[2]};
        const double p[3] = {e[0], e[1], e[2]};
        t = tj;
        const char *why = scheme == LOG_EULER ? log_euler_step(k, jl, l, e, in, pin, g, dt, mk, tj)
                          : scheme == DIRECT_EULER ? direct_euler_step(k, jl, e, g, dt, mk)
                          : rk4_step(k, e, dt);
        if (why) {
            *now = tj;
            return why;
        }
        for (int q = 0; q < 3; q++) {
            /* _linear's trapezoid takes the state after the jump */
            if (scheme != LOG_EULER)
                in[q] += (p[q] + e[q]) * (0.5 * dt);
            br[q] += g[q];
        }
        if (r >= 0) {
            const double v[8] = {e[0], e[1], e[2], in[0], in[1], in[2],
                                 scheme == LOG_EULER ? l[1] : e[1] > 0.0 ? log(e[1]) : -INFINITY,
                                 scheme == LOG_EULER ? l[2] : e[2] > 0.0 ? log(e[2]) : -INFINITY};
            for (int q = 0; q < 8; q++)
                out[q * s0 + r] = v[q];
        }
    }
    for (int q = 0; q < 3; q++)
        s[q] = l[q], s[3 + q] = e[q], s[6 + q] = in[q], s[9 + q] = br[q], s[12 + q] = pin[q];
    at[0] = u, at[1] += i, *now = t;
    return NULL;
}

#define WINDOW(name, scheme)                                                                   \
    const char *name(const double *k, const double *jl, const double *sigma, ptrdiff_t n,      \
                     double h, double t_end, ptrdiff_t stride, ptrdiff_t *at, double *now,     \
                     ptrdiff_t steps, const double *ev_t, const intptr_t *ev_mark,             \
                     ptrdiff_t m, const double *z, double *s, double *out, ptrdiff_t s0)       \
    {                                                                                          \
        return walk(scheme, k, jl, sigma, n, h, t_end, stride, at, now, steps, ev_t, ev_mark,  \
                    m, z, s, out, s0);                                                         \
    }

WINDOW(log_euler_window, LOG_EULER)
WINDOW(direct_euler_window, DIRECT_EULER)
WINDOW(rk4_window, RK4)
