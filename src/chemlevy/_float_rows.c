/* Rows of doubles as CSV lines, each cell the shortest decimal that reads
 * back as the same double, laid out as Python's repr lays it out.
 *
 * The digits are Ryu's (Adams, PLDI 2018): the shortest decimal in the
 * double's rounding interval, the one closest to it among those, ties to
 * even, which are the digits repr prints.  POW5_INV[q] (2^k / 5^q rounded
 * up) and POW5[i] (5^i cut to its top 125 bits), as (low, high) 64-bit
 * words, come from _pow5.h, which _compiled writes from exact integers
 * when it builds this file.
 *
 * repr's layout: exponent form below 1e-4 and from 1e16 on (1e-05, 1e+16,
 * 5e-324, at least two exponent digits), fixed form otherwise with a ".0"
 * kept, "-0.0", "inf", "-inf", and "nan" for a NaN of either sign.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include "_pow5.h"

typedef unsigned __int128 u128;

/* floor(e log10 2), floor(e log10 5) and the bit length of 5^e, exact for
 * every exponent a double has */
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }
static int32_t pow5_bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

/* floor(m * mul / 2^j) for a 125-bit mul */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const u128 low = (u128)m * mul[0], high = (u128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest digits of the finite positive double with these bits, and
 * in *e10 the power of ten they are scaled by. */
static uint64_t shortest(uint64_t mantissa, uint32_t exponent, int32_t *e10)
{
    /* the double is mv * 2^e2, and the midpoints to its neighbours are
     * (mv + 2) * 2^e2 and mm * 2^e2 */
    const int32_t e2 = (exponent ? (int32_t)exponent : 1) - 1023 - 52 - 2;
    const uint64_t m2 = exponent ? (1ull << 52) | mantissa : mantissa;
    const int even = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2, mm = mv - 1 - (mantissa != 0 || exponent <= 1);
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + q + 125 + pow5_bits(q) - 1;
        *e10 = q;
        vr = mul_shift(mv, POW5_INV[q], j);
        vp = mul_shift(mv + 2, POW5_INV[q], j);
        vm = mul_shift(mm, POW5_INV[q], j);
        /* whether the digits cut off by the division are all zero */
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mm, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - (pow5_bits(i) - 125);
        *e10 = q + e2;
        vr = mul_shift(mv, POW5[i], j);
        vp = mul_shift(mv + 2, POW5[i], j);
        vm = mul_shift(mm, POW5[i], j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm != mv - 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    /* drop digits while the interval still holds a shorter decimal */
    int32_t removed = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        unsigned last = 0;
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        for (; vm_zeros && vm % 10 == 0; removed++) {
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10, vp /= 10, vm /= 10;
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* an exact tie rounds to even */
        out = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100, vp /= 100, vm /= 100;
            removed += 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10, vp /= 10, vm /= 10;
        }
        out = vr + (vr == vm || round_up);
    }
    *e10 += removed;
    return out;
}

static char *put_double(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    if (exponent == 0x7ff && mantissa)
        return memcpy(p, "nan", 3), p + 3;
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff)
        return memcpy(p, "inf", 3), p + 3;
    if (exponent == 0 && mantissa == 0)
        return memcpy(p, "0.0", 3), p + 3;

    int32_t e10;
    uint64_t d = shortest(mantissa, exponent, &e10);
    char digits[17];
    int first = 17;
    do
        digits[--first] = (char)('0' + d % 10);
    while (d /= 10);
    const char *s = digits + first;
    const int n = 17 - first, point = e10 + n;  /* the value is 0.s * 10^point */

    if (point <= -4 || point > 16) {
        int e = point - 1;
        *p++ = s[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, s + 1, n - 1), p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        *p++ = '0', *p++ = '.';
        memset(p, '0', -point), p += -point;
        memcpy(p, s, n), p += n;
    } else if (point < n) {
        memcpy(p, s, point), p += point;
        *p++ = '.';
        memcpy(p, s + point, n - point), p += n - point;
    } else {
        memcpy(p, s, n), p += n;
        memset(p, '0', point - n), p += point - n;
        *p++ = '.', *p++ = '0';
    }
    return p;
}

/* Writes the (rows, cols) block x, row-major, as rows lines of cols
 * ","-joined cells, each ended by "\n", into buf, which must hold
 * rows * (25 * cols + 1) bytes (the longest cell, "-2.2250738585072014e-308",
 * is 24); returns the bytes written. */
ptrdiff_t float_rows(const double *x, ptrdiff_t rows, ptrdiff_t cols, char *buf)
{
    char *p = buf;
    for (ptrdiff_t r = 0; r < rows; r++) {
        for (ptrdiff_t c = 0; c < cols; c++) {
            if (c)
                *p++ = ',';
            p = put_double(p, x[r * cols + c]);
        }
        *p++ = '\n';
    }
    return p - buf;
}
