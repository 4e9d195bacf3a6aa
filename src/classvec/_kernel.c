/* One label pass of class-conditioned CBOW with negative sampling, and
   the fast paths of the word2vec text reader and writer.

   The numpy pass in trainer.py (_reference_pass) is the reference for
   label_pass, which repeats it step for step, in place, on the float64
   matrices of a TrainState. Every random or scheduled value (kept positions, per-position
   learning rates, the uniform draws behind the negatives) is drawn by the
   caller and passed in, so the two passes see identical inputs.

   format_rows and parse_rows handle only the values they can convert
   exactly with one correctly rounded multiply or divide by a power of ten
   (Clinger's fast path) and decline the rest row by row or block by
   block; the Python code in embedding_io.py is their reference and their
   fallback. They call no strtod or printf, whose behaviour depends on the
   process locale.

   Pure C99 with no Python headers; called through ctypes, which releases
   the interpreter lock. Compiled with -ffp-contract=off so that no
   multiply-add is fused and the rounding follows the written order.
*/
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* np.searchsorted(table, u, side="right"), clamped to the last row */
static int64_t draw_row(const double *table, int64_t rows, double u)
{
    int64_t lo = 0, hi = rows;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (table[mid] <= u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < rows ? lo : rows - 1;
}

/* log(1 + exp(x)), stable in both tails */
static double softplus(double x)
{
    return fmax(x, 0.0) + log1p(exp(-fabs(x)));
}

/* Train positions 0..n-1 of one document under class vector `label`.

   input     n_input x dim, updated on rows with trainable[row] != 0
   output    n_output x dim, one row per corpus token
   classes   n_classes x dim
   noise     n_output cumulative noise probabilities
   alphas    n learning rates, one per position
   uniforms  n x negative x attempts draws in [0, 1)
   rows      scratch, 1 + negative entries
   scratch   scratch, 1 + negative + 2 * dim entries

   Adds the summed negative-sampling loss to *loss and returns the number
   of positions that got fewer than `negative` negatives, or -1 (touching
   nothing) when an index is out of range. */
int64_t label_pass(
    double *input, int64_t n_input, const uint8_t *trainable,
    double *output, int64_t n_output, const double *noise,
    double *classes, int64_t n_classes, int64_t label,
    const int64_t *in_idx, const int64_t *out_idx, int64_t n,
    const double *alphas, const double *uniforms,
    int64_t dim, int64_t window, int64_t negative, int64_t attempts,
    int64_t *rows, double *scratch, double *loss)
{
    double *err = scratch;              /* 1 + negative */
    double *h = err + 1 + negative;     /* dim */
    double *neu1e = h + dim;            /* dim */
    double *cls = classes + label * dim;
    double loss_sum = 0.0;
    int64_t shortfall = 0;

    if (label < 0 || label >= n_classes)
        return -1;
    for (int64_t p = 0; p < n; p++)
        if (in_idx[p] < 0 || in_idx[p] >= n_input
                || out_idx[p] < 0 || out_idx[p] >= n_output)
            return -1;

    for (int64_t p = 0; p < n; p++) {
        const double alpha = alphas[p];
        const int64_t lo = p - window > 0 ? p - window : 0;
        const int64_t hi = p + window + 1 < n ? p + window + 1 : n;
        const int64_t center = out_idx[p];
        int64_t k = 0, n_ctx = 0;

        /* context mean: class vector plus the window rows, center excluded */
        for (int64_t j = 0; j < dim; j++)
            h[j] = 0.0;
        for (int64_t c = lo; c < hi; c++) {
            if (c == p)
                continue;
            const double *row = input + in_idx[c] * dim;
            for (int64_t j = 0; j < dim; j++)
                h[j] += row[j];
            n_ctx++;
        }
        for (int64_t j = 0; j < dim; j++)
            h[j] = (cls[j] + h[j]) / (double)(1 + n_ctx);

        /* negatives: first draw of each slot that misses the center */
        rows[k++] = center;
        for (int64_t s = 0; s < negative; s++) {
            const double *u = uniforms + (p * negative + s) * attempts;
            for (int64_t a = 0; a < attempts; a++) {
                int64_t row = draw_row(noise, n_output, u[a]);
                if (row != center) {
                    rows[k++] = row;
                    break;
                }
            }
        }
        if (k < 1 + negative)
            shortfall++;

        /* logits and dL/dz from the output rows as they were before this step */
        for (int64_t i = 0; i < k; i++) {
            const double *u = output + rows[i] * dim;
            double z = 0.0;
            for (int64_t j = 0; j < dim; j++)
                z += u[j] * h[j];
            loss_sum += softplus(i == 0 ? -z : z);
            err[i] = 1.0 / (1.0 + exp(-z));
        }
        err[0] -= 1.0;

        /* neu1e = -alpha * dL/dh, also from the rows before the update */
        for (int64_t j = 0; j < dim; j++)
            neu1e[j] = 0.0;
        for (int64_t i = 0; i < k; i++) {
            const double *u = output + rows[i] * dim;
            for (int64_t j = 0; j < dim; j++)
                neu1e[j] += err[i] * u[j];
        }
        for (int64_t j = 0; j < dim; j++)
            neu1e[j] = -alpha * neu1e[j];

        /* output rows one after another, so a repeated row takes every step */
        for (int64_t i = 0; i < k; i++) {
            double *u = output + rows[i] * dim;
            for (int64_t j = 0; j < dim; j++)
                u[j] -= alpha * (err[i] * h[j]);
        }

        /* the full context-side step to the class vector and to every
           trainable context row, once per occurrence */
        for (int64_t j = 0; j < dim; j++)
            cls[j] += neu1e[j];
        for (int64_t c = lo; c < hi; c++) {
            if (c == p || !trainable[in_idx[c]])
                continue;
            double *row = input + in_idx[c] * dim;
            for (int64_t j = 0; j < dim; j++)
                row[j] += neu1e[j];
        }
    }
    *loss += loss_sum;
    return shortfall;
}

/* 10^0 .. 10^22, every one exactly representable as a double */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* |v| scaled by 10^k in one correctly rounded operation, |k| <= 22 */
static double scale10(double v, int k)
{
    return k >= 0 ? v * POW10[k] : v / POW10[-k];
}

/* Write v as Python's '%.9g' % v does, at most 15 bytes; return the byte
   count, or 0 to decline (non-finite, |v| outside about [1e-14, 1e31), or
   a tenth digit within 1e-6 of a rounding tie).

   With X the decimal exponent of |v| and k = 8 - X, t = |v| * 10^k lies in
   [1e8, 1e9) and is one correctly rounded operation, so it is within
   2^-24 of the exact value; its rounding to an integer is the exact one
   unless its fraction is near 0.5. */
static int format_g9(double v, char *out)
{
    char *p = out;
    char dig[9];
    double a = fabs(v), t, whole, frac;
    int e2, x, s;
    uint32_t d;

    if (v == 0.0) {
        if (signbit(v))
            *p++ = '-';
        *p++ = '0';
        return (int)(p - out);
    }
    if (!isfinite(v))
        return 0;
    frexp(a, &e2);              /* a in [2^(e2-1), 2^e2): X is x or x - 1 */
    x = (int)floor(e2 * 0.30102999566398120);
    if (x == 31)
        x = 30;                 /* X = 30 is the candidate within reach */
    if (x < -14 || x > 30)
        return 0;
    t = scale10(a, 8 - x);
    if (t < 1e8) {              /* X is x - 1 */
        if (x == -14)
            return 0;
        x--;
        t = scale10(a, 8 - x);
    }
    if (t > 1e9)                /* X = 31; t == 1e9 is a carry, below */
        return 0;
    whole = floor(t);
    frac = t - whole;           /* exact: t < 2^30 */
    if (fabs(frac - 0.5) <= 1e-6)
        return 0;
    d = (uint32_t)whole + (frac > 0.5);
    if (d == 1000000000u) {     /* rounding carried into a new decade */
        d = 100000000u;
        x++;
    }
    for (int i = 8; i >= 0; i--) {
        dig[i] = (char)('0' + d % 10);
        d /= 10;
    }
    for (s = 9; s > 1 && dig[s - 1] == '0'; s--)
        ;                       /* s significant digits, trailing zeros cut */

    if (v < 0)
        *p++ = '-';
    if (x >= 0 && x < 9) {      /* ddd[.ddd] */
        for (int i = 0; i <= x; i++)
            *p++ = dig[i];
        if (s > x + 1) {
            *p++ = '.';
            for (int i = x + 1; i < s; i++)
                *p++ = dig[i];
        }
    } else if (x < 0 && x >= -4) {  /* 0.000ddd */
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x; i--)
            *p++ = '0';
        for (int i = 0; i < s; i++)
            *p++ = dig[i];
    } else {                    /* d[.ddd]e+XX; |X| <= 31, so two exponent digits */
        int ax = x < 0 ? -x : x;
        *p++ = dig[0];
        if (s > 1) {
            *p++ = '.';
            for (int i = 1; i < s; i++)
                *p++ = dig[i];
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        *p++ = (char)('0' + ax / 10);
        *p++ = (char)('0' + ax % 10);
    }
    return (int)(p - out);
}

/* Format rows x m float32 values, one text row of single-space-separated
   '%.9g' numerals per matrix row, written back to back into out (room for
   16 bytes per value). ends[r] is the end offset of row r in out, or -1
   when the row holds a value format_g9 declines; such a row writes
   nothing, so the next row starts where the last accepted one ended. */
int64_t format_rows(const float *values, int64_t rows, int64_t m,
                    char *out, int64_t *ends)
{
    int64_t pos = 0;

    for (int64_t r = 0; r < rows; r++) {
        const float *row = values + r * m;
        int64_t start = pos;
        for (int64_t j = 0; j < m; j++) {
            int len;
            if (j > 0)
                out[pos++] = ' ';
            len = format_g9((double)row[j], out + pos);
            if (len == 0) {
                pos = start;
                break;
            }
            pos += len;
        }
        ends[r] = pos == start ? -1 : pos;
    }
    return pos;
}

/* Parse one numeral [+-]digits[.digits][(e|E)[+-]digits], with at least
   one mantissa digit, from p (before end) into *value; return the byte
   after it, or NULL to decline (any other syntax, more than 15
   significant digits, or a nonzero value whose decimal exponent is beyond
   +-22 after moving what W can take of a larger one into W). With W the
   significand as an integer (W < 10^15 < 2^53, exact) and e its
   exponent, W * 10^e is one correctly rounded operation, so the result
   equals the correctly rounded value of the numeral. */
static const char *parse_numeral(const char *p, const char *end, double *value)
{
    uint64_t w = 0;
    int64_t scale = 0, exp10 = 0;
    int negative = 0, digits = 0, significant = 0;

    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    for (int fraction = 0; ; fraction = 1) {
        for (; p < end && *p >= '0' && *p <= '9'; p++) {
            digits++;
            scale -= fraction;
            if (w == 0 && *p == '0')
                continue;       /* a leading zero is not significant */
            if (++significant > 15)
                return NULL;
            w = w * 10 + (uint64_t)(*p - '0');
        }
        if (fraction || p == end || *p != '.')
            break;
        p++;
    }
    if (digits == 0)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int exp_negative = 0;
        const char *first;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exp_negative = *p++ == '-';
        first = p;
        for (; p < end && *p >= '0' && *p <= '9'; p++)
            if (exp10 < 100000)
                exp10 = exp10 * 10 + (*p - '0');
        if (p == first)
            return NULL;
        scale += exp_negative ? -exp10 : exp10;
    }
    if (w == 0) {
        *value = negative ? -0.0 : 0.0;
        return p;
    }
    for (; scale > 22 && w < 100000000000000u; scale--)
        w *= 10;                /* exact while W stays below 10^15 */
    if (scale < -22 || scale > 22)
        return NULL;
    *value = scale10((double)w, (int)scale);
    if (negative)
        *value = -*value;
    return p;
}

/* Parse n rows of m numerals from data[0..len) into out (n x m). Every row
   holds exactly m numerals separated by single spaces and ends in '\n'.
   Returns -1 when every row parsed and the data ends after row n, else
   the first row declined (n when bytes are left over). */
int64_t parse_rows(const char *data, int64_t len, int64_t n, int64_t m,
                   double *out)
{
    const char *p = data, *end = data + len;

    for (int64_t r = 0; r < n; r++)
        for (int64_t j = 0; j < m; j++) {
            p = parse_numeral(p, end, out + r * m + j);
            if (p == NULL || p == end || *p != (j + 1 < m ? ' ' : '\n'))
                return r;
            p++;
        }
    return p == end ? -1 : n;
}
