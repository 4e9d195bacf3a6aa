/* Label passes of class-conditioned CBOW with negative sampling, one
   epoch of the linear probe's SGD, the fast path of the word2vec text
   writer, and the row scanners of both word2vec readers.

   The numpy pass in trainer.py (_reference_pass) is the reference for
   label_pass, which repeats it step for step, in place, on the float64
   matrices of a TrainState: the input and output vectors of the corpus
   tokens alone, whose rows one index per position names. train_chunk
   runs it over the label passes of one call, normally a whole epoch.
   The caller passes the learning rates in. Each noise draw is a pure
   function of the run's key and its counter (position, slot, attempt),
   computed here only when the attempt before it hit the center, and by
   the reference with numpy: so the two passes see identical draws,
   however the passes are grouped into calls.
   They differ only by rounding: the logits are summed in four fixed
   partial sums, where numpy leaves the order to BLAS.

   probe_epoch repeats the per-example loop over loss_and_grads in
   classifier.py (_reference_epoch) in the example order the caller drew.
   It differs from numpy only by rounding, mostly because numpy leaves the
   order of the sums behind x @ weights to BLAS.

   format_rows and scan_text handle only the values they can convert
   exactly with one correctly rounded multiply or divide by a power of ten
   (Clinger's fast path) and decline the rest row by row. scan_text and
   scan_binary each read one chunk of a file's rows in one call: values
   straight into the float32 matrix, tokens into one buffer. The Python
   code in embedding_io.py is their reference, their fallback for any row
   they decline, and the only source of error messages. They call no
   strtod or printf, whose behaviour depends on the process locale.

   Pure C99 with no Python headers; called through ctypes, which releases
   the interpreter lock. Compiled with -O3 -march=native, which vectorises
   the loops over a row, and -ffp-contract=off, so that no multiply-add is
   fused and the rounding follows the written order. Pointers marked
   restrict are to arrays that do not overlap.
*/
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* np.searchsorted(table, u, side="right"), clamped to the last row, for
   rows >= 1. Branchless: the loop runs ceil(log2(rows)) times whatever u
   is, and a comparison moves base by an arithmetic step, not a jump. The
   answer stays in base[0 .. len - 1]: an entry <= u puts it past that
   entry, and an entry > u puts it at or before it, within the first
   half. */
static int64_t draw_row(const double *restrict table, int64_t rows, double u)
{
    const double *base = table;
    int64_t len = rows;

    while (len > 1) {
        const int64_t half = len / 2;
        base += (base[half - 1] <= u) * half;
        len -= half;
    }
    return base - table;
}

/* The uniform of noise draw `counter` of the run keyed by `key`, in
   [0, 1): the SplitMix64 finaliser (Steele, Lea and Flood, "Fast
   Splittable Pseudorandom Number Generators", OOPSLA 2014) of the
   counter's point on the key's Weyl sequence, its top 53 bits scaled
   exactly by 2^-53. trainer._noise_uniforms is the same function. */
static double noise_uniform(uint64_t key, uint64_t counter)
{
    uint64_t z = key + (counter + 1) * UINT64_C(0x9E3779B97F4A7C15);

    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1p-53;
}

/* sum of a[j] * b[j] in four partial sums s0..s3 over j mod 4 (the last
   n mod 4 terms go to s0), added as (s0 + s1) + (s2 + s3): a fixed order,
   so results are deterministic, and one the compiler can keep in a single
   vector register */
static double dot(const double *restrict a, const double *restrict b, int64_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;

    for (; j + 4 <= n; j += 4) {
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    for (; j < n; j++)
        s0 += a[j] * b[j];
    return (s0 + s1) + (s2 + s3);
}

/* Train positions 0..n-1 of one label pass under the class vector cls;
   the arguments are those of train_chunk, offset to this pass, whose
   first position has the run-wide index `first`. Adds the summed loss to
   *loss and returns the positions short of negatives. */
static int64_t label_pass(
    double *restrict input, double *restrict output, int64_t n_rows,
    const double *restrict noise, double *restrict cls,
    const int64_t *restrict idx, int64_t n,
    const double *restrict alphas, uint64_t key, uint64_t first,
    int64_t dim, int64_t window, int64_t negative, int64_t attempts,
    int64_t *restrict rows, double *restrict scratch, double *restrict loss)
{
    double *restrict err = scratch;             /* 1 + negative */
    double *restrict h = err + 1 + negative;    /* dim */
    double *restrict neu1e = h + dim;           /* dim */
    double loss_sum = 0.0;
    int64_t shortfall = 0;

    for (int64_t p = 0; p < n; p++) {
        const double alpha = alphas[p];
        const int64_t lo = p - window > 0 ? p - window : 0;
        const int64_t hi = p + window + 1 < n ? p + window + 1 : n;
        const int64_t center = idx[p];
        int64_t k = 0, n_ctx = 0;

        /* context mean: class vector plus the window rows, center excluded */
        for (int64_t j = 0; j < dim; j++)
            h[j] = 0.0;
        for (int64_t c = lo; c < hi; c++) {
            if (c == p)
                continue;
            const double *restrict row = input + idx[c] * dim;
            for (int64_t j = 0; j < dim; j++)
                h[j] += row[j];
            n_ctx++;
        }
        for (int64_t j = 0; j < dim; j++)
            h[j] = (cls[j] + h[j]) / (double)(1 + n_ctx);

        /* negatives: first draw of each slot that misses the center; the
           draw of attempt a of slot s has counter
           ((first + p) * negative + s) * attempts + a */
        rows[k++] = center;
        for (int64_t s = 0; s < negative; s++) {
            const uint64_t counter =
                ((first + (uint64_t)p) * (uint64_t)negative + (uint64_t)s)
                * (uint64_t)attempts;
            for (int64_t a = 0; a < attempts; a++) {
                int64_t row = draw_row(noise, n_rows,
                                       noise_uniform(key, counter + (uint64_t)a));
                if (row != center) {
                    rows[k++] = row;
                    break;
                }
            }
        }
        if (k < 1 + negative)
            shortfall++;

        /* logits and dL/dz from the output rows as they were before this
           step. The loss is log(1 + exp(-z)) for the center and
           log(1 + exp(z)) for a negative, both max(+-z, 0) + log1p(e) with
           e = exp(-|z|); the sigmoid reuses e, which is exp(-z), when
           z >= 0: the values of the plain formulas, from fewer calls */
        for (int64_t i = 0; i < k; i++) {
            const double z = dot(output + rows[i] * dim, h, dim);
            const double e = exp(-fabs(z));
            loss_sum += fmax(i == 0 ? -z : z, 0.0) + log1p(e);
            err[i] = 1.0 / (1.0 + (z >= 0.0 ? e : exp(-z)));
        }
        err[0] -= 1.0;

        /* neu1e = -alpha * dL/dh, also from the rows before the update */
        for (int64_t j = 0; j < dim; j++)
            neu1e[j] = 0.0;
        for (int64_t i = 0; i < k; i++) {
            const double *restrict u = output + rows[i] * dim;
            const double e = err[i];
            for (int64_t j = 0; j < dim; j++)
                neu1e[j] += e * u[j];
        }
        for (int64_t j = 0; j < dim; j++)
            neu1e[j] = -alpha * neu1e[j];

        /* output rows one after another, so a repeated row takes every step */
        for (int64_t i = 0; i < k; i++) {
            double *restrict u = output + rows[i] * dim;
            const double e = err[i];
            for (int64_t j = 0; j < dim; j++)
                u[j] -= alpha * (e * h[j]);
        }

        /* the full context-side step to the class vector and to every
           context row, once per occurrence */
        for (int64_t j = 0; j < dim; j++)
            cls[j] += neu1e[j];
        for (int64_t c = lo; c < hi; c++) {
            if (c == p)
                continue;
            double *restrict row = input + idx[c] * dim;
            for (int64_t j = 0; j < dim; j++)
                row[j] += neu1e[j];
        }
    }
    *loss += loss_sum;
    return shortfall;
}

/* Train label passes of class-conditioned CBOW, in pass order.

   input     n_rows x dim, one row per corpus token
   output    n_rows x dim, the same tokens' output vectors
   classes   n_classes x dim
   noise     n_rows cumulative noise probabilities
   idx, alphas
             n_positions entries: the positions of every pass back to back
             (row of the token in input and output, learning rate)
   key, first
             the run's noise key and the run-wide index of position 0,
             which fix every noise draw (noise_uniform)
   lengths, labels
             n_passes entries: pass i trains the next lengths[i]
             positions under class vector labels[i]; the lengths add up
             to n_positions
   rows      scratch, 1 + negative entries
   scratch   scratch, 1 + negative + 2 * dim entries

   The four matrices must not overlap. Stores the summed negative-sampling
   loss in *loss and returns the number of positions that got fewer than
   `negative` negatives, or -1, touching nothing, when any index is out
   of range, first is negative, or the lengths do not add up to
   n_positions. */
int64_t train_chunk(
    double *input, double *output, int64_t n_rows, const double *noise,
    double *classes, int64_t n_classes,
    const int64_t *idx, int64_t n_positions,
    const double *alphas, uint64_t key, int64_t first,
    const int64_t *lengths, const int64_t *labels, int64_t n_passes,
    int64_t dim, int64_t window, int64_t negative, int64_t attempts,
    int64_t *rows, double *scratch, double *loss)
{
    int64_t shortfall = 0, s = 0;

    if (first < 0)
        return -1;
    for (int64_t p = 0; p < n_positions; p++)
        if (idx[p] < 0 || idx[p] >= n_rows)
            return -1;
    for (int64_t i = 0; i < n_passes; i++) {
        if (labels[i] < 0 || labels[i] >= n_classes
                || lengths[i] < 0 || lengths[i] > n_positions - s)
            return -1;
        s += lengths[i];
    }
    if (s != n_positions)
        return -1;

    *loss = 0.0;
    s = 0;
    for (int64_t i = 0; i < n_passes; i++) {
        shortfall += label_pass(
            input, output, n_rows, noise, classes + labels[i] * dim,
            idx + s, lengths[i], alphas + s, key, (uint64_t)(first + s),
            dim, window, negative, attempts, rows, scratch, loss);
        s += lengths[i];
    }
    return shortfall;
}

/* One epoch of per-example SGD on the linear probe, in place.

   x         n x m document features
   labels    n class indices (exclusive mode; unused in multilabel mode)
   y         n x k 0/1 targets (multilabel mode; unused in exclusive mode)
   order     n_order example rows, visited in this order
   weights   m x k, bias k: logits z = x @ weights + bias
   scratch   k entries

   Each step repeats loss_and_grads in classifier.py, the reference: from
   the parameters before the step it takes the cross-entropy of the
   softmax (exclusive) or the summed per-class sigmoid cross-entropy
   (multilabel), plus 0.5 * l2 * ||weights||^2, and the gradient
   err = dL/dz; then weights -= lr * (outer(x, err) + l2 * weights) and
   bias -= lr * err. Sums run in index order.

   Stores the summed pre-update loss in *loss and returns 0, or returns -1
   (touching nothing) when a row or label index is out of range. */
int64_t probe_epoch(
    const double *x, int64_t n, int64_t m,
    const int64_t *labels, const double *y, int64_t multilabel,
    const int64_t *order, int64_t n_order,
    double *weights, double *bias, int64_t k,
    double lr, double l2, double *scratch, double *loss)
{
    double *err = scratch;
    double loss_sum = 0.0;

    for (int64_t s = 0; s < n_order; s++)
        if (order[s] < 0 || order[s] >= n
                || (!multilabel && (labels[order[s]] < 0 || labels[order[s]] >= k)))
            return -1;

    for (int64_t s = 0; s < n_order; s++) {
        const int64_t r = order[s];
        const double *xr = x + r * m;
        double step_loss;

        /* logits from the parameters before this step */
        for (int64_t j = 0; j < k; j++)
            err[j] = 0.0;
        for (int64_t i = 0; i < m; i++) {
            const double *w = weights + i * k;
            for (int64_t j = 0; j < k; j++)
                err[j] += xr[i] * w[j];
        }
        for (int64_t j = 0; j < k; j++)
            err[j] += bias[j];

        if (multilabel) {
            /* -y log sigma(z) - (1 - y) log sigma(-z); err = sigma(z) - y */
            const double *yr = y + r * k;
            step_loss = 0.0;
            for (int64_t j = 0; j < k; j++) {
                /* softplus(+-z) share log1p(exp(-|z|)), and exp(-|z|) is
                   exp(-z) when z >= 0: the values of the plain formulas,
                   from fewer calls */
                const double z = err[j], e = exp(-fabs(z)), tail = log1p(e);
                step_loss += yr[j] * (fmax(-z, 0.0) + tail)
                             + (1.0 - yr[j]) * (fmax(z, 0.0) + tail);
                err[j] = 1.0 / (1.0 + (z >= 0.0 ? e : exp(-z))) - yr[j];
            }
        } else {
            /* log sum exp(z - max) - (z - max)[label]; err = softmax - onehot */
            const int64_t t = labels[r];
            double top = err[0], total = 0.0, shifted_t;
            for (int64_t j = 1; j < k; j++)
                if (err[j] > top)
                    top = err[j];
            shifted_t = err[t] - top;
            for (int64_t j = 0; j < k; j++) {
                err[j] = exp(err[j] - top);
                total += err[j];
            }
            step_loss = log(total) - shifted_t;
            for (int64_t j = 0; j < k; j++)
                err[j] = err[j] / total;
            err[t] -= 1.0;
        }
        if (l2 != 0.0) {
            double sq = 0.0;
            for (int64_t i = 0; i < m * k; i++)
                sq += weights[i] * weights[i];
            step_loss += 0.5 * l2 * sq;
        }
        loss_sum += step_loss;

        for (int64_t i = 0; i < m; i++) {
            double *w = weights + i * k;
            for (int64_t j = 0; j < k; j++)
                w[j] -= lr * (xr[i] * err[j] + l2 * w[j]);
        }
        for (int64_t j = 0; j < k; j++)
            bias[j] -= lr * err[j];
    }
    *loss = loss_sum;
    return 0;
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

/* The eight bytes at p as a little-endian integer: p[0] in the low byte */
static uint64_t load_le64(const unsigned char *p)
{
    uint64_t v;

    memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

/* The index of the lowest byte of x with bit 7 set, for x != 0 whose
   bytes have no other bit set: x & -x is 2^(8i + 7), and multiplying
   2^(8i) by the byte string 7 6 5 4 3 2 1 0 leaves i in the top byte */
static int lowest_flagged_byte(uint64_t x)
{
    return (int)((((x & -x) >> 7) * UINT64_C(0x0001020304050607)) >> 56);
}

/* How many of the eight bytes of v (load_le64), from the first on, are
   ASCII digits, 0 to 8. With the SWAR steps of D. Lemire, "Number Parsing
   at a Gigabyte per Second", arXiv:2101.11408: a byte below '0' borrows
   into its bit 7 in the subtraction and one above '9' carries into it in
   the addition. Carries and borrows also cross into higher bytes, but the
   lowest byte that is not a digit gets none from below, so it shows. */
static int leading_digits(uint64_t v)
{
    const uint64_t other = ((v + UINT64_C(0x4646464646464646))
                            | (v - UINT64_C(0x3030303030303030)))
                           & UINT64_C(0x8080808080808080);
    return other ? lowest_flagged_byte(other) : 8;
}

/* The value of the first d (0 to 8) bytes of v, ASCII digits, as a
   decimal number: they move up to the top bytes, with '0' bytes below
   them (each shift is split in two, so none is by 64 bits), and the
   eight digits are combined in three multiplications (Lemire, as above) */
static uint64_t digits_value(uint64_t v, int d)
{
    const uint64_t zeros = UINT64_C(0x3030303030303030);
    const uint64_t mask = UINT64_C(0x000000FF000000FF);
    const int up = 32 - 4 * d;

    v = ((v << up) << up) | ((zeros >> 4 * d) >> 4 * d);
    v -= zeros;
    v = v * 10 + (v >> 8);      /* pairs of digits in every other byte */
    return ((v & mask) * UINT64_C(0x000F424000000064)            /* 100, 10^6 << 32 */
            + ((v >> 16) & mask) * UINT64_C(0x0000271000000001))  /* 1, 10^4 << 32 */
           >> 32;
}

static int is_digit(unsigned char c)
{
    return (unsigned)(c - '0') < 10u;
}

/* a numeral's sign as a factor, exact in any product */
static const double SIGN[2] = {1.0, -1.0};

static const uint64_t POW10_INT[9] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
};

/* 10^(15 - d): a significand below it stays below 10^15 with d more digits */
static const uint64_t TAKES[9] = {
    1000000000000000u, 100000000000000u, 10000000000000u, 1000000000000u,
    100000000000u, 10000000000u, 1000000000u, 100000000u, 10000000u,
};

/* Append the run of digits at p to the significand *w; return the byte
   after the run, or NULL when *w would reach 10^15. Eight digits at a time
   while eight bytes remain before end, then one at a time. */
static inline const unsigned char *take_digits(const unsigned char *p,
                                               const unsigned char *end,
                                               uint64_t *w)
{
    for (;;) {
        if (end - p >= 8) {
            const uint64_t v = load_le64(p);
            const int d = leading_digits(v);
            if (*w >= TAKES[d])
                return NULL;
            *w = *w * POW10_INT[d] + digits_value(v, d);
            p += d;
            if (d < 8)
                return p;
        } else {
            if (p == end || !is_digit(*p))
                return p;
            if (*w >= TAKES[1])
                return NULL;
            *w = *w * 10 + (uint64_t)(*p++ - '0');
        }
    }
}

/* Parse one numeral [+-]digits[.digits][(e|E)[+-]digits], with at least
   one mantissa digit, from p (before end) into *value; return the byte
   after it, or NULL to decline (any other syntax, more than 15
   significant digits, or a nonzero value whose decimal exponent is beyond
   +-22 after moving what W can take of a larger one into W). With W the
   significand as an integer (W < 10^15 < 2^53, exact) and e its
   exponent, W * 10^e is one correctly rounded operation, so the result
   equals the correctly rounded value of the numeral. Leading zeros add
   nothing to W, so "more than 15 significant digits" is W >= 10^15. */
static const unsigned char *parse_numeral(const unsigned char *p,
                                          const unsigned char *end, double *value)
{
    const unsigned char *first;
    uint64_t w = 0;
    int64_t scale = 0, exp10 = 0, digits;
    int negative = p < end && *p == '-';

    p += p < end && (*p == '-' || *p == '+');  /* no branch: signs are random */
    first = p;
    if (end - p >= 2 && is_digit(p[0]) && p[1] == '.') {
        w = (uint64_t)(p[0] - '0');   /* the common one-digit integer part */
        p++;
    } else {
        p = take_digits(p, end, &w);
        if (p == NULL)
            return NULL;
    }
    digits = p - first;
    if (p < end && *p == '.') {
        first = ++p;
        p = take_digits(p, end, &w);
        if (p == NULL)
            return NULL;
        scale = first - p;
        digits -= scale;
    }
    if (digits == 0)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int exp_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exp_negative = *p++ == '-';
        first = p;
        for (; p < end && is_digit(*p); p++)
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
    *value = scale10((double)w, (int)scale) * SIGN[negative];
    return p;
}

/* The word2vec readers' scanners. Each scans up to n rows from
   data[0..len) and, row by row, writes the row's m values as float32 to
   out + r * m and its token to tokens, the tokens back to back with one
   space between them (tokens has room for len bytes: a row's token and
   separator are never longer than the row). It stops at n rows, at the
   first row that does not end within data, or at the first row it
   declines, and returns the number of rows scanned. state[0] is the
   offset after them, state[1] the bytes written to tokens, and state[2]
   is 1 when it stopped at a row it declines, else 0. A declined row may
   leave values in its row of out.

   A row's token is every byte before its first space (text: or newline);
   the Python caller checks the tokens of each call (UTF-8, whitespace,
   repeats). */

/* Append token[0..size), the token of row r, at t, the end of what the
   token buffer holds, after a space unless r is 0; return the new end */
static char *put_token(char *t, int64_t r, const unsigned char *token, int64_t size)
{
    if (r > 0)
        *t++ = ' ';
    for (int64_t i = 0; i < size; i++)
        t[i] = (char)token[i];
    return t + size;
}

/* Whether data[p..end) holds a newline: a text row that starts at p ends
   within data */
static int holds_newline(const unsigned char *p, const unsigned char *end)
{
    for (; p < end; p++)
        if (*p == '\n')
            return 1;
    return 0;
}

/* Text rows: the token, then m numerals each after one space, then '\n'.
   A row is declined when its layout differs, when parse_numeral declines
   a numeral, or when a value is not finite as float32 (every numeral
   parse_numeral accepts is below 1e37, so this last is a safeguard). */
int64_t scan_text(const char *data, int64_t len, int64_t n, int64_t m,
                  float *out, char *tokens, int64_t *state)
{
    const unsigned char *p = (const unsigned char *)data, *end = p + len;
    char *t = tokens;
    int64_t r = 0;
    int declined = 0;

    for (; r < n; r++) {
        const unsigned char *q = p, *token_end;
        float *row = out + r * m;
        int64_t j = 0;

        while (q < end && *q != ' ' && *q != '\n')
            q++;
        token_end = q;
        for (; j < m && q < end && *q == ' '; j++) {
            double v;
            q = parse_numeral(q + 1, end, &v);
            if (q == NULL)
                break;
            row[j] = (float)v;
            if (!isfinite(row[j]))
                break;
        }
        if (j < m || q == end || *q != '\n') {
            declined = holds_newline(p, end);
            break;
        }
        t = put_token(t, r, p, token_end - p);
        p = q + 1;
    }
    state[0] = (const char *)p - data;
    state[1] = t - tokens;
    state[2] = declined;
    return r;
}

/* The four bytes at p as a little-endian integer */
static uint32_t load_le32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
}

/* Binary rows: the token, one space, then m little-endian float32 values.
   A row is declined when a value is not finite. */
int64_t scan_binary(const char *data, int64_t len, int64_t n, int64_t m,
                    float *out, char *tokens, int64_t *state)
{
    const unsigned char *p = (const unsigned char *)data, *end = p + len;
    char *t = tokens;
    int64_t r = 0;
    int declined = 0;

    for (; r < n; r++) {
        const unsigned char *q = p, *v;
        float *row = out + r * m;

        while (q < end && *q != ' ')
            q++;
        if (q == end || end - (q + 1) < 4 * m)
            break;
        v = q + 1;
        for (int64_t j = 0; j < m; j++) {
            const uint32_t bits = load_le32(v + 4 * j);
            declined |= (bits & 0x7F800000u) == 0x7F800000u;
            memcpy(row + j, &bits, 4);
        }
        if (declined)
            break;
        t = put_token(t, r, p, q - p);
        p = v + 4 * m;
    }
    state[0] = (const char *)p - data;
    state[1] = t - tokens;
    state[2] = declined;
    return r;
}
