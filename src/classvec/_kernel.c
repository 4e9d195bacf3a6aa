/* One label pass of class-conditioned CBOW with negative sampling.

   The numpy pass in trainer.py (_reference_pass) is the reference; this
   file repeats it step for step, in place, on the float64 matrices of a
   TrainState. Every random or scheduled value (kept positions, per-position
   learning rates, the uniform draws behind the negatives) is drawn by the
   caller and passed in, so the two passes see identical inputs.

   Pure C99 with no Python headers; called through ctypes, which releases
   the interpreter lock. Compiled with -ffp-contract=off so that no
   multiply-add is fused and the rounding follows the written order.
*/
#include <math.h>
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
