/* Roofline microkernel for the performance ledger.
 *
 * A u8 x s8 -> s32 dot product over an L1-resident pair of vectors: the
 * arithmetic Intel VNNI (vpdpbusd) and ARM sdot execute, which is what the
 * repository's tensorized kernels model.  Built at set-up with
 * `cc -O3 -march=native`, so the compiler is free to pick the widest
 * dot-product instruction this machine has; the achieved MAC rate is the
 * machine peak the native tier is judged against, and one call is the
 * C-side calibration sample (`cal_c`).
 */
#include <stdint.h>

int32_t ledger_peak(const uint8_t *a, const int8_t *b, int64_t n, int64_t reps)
{
    int32_t total = 0;
    for (int64_t r = 0; r < reps; ++r) {
        int32_t acc = 0;
        for (int64_t i = 0; i < n; ++i)
            acc += (int32_t)a[i] * (int32_t)b[i];
        total += acc;
        /* The operands never change, so without this barrier the compiler
         * may compute one repetition and multiply. */
        __asm__ volatile("" ::: "memory");
    }
    return total;
}
