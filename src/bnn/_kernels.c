/* Native kernels for bnnkit, compiled on first use and loaded with ctypes
 * (see bittensor.native_kernels).  Each has a numpy twin that stays the
 * fallback and the test oracle, and each returns exactly what its twin
 * returns.
 *
 * xnor_gemm:  out[m, n] = k - 2 * popcount(a[m, :] XOR bw[:, n]) over
 *             64-bit words, a row-major (M, wpr), bw word-major (wpr, N).
 * col2im_add: the adjoint of im2col, adding float32 patch gradients into
 *             a float64 channels-last buffer in kernel-offset (i, j) order.
 * col2im_store: that buffer, padding dropped, as the float32 NCHW input
 *             gradient; given the binary layer's input x, 0 wherever
 *             |x| > t_clip, the straight-through estimator of sign.
 */
#include <math.h>
#include <stdint.h>

/* Output columns per tile of xnor_gemm */
#define N_TILE 256

/* Each row of a is multiplied N_TILE output columns at a time, so its
 * 32-bit counts stay in L1 while every word of the tile's bw columns is
 * read, and N has no upper limit.  The inner loop runs along N, so the
 * compiler vectorises the popcount. */
void xnor_gemm(const uint64_t *a, const uint64_t *bw, float *out,
               int64_t m, int64_t n, int64_t wpr, int64_t k)
{
    uint32_t cnt[N_TILE];
    for (int64_t i = 0; i < m; i++, a += wpr, out += n)
        for (int64_t n0 = 0; n0 < n; n0 += N_TILE) {
            const int64_t nt = n - n0 < N_TILE ? n - n0 : N_TILE;
            for (int64_t j = 0; j < nt; j++)
                cnt[j] = 0;
            for (int64_t w = 0; w < wpr; w++) {
                const uint64_t x = a[w], *b = bw + w * n + n0;
                for (int64_t j = 0; j < nt; j++)
                    cnt[j] += (uint32_t)__builtin_popcountll(x ^ b[j]);
            }
            for (int64_t j = 0; j < nt; j++)
                out[n0 + j] = (float)(k - 2 * (int64_t)cnt[j]);
        }
}

/* g is (nb, oh, ow, kh, kw, c), acc is (nb, h, w, c).  Each acc row
 * gathers its patches' entries in (i, j) order, the order of col2im's
 * strided slice adds, so every float64 sum is the same; the row stays
 * in cache across its kh*kw adds. */
void col2im_add(const float *g, double *acc, int64_t nb, int64_t h,
                int64_t w, int64_t c, int64_t oh, int64_t ow, int64_t kh,
                int64_t kw, int64_t stride)
{
    const int64_t gpix = kh * kw * c;
    for (int64_t b = 0; b < nb; b++)
        for (int64_t y = 0; y < h; y++) {
            double *row = acc + (b * h + y) * w * c;
            for (int64_t i = y % stride; i < kh && i <= y; i += stride) {
                const int64_t py = (y - i) / stride;
                if (py >= oh)
                    continue;
                const float *grow = g + (b * oh + py) * ow * gpix + i * kw * c;
                for (int64_t j = 0; j < kw; j++)
                    for (int64_t px = 0; px < ow; px++) {
                        double *dst = row + (j + stride * px) * c;
                        const float *src = grow + px * gpix + j * c;
                        for (int64_t ch = 0; ch < c; ch++)
                            dst[ch] += (double)src[ch];
                    }
            }
        }
}

/* Pixels and channels per tile of col2im_store */
#define S_TILE 16

/* acc is (nb, h + 2p, w + 2p, c), x (may be NULL) and out (nb, c, h, w).
 * A tile of S_TILE interior pixels by S_TILE channels is read along c
 * and written along the pixels, so both sides use whole cache lines.
 * The float32 rounding, then the float32 comparison of |x| with t_clip
 * (numpy's, as sign_backward does it), give sign_backward's bytes. */
void col2im_store(const double *acc, const float *x, float *out, int64_t nb,
                  int64_t h, int64_t w, int64_t c, int64_t p, double t_clip)
{
    const float t = (float)t_clip;
    const int64_t hw = h * w, wp = w + 2 * p;
    float tile[S_TILE][S_TILE];
    const double *src[S_TILE];
    for (int64_t b = 0; b < nb; b++) {
        const double *img = acc + b * (h + 2 * p) * wp * c;
        for (int64_t q0 = 0; q0 < hw; q0 += S_TILE) {
            const int64_t nq = hw - q0 < S_TILE ? hw - q0 : S_TILE;
            for (int64_t k = 0; k < nq; k++) {
                const int64_t y = (q0 + k) / w, xx = (q0 + k) % w;
                src[k] = img + ((y + p) * wp + xx + p) * c;
            }
            for (int64_t c0 = 0; c0 < c; c0 += S_TILE) {
                const int64_t nc = c - c0 < S_TILE ? c - c0 : S_TILE;
                for (int64_t k = 0; k < nq; k++)
                    for (int64_t j = 0; j < nc; j++)
                        tile[j][k] = (float)src[k][c0 + j];
                for (int64_t j = 0; j < nc; j++) {
                    const int64_t at = (b * c + c0 + j) * hw + q0;
                    if (x)
                        for (int64_t k = 0; k < nq; k++)
                            out[at + k] = fabsf(x[at + k]) > t ? 0.0f : tile[j][k];
                    else
                        for (int64_t k = 0; k < nq; k++)
                            out[at + k] = tile[j][k];
                }
            }
        }
    }
}
