/* Native kernels for bnnkit, compiled on first use and loaded with ctypes
 * (see bittensor.native_kernels).  Each has a numpy twin that stays the
 * fallback and the test oracle, and each returns exactly what its twin
 * returns.
 *
 * xnor_gemm:  out[m, n] = k - 2 * popcount(a[m, :] XOR bw[:, n]) over
 *             64-bit words, a row-major (M, wpr), bw word-major (wpr, N);
 *             given per-column thresholds thr, the sign bits of
 *             out[m, n] >= thr[n] instead, packed as pack_signs packs them,
 *             so a conv whose reader is a folded BatchNorm writes no floats.
 * gather_patches: sign bits packed along channels as one word-padded row
 *             of packed patch bytes per output pixel, im2col of the
 *             0xFF-padded bytes copied into whole words.
 * unpack_patches: the same sign bits as the +-1 float32 patch matrix of
 *             the weight gradient, im2col of the unpacked +1-padded signs:
 *             each image decoded once, a byte through a table of 8 floats;
 *             by its 1x1 route also a binary weight's +-1 floats, from the
 *             bits pack_signs made of it, the only floats of its signs.
 * float_patches: float32 NCHW input as the float stem's pixel-innermost
 *             patches, im2col of the zero-padded input, in parts of images.
 * transpose:  float32 (n, a, b) as (n, b, a) in 16 x 16 tiles, every
 *             channels-first <-> channels-last copy of the binary path.
 * col2im_add: the adjoint of im2col, adding float32 patch gradients into
 *             a float64 channels-last buffer in kernel-offset (i, j) order.
 * col2im_store: that buffer, padding dropped, as the float32 NCHW input
 *             gradient; given the binary layer's input x, kept only where
 *             |x| <= t_clip (not at a NaN), the straight-through estimator.
 * bn_sums:    BatchNorm's per-channel float64 sums in training, of x and
 *             (x - mean)^2, or of the output gradient g and g * xhat, over
 *             a range of the channels.
 * bn_normalize: y = gamma * ((x - mean) * inv_std) + beta in float32.
 * bn_grad_input: the input gradient k * ((m * g - sum g) - xhat * sum g xhat),
 *             with xhat recomputed from x, so no copy of it is kept.
 * pack_signs: float32 NCHW activations as sign bits packed along channels,
 *             in one read of the floats: thresholded, OR-pooled over MaxPool
 *             windows, flipped, and checked for NaN.
 *             bittensor.pack_signs, the one packer, calls it on planes of
 *             32 pixels or more (its numpy twin packs the smaller ones), and
 *             the plan's fused stem on the float output of each sub-block of
 *             images, while it is in cache.
 * maxpool_grad: MaxPool2d's input gradient for windows of k = s, each
 *             window's gradient at its first maximum, recomputed from the
 *             input and the output, so no index is kept.
 * adam_step:  one Adam step of a float32 parameter, its moments updated in
 *             place, in one pass.
 * weight_ste: the straight-through estimator of the weights' sign, their
 *             gradient where |w| <= t_clip, else +0.0, in one pass.
 *
 * Built with -ffp-contract=off: a fused multiply-add rounds once where
 * the numpy twins round twice, so every a * b + c here is two roundings.
 * -fno-math-errno lets sqrtf vectorise; no kernel reads errno.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Each kernel starts on a 64-byte line, so its speed does not move with the
 * size of the code before it: a 16-byte shift of gather_patches, from one
 * more entry in the library's call table, made it 20% slower. */
#define KERNEL __attribute__((aligned(64)))

#ifdef __AVX512VPOPCNTDQ__
#include <immintrin.h>

/* Rows of a per row block of xnor_gemm, and output columns per column
 * block: R_BLOCK x C_BLOCK uint64 counts are R_BLOCK * 4 of the 32 vector
 * registers, with 4 more for the block's words of bw and 1 for a word of
 * a.  Narrower blocks take 8 columns, the last of them masked. */
#define R_BLOCK 6
#define C_BLOCK 32

/* rows rows of a by vecs vectors of 8 output columns, of which the last
 * holds cols (1 to 8); rows and vecs are constants where this is inlined,
 * so the counts stay in registers across every word.  Masked lanes are
 * neither read from bw nor stored.  With thr, each vector of counts is one
 * byte of bits, one compare of its 8 sums with their thresholds. */
static inline __attribute__((always_inline)) void
xnor_tile(const uint64_t *a, const uint64_t *bw, float *out, const int64_t *thr,
          uint8_t *bits, int rows, int vecs, int64_t cols, int64_t n, int64_t wpr,
          int64_t k)
{
    const __mmask8 last = (__mmask8)((1u << cols) - 1);
    __m512i acc[R_BLOCK][C_BLOCK / 8];
    for (int r = 0; r < rows; r++)
        for (int v = 0; v < vecs; v++)
            acc[r][v] = _mm512_setzero_si512();
    for (int64_t w = 0; w < wpr; w++, bw += n) {
        __m512i b[C_BLOCK / 8];
        for (int v = 0; v < vecs; v++)
            b[v] = _mm512_maskz_loadu_epi64(v == vecs - 1 ? last : 0xFF, bw + 8 * v);
        for (int r = 0; r < rows; r++) {
            const __m512i x = _mm512_set1_epi64((long long)a[r * wpr + w]);
            for (int v = 0; v < vecs; v++)
                acc[r][v] = _mm512_add_epi64(
                    acc[r][v], _mm512_popcnt_epi64(_mm512_xor_si512(x, b[v])));
        }
    }
    /* k - 2 * count as float32, through int32 (exact while k < 2^31), or
     * its compare, pad bits 1 */
    const __m512i kk = _mm512_set1_epi64(k);
    const __m256i keep = _mm256_cmpgt_epi32(_mm256_set1_epi32((int)cols),
                                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const int64_t cb = (n + 7) / 8;
    for (int r = 0; r < rows; r++)
        for (int v = 0; v < vecs; v++) {
            const __m512i d = _mm512_sub_epi64(kk, _mm512_slli_epi64(acc[r][v], 1));
            const __mmask8 lanes = v == vecs - 1 ? last : 0xFF;
            if (thr) {
                const __mmask8 pass = _mm512_cmpge_epi64_mask(
                    d, _mm512_maskz_loadu_epi64(lanes, thr + 8 * v));
                bits[r * cb + v] = (uint8_t)(pass | (__mmask8)~lanes);
                continue;
            }
            const __m256 f = _mm256_cvtepi32_ps(_mm512_cvtepi64_epi32(d));
            float *o = out + r * n + 8 * v;
            if (v == vecs - 1 && cols < 8)
                _mm256_maskstore_ps(o, keep, f);
            else
                _mm256_storeu_ps(o, f);
        }
}

/* rows rows of a against every column of bw; column blocks start at
 * multiples of 8, so each vector of 8 columns is one byte of bits */
static inline __attribute__((always_inline)) void
xnor_rows(const uint64_t *a, const uint64_t *bw, float *out, const int64_t *thr,
          uint8_t *bits, int rows, int64_t n, int64_t wpr, int64_t k)
{
    int64_t j = 0;
    for (; j + C_BLOCK <= n; j += C_BLOCK)
        xnor_tile(a, bw + j, out + j, thr ? thr + j : 0, bits + j / 8, rows, C_BLOCK / 8, 8,
                  n, wpr, k);
    for (; j + 8 <= n; j += 8)
        xnor_tile(a, bw + j, out + j, thr ? thr + j : 0, bits + j / 8, rows, 1, 8, n, wpr, k);
    if (j < n)
        xnor_tile(a, bw + j, out + j, thr ? thr + j : 0, bits + j / 8, rows, 1, n - j, n,
                  wpr, k);
}

/* R_BLOCK rows of a at a time, each word of bw loaded once per row block
 * and column block, then the last m % R_BLOCK rows as one smaller block */
static inline __attribute__((always_inline)) void
xnor_blocks(const uint64_t *a, const uint64_t *bw, uint8_t *o, const int64_t *thr,
            int64_t m, int64_t n, int64_t wpr, int64_t k)
{
    const int64_t row = thr ? (n + 7) / 8 : n * (int64_t)sizeof(float);
    int64_t i = 0;
    for (; i + R_BLOCK <= m; i += R_BLOCK, o += R_BLOCK * row)
        xnor_rows(a + i * wpr, bw, (float *)o, thr, o, R_BLOCK, n, wpr, k);
    a += i * wpr;
    switch (m - i) {
    case 5: xnor_rows(a, bw, (float *)o, thr, o, 5, n, wpr, k); break;
    case 4: xnor_rows(a, bw, (float *)o, thr, o, 4, n, wpr, k); break;
    case 3: xnor_rows(a, bw, (float *)o, thr, o, 3, n, wpr, k); break;
    case 2: xnor_rows(a, bw, (float *)o, thr, o, 2, n, wpr, k); break;
    case 1: xnor_rows(a, bw, (float *)o, thr, o, 1, n, wpr, k); break;
    }
}

/* out is float32 (m, n), or with thr uint8 (m, ceil(n / 8)).  Each route
 * is compiled on its own, thr a constant NULL in the float one: passing
 * thr through made the float GEMM 5-10% slower. */
KERNEL
void xnor_gemm(const uint64_t *a, const uint64_t *bw, void *out, const int64_t *thr,
               int64_t m, int64_t n, int64_t wpr, int64_t k)
{
    if (thr)
        xnor_blocks(a, bw, out, thr, m, n, wpr, k);
    else
        xnor_blocks(a, bw, out, 0, m, n, wpr, k);
}
#else
/* Output columns per tile of xnor_gemm */
#define N_TILE 256

/* Without a vector popcount, register blocks are slower than this loop.
 * Each row of a is multiplied N_TILE output columns at a time, so its
 * 32-bit counts stay in L1 while every word of the tile's bw columns is
 * read, and N has no upper limit.  The inner loop runs along N, so the
 * compiler vectorises the popcount.  out is float32 (m, n), or with thr
 * uint8 (m, ceil(n / 8)): a bit per column compared, pad bits 1. */
KERNEL
void xnor_gemm(const uint64_t *a, const uint64_t *bw, void *out, const int64_t *thr,
               int64_t m, int64_t n, int64_t wpr, int64_t k)
{
    uint32_t cnt[N_TILE];
    const int64_t cb = (n + 7) / 8;
    for (int64_t i = 0; i < m; i++, a += wpr)
        for (int64_t n0 = 0; n0 < n; n0 += N_TILE) {
            const int64_t nt = n - n0 < N_TILE ? n - n0 : N_TILE;
            for (int64_t j = 0; j < nt; j++)
                cnt[j] = 0;
            for (int64_t w = 0; w < wpr; w++) {
                const uint64_t x = a[w], *b = bw + w * n + n0;
                for (int64_t j = 0; j < nt; j++)
                    cnt[j] += (uint32_t)__builtin_popcountll(x ^ b[j]);
            }
            if (!thr) {
                for (int64_t j = 0; j < nt; j++)
                    ((float *)out)[i * n + n0 + j] = (float)(k - 2 * (int64_t)cnt[j]);
                continue;
            }
            uint8_t *o = (uint8_t *)out + i * cb + n0 / 8;
            for (int64_t j = 0; j < nt; j += 8) {
                unsigned v = 0;
                for (int b = 0; b < 8; b++)
                    v |= (unsigned)(j + b >= nt ||
                                    k - 2 * (int64_t)cnt[j + b] >= thr[n0 + j + b]) << b;
                o[j / 8] = (uint8_t)v;
            }
        }
}
#endif

/* n bytes from src to dst, or of 0xFF if src is NULL, as inline 8-byte
 * moves (the last one overlapping) where a call to memcpy or memset would
 * cost more than the short runs of gather_patches */
static inline void copy_run(uint8_t *restrict dst, const uint8_t *restrict src, int64_t n)
{
    uint64_t v = ~(uint64_t)0;
    if (n < 8) {
        for (int64_t q = 0; q < n; q++)
            dst[q] = src ? src[q] : 0xFF;
        return;
    }
    for (int64_t q = 0; q + 8 < n; q += 8) {
        if (src)
            memcpy(&v, src + q, 8);
        memcpy(dst + q, &v, 8);
    }
    if (src)
        memcpy(&v, src + n - 8, 8);
    memcpy(dst + n - 8, &v, 8);
}

/* bits is uint8 (nb, h, w, cb) and out (nb * oh * ow, row) bytes, with
 * oh = (h + 2p - kh) / s + 1, ow likewise and row >= kh * kw * cb.  Each
 * output pixel's row is its patch of the input padded by p pixels of 0xFF
 * bytes (+1), in im2col's (ki, kj, c) order: kh runs of kw * cb bytes,
 * then 0xFF bytes to the end of the row. */
KERNEL
void gather_patches(const uint8_t *bits, uint8_t *out, int64_t nb, int64_t h,
                    int64_t w, int64_t cb, int64_t kh, int64_t kw, int64_t s,
                    int64_t p, int64_t row)
{
    const int64_t oh = (h + 2 * p - kh) / s + 1, ow = (w + 2 * p - kw) / s + 1;
    const int64_t run = kw * cb, tail = row - kh * run;
    for (int64_t b = 0; b < nb; b++)
        for (int64_t py = 0; py < oh; py++)
            for (int64_t px = 0; px < ow; px++, out += row) {
                const int64_t x0 = px * s - p;
                /* patch columns left and right of the input: at most kw
                 * together, as w >= 1 */
                const int64_t left = x0 < 0 ? (-x0 < kw ? -x0 : kw) : 0;
                const int64_t right = x0 + kw > w ? (x0 + kw - w < kw ? x0 + kw - w : kw) : 0;
                const int64_t mid = kw - left - right;
                uint8_t *o = out;
                for (int64_t i = 0; i < kh; i++, o += run) {
                    const int64_t y = py * s + i - p;
                    if (y < 0 || y >= h) {
                        copy_run(o, NULL, run);
                        continue;
                    }
                    copy_run(o, NULL, left * cb);
                    if (mid)
                        copy_run(o + left * cb, bits + ((b * h + y) * w + x0 + left) * cb,
                                 mid * cb);
                    copy_run(o + (left + mid) * cb, NULL, right * cb);
                }
                copy_run(o, NULL, tail);
            }
}

/* bits is uint8 (nb, h, w, cb), cb >= ceil(c / 8), and out float32
 * (nb * oh * ow, kh * kw * c), oh and ow as in gather_patches.  Each image
 * is decoded, a byte at a time through a table of its 8 signs, into plane,
 * scratch for its (h + 2p, w + 2p, c) floats, padded with +1; each output
 * row is then kh runs of kw * c floats of plane, im2col's (ki, kj, c)
 * order.  A 1 x 1 kernel at stride 1 and no padding decodes straight into
 * out, whose rows are then the pixels. */
KERNEL
void unpack_patches(const uint8_t *bits, float *out, float *plane, int64_t nb,
                    int64_t h, int64_t w, int64_t cb, int64_t c, int64_t kh,
                    int64_t kw, int64_t s, int64_t p)
{
    const int64_t hp = h + 2 * p, wp = w + 2 * p, oh = (hp - kh) / s + 1,
                  ow = (wp - kw) / s + 1, run = kw * c, used = (c + 7) / 8,
                  tail = c - 8 * (used - 1);
    const int direct = kh == 1 && kw == 1 && s == 1 && p == 0;
    float table[256][8];
    for (int v = 0; v < 256; v++)
        for (int b = 0; b < 8; b++)
            table[v][b] = (v >> b) & 1 ? 1.0f : -1.0f;
    if (!direct)
        for (int64_t q = 0; q < hp * wp * c; q++)
            plane[q] = 1.0f;
    for (int64_t i = 0; i < nb; i++, bits += h * w * cb) {
        float *pl = direct ? out + i * h * w * c : plane;
        for (int64_t y = 0; y < h; y++)
            for (int64_t x = 0; x < w; x++) {
                const uint8_t *src = bits + (y * w + x) * cb;
                float *dst = pl + ((y + p) * wp + x + p) * c;
                for (int64_t j = 0; j + 1 < used; j++, dst += 8)
                    memcpy(dst, table[src[j]], sizeof table[0]);
                memcpy(dst, table[src[used - 1]], tail * sizeof(float));
            }
        if (direct)
            continue;
        for (int64_t py = 0; py < oh; py++)
            for (int64_t px = 0; px < ow; px++, out += kh * run)
                for (int64_t k = 0; k < kh; k++)
                    memcpy(out + k * run, plane + ((py * s + k) * wp + px * s) * c,
                           run * sizeof(float));
    }
}

/* x is float32 (nb, c, h, w), out (nb, kh * kw * c, oh * ow) as in
 * gather_patches: row (i, j, ch) of an image holds, for each output row py,
 * input row py * s + i - p from column j - p at stride s, +0.0 outside [a, e). */
KERNEL
void float_patches(const float *x, float *out, int64_t nb, int64_t c, int64_t h,
                   int64_t w, int64_t kh, int64_t kw, int64_t s, int64_t p)
{
    const int64_t oh = (h + 2 * p - kh) / s + 1, ow = (w + 2 * p - kw) / s + 1;
    for (int64_t b = 0; b < nb; b++)
        for (int64_t i = 0; i < kh; i++)
            for (int64_t j = 0; j < kw; j++) {
                const int64_t x0 = j - p, end = x0 < w ? (w - 1 - x0) / s + 1 : 0,
                              hi = end < ow ? end : ow, lo = x0 < 0 ? (s - 1 - x0) / s : 0;
                for (int64_t ch = 0; ch < c; ch++)
                    for (int64_t py = 0, y = i - p; py < oh; py++, y += s, out += ow) {
                        const int in = y >= 0 && y < h && lo < hi;
                        const float *src = x + ((b * c + ch) * h + (in ? y : 0)) * w + x0;
                        const int64_t a = in ? lo : ow, e = in ? hi : ow;
                        for (int64_t px = 0; px < a; px++)
                            out[px] = 0.0f;
                        if (s == 1 && e - a >= 8) {
                            for (int64_t q = a; q + 8 < e; q += 8)
                                memcpy(out + q, src + q, 32);
                            memcpy(out + e - 8, src + e - 8, 32);
                        } else
                            for (int64_t px = a; px < e; px++)
                                out[px] = src[px * s];
                        for (int64_t px = e; px < ow; px++)
                            out[px] = 0.0f;
                    }
            }
}

/* g is (nb, oh, ow, kh, kw, c), acc is (nb, h, w, c).  Each acc row
 * gathers its patches' entries in (i, j) order, the order of col2im's
 * strided slice adds, so every float64 sum is the same; the row stays
 * in cache across its kh*kw adds. */
KERNEL
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

/* Pixels and channels per tile of col2im_store, rows and columns per tile
 * of transpose */
#define S_TILE 16

/* x is float32 (n, a, b) and out (n, b, a), its last two axes swapped.  A
 * tile of S_TILE rows by S_TILE columns is read along b and written along
 * a, so both sides use whole cache lines; full tiles have constant bounds,
 * so the compiler unrolls them. */
KERNEL
void transpose(const float *x, float *out, int64_t n, int64_t a, int64_t b)
{
    for (int64_t i = 0; i < n; i++, x += a * b, out += a * b)
        for (int64_t r0 = 0; r0 < a; r0 += S_TILE)
            for (int64_t c0 = 0; c0 < b; c0 += S_TILE) {
                const float *src = x + r0 * b + c0;
                float *dst = out + c0 * a + r0;
                if (a - r0 >= S_TILE && b - c0 >= S_TILE) {
                    for (int64_t j = 0; j < S_TILE; j++)
                        for (int64_t k = 0; k < S_TILE; k++)
                            dst[j * a + k] = src[k * b + j];
                    continue;
                }
                const int64_t nr = a - r0 < S_TILE ? a - r0 : S_TILE,
                              nc = b - c0 < S_TILE ? b - c0 : S_TILE;
                for (int64_t j = 0; j < nc; j++)
                    for (int64_t k = 0; k < nr; k++)
                        dst[j * a + k] = src[k * b + j];
            }
}

/* acc is (nb, h + 2p, w + 2p, c), x (may be NULL) and out (nb, c, h, w).
 * A tile of S_TILE interior pixels by S_TILE channels is read along c
 * and written along the pixels, so both sides use whole cache lines.
 * The float32 rounding, then the float32 comparison of |x| with t_clip
 * (numpy's, as sign_backward does it), give sign_backward's bytes. */
KERNEL
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
                            out[at + k] = fabsf(x[at + k]) <= t ? tile[j][k] : 0.0f;
                    else
                        for (int64_t k = 0; k < nq; k++)
                            out[at + k] = tile[j][k];
                }
            }
        }
    }
}

/* BatchNorm in training works on float32 x seen as (n, c, hw): hw = H * W
 * for (N, C, H, W) input and 1 for (N, F).  A channel's sum adds element q
 * of each image to float64 lane q % 8, image after image, and combines the
 * lanes as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), as the numpy
 * twin (layers.bn_sums) does.  Lanes start at +0.0, so they never hold
 * -0.0 and the twin's zero padding adds nothing.  At hw = 1 only lane 0
 * is used, and the loops run along the features, so they vectorise. */
#define LANES 8

static double lane_total(const double *l)
{
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/* Lane sums of one channel row: a += x */
static inline void row_sum(double *a, const float *x, int64_t hw)
{
    int64_t q = 0;
    for (; q + LANES <= hw; q += LANES)
        for (int l = 0; l < LANES; l++)
            a[l] += (double)x[q + l];
    for (int l = 0; q + l < hw; l++)
        a[l] += (double)x[q + l];
}

/* a += (x - mu)^2 */
static inline void row_dev(double *a, const float *x, double mu, int64_t hw)
{
    int64_t q = 0;
    for (; q + LANES <= hw; q += LANES)
        for (int l = 0; l < LANES; l++) {
            const double d = (double)x[q + l] - mu;
            a[l] += d * d;
        }
    for (int l = 0; q + l < hw; l++) {
        const double d = (double)x[q + l] - mu;
        a[l] += d * d;
    }
}

/* a += g, b += g * xhat, the product exact in float64 */
static inline void row_grad(double *a, double *b, const float *x, const float *g,
                            float mu, float is, int64_t hw)
{
    int64_t q = 0;
    for (; q + LANES <= hw; q += LANES)
        for (int l = 0; l < LANES; l++) {
            a[l] += (double)g[q + l];
            b[l] += (double)g[q + l] * (double)((x[q + l] - mu) * is);
        }
    for (int l = 0; q + l < hw; l++) {
        a[l] += (double)g[q + l];
        b[l] += (double)g[q + l] * (double)((x[q + l] - mu) * is);
    }
}

/* Without g: s0 = sum x, s1 = sum (x - s0 / m)^2, m = n * hw, the two
 * passes over a channel while it is in cache.  With g: s0 = sum g,
 * s1 = sum g * xhat, xhat = (x - mean) * inv_std in float32.  Only the
 * channels [c0, c1) of the c are summed, so that parts of the channels can
 * run at once with each channel's sums as in one call. */
KERNEL
void bn_sums(const float *x, const float *g, const float *mean,
             const float *inv_std, double *s0, double *s1, int64_t n,
             int64_t c, int64_t hw, int64_t c0, int64_t c1)
{
    const double m = (double)(n * hw);
    if (hw == 1) {
        for (int64_t f = c0; f < c1; f++)
            s0[f] = s1[f] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const float *xr = x + i * c;
            if (g) {
                const float *gr = g + i * c;
                for (int64_t f = c0; f < c1; f++) {
                    s0[f] += (double)gr[f];
                    s1[f] += (double)gr[f] * (double)((xr[f] - mean[f]) * inv_std[f]);
                }
            } else
                for (int64_t f = c0; f < c1; f++)
                    s0[f] += (double)xr[f];
        }
        if (!g)
            for (int64_t i = 0; i < n; i++)
                for (int64_t f = c0; f < c1; f++) {
                    const double d = (double)x[i * c + f] - s0[f] / m;
                    s1[f] += d * d;
                }
        return;
    }
    for (int64_t ch = c0; ch < c1; ch++) {
        double a[LANES] = {0}, b[LANES] = {0};
        if (g) {
            for (int64_t i = 0; i < n; i++)
                row_grad(a, b, x + (i * c + ch) * hw, g + (i * c + ch) * hw,
                         mean[ch], inv_std[ch], hw);
        } else {
            for (int64_t i = 0; i < n; i++)
                row_sum(a, x + (i * c + ch) * hw, hw);
            const double mu = lane_total(a) / m;
            for (int64_t i = 0; i < n; i++)
                row_dev(b, x + (i * c + ch) * hw, mu, hw);
        }
        s0[ch] = lane_total(a);
        s1[ch] = lane_total(b);
    }
}

KERNEL
void bn_normalize(const float *x, const float *mean, const float *inv_std,
                  const float *gamma, const float *beta, float *y, int64_t n,
                  int64_t c, int64_t hw)
{
    for (int64_t i = 0; i < n; i++, x += c * hw, y += c * hw)
        if (hw == 1)
            for (int64_t f = 0; f < c; f++)
                y[f] = gamma[f] * ((x[f] - mean[f]) * inv_std[f]) + beta[f];
        else
            for (int64_t ch = 0; ch < c; ch++) {
                const float mu = mean[ch], is = inv_std[ch], gm = gamma[ch], bt = beta[ch];
                const float *xr = x + ch * hw;
                float *yr = y + ch * hw;
                for (int64_t q = 0; q < hw; q++)
                    yr[q] = gm * ((xr[q] - mu) * is) + bt;
            }
}

/* k, sg and sgx are per channel: gamma * inv_std / m, sum g and
 * sum g * xhat, each rounded to float32; m is the batch's n * hw, which a
 * call on part of the images does not see */
KERNEL
void bn_grad_input(const float *x, const float *g, const float *mean,
                   const float *inv_std, const float *k, const float *sg,
                   const float *sgx, float *gx, int64_t n, int64_t c, int64_t hw,
                   int64_t count)
{
    const float m = (float)count;
    for (int64_t i = 0; i < n; i++, x += c * hw, g += c * hw, gx += c * hw)
        if (hw == 1)
            for (int64_t f = 0; f < c; f++)
                gx[f] = k[f] * ((m * g[f] - sg[f]) - ((x[f] - mean[f]) * inv_std[f]) * sgx[f]);
        else
            for (int64_t ch = 0; ch < c; ch++) {
                const float mu = mean[ch], is = inv_std[ch], kc = k[ch], a = sg[ch], b = sgx[ch];
                const float *xr = x + ch * hw, *gr = g + ch * hw;
                float *out = gx + ch * hw;
                for (int64_t q = 0; q < hw; q++)
                    out[q] = kc * ((m * gr[q] - a) - ((xr[q] - mu) * is) * b);
            }
}

/* x is float32 (n, c, h, w) and out uint8 (n, oh, ow, cb), cb = ceil(c / 8),
 * oh = (h - k) / s + 1 and ow = (w - k) / s + 1.  Bit ch % 8 of byte ch / 8
 * of output pixel (py, px) is set where x[ch] >= thr[ch] (>= 0 if thr is
 * NULL) at some pixel of its k x k window at stride s, XOR bit ch % 8 of
 * flip[ch / 8] (if flip); pad bits are 1.  k = s = 1 is the plain packer.
 * Only the rows and columns some window covers are read.  plane is scratch
 * for their hc * wc bytes: each byte of 8 channels is set channel after
 * channel along the pixels, so the reads run along x and vectorise, and
 * then ORed over the windows.  Returns 1 if a value read is NaN, else 0. */
KERNEL
int pack_signs(const float *x, const float *thr, const uint8_t *flip, uint8_t *out,
               uint8_t *restrict plane, int64_t n, int64_t c, int64_t h, int64_t w,
               int64_t k, int64_t s)
{
    const int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1, cb = (c + 7) / 8;
    const int64_t hc = (oh - 1) * s + k, wc = (ow - 1) * s + k;
    /* whole rows are read as one run */
    const int64_t rows = wc == w ? 1 : hc, run = wc == w ? hc * w : wc;
    unsigned bad = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < cb; j++) {
            const int64_t nch = c - 8 * j < 8 ? c - 8 * j : 8;
            const uint8_t pad = (uint8_t)(0xFF << nch);
            for (int64_t q = 0; q < hc * wc; q++)
                plane[q] = pad;
            for (int64_t b = 0; b < nch; b++) {
                const int64_t ch = 8 * j + b;
                const float t = thr ? thr[ch] : 0.0f;
                const float *xc = x + (i * c + ch) * h * w;
                for (int64_t y = 0; y < rows; y++) {
                    const float *restrict xr = xc + y * w;
                    uint8_t *restrict pr = plane + y * wc;
                    for (int64_t q = 0; q < run; q++) {
                        pr[q] |= (uint8_t)((xr[q] >= t) << b);
                        bad |= xr[q] != xr[q];
                    }
                }
            }
            const uint8_t f = flip ? flip[j] : 0;
            uint8_t *o = out + i * oh * ow * cb + j;
            if (k == 1) {
                for (int64_t q = 0; q < oh * ow; q++)
                    o[q * cb] = plane[q] ^ f;
                continue;
            }
            for (int64_t py = 0; py < oh; py++)
                for (int64_t px = 0; px < ow; px++) {
                    const uint8_t *win = plane + py * s * wc + px * s;
                    uint8_t v = 0;
                    for (int64_t di = 0; di < k; di++)
                        for (int64_t dj = 0; dj < k; dj++)
                            v |= win[di * wc + dj];
                    o[(py * ow + px) * cb] = v ^ f;
                }
        }
    return bad != 0;
}

/* One row of windows of maxpool_grad, s = k.  Each input gets 0 + g * hit,
 * the bytes of numpy's g_x[sl] += g_y * hit on zeros; f stays 1 until the
 * window has found its first maximum.  Bitwise & and ! keep the loop free
 * of branches, so it vectorises along px. */
static inline __attribute__((always_inline)) void
pool_grad_row(const float *x, const float *y, const float *g, float *gx,
              int64_t ow, int64_t w, int64_t s)
{
    for (int64_t px = 0; px < ow; px++) {
        int32_t f = 1;
        for (int64_t di = 0; di < s; di++)
            for (int64_t dj = 0; dj < s; dj++) {
                const int64_t at = di * w + px * s + dj;
                const int32_t e = x[at] == y[px];
                gx[at] = 0.0f + g[px] * (float)(e & f);
                f &= !e;
            }
    }
}

/* A row holds few windows (12 at LeNet's 24 x 24 input, 4 at 8 x 8), so
 * 4-float vectors fill where 16-float ones would leave it scalar. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SHORT_VECTORS __attribute__((target("prefer-vector-width=128")))
#else
#define SHORT_VECTORS
#endif

/* x and gx are float32 (planes, h, w), y and g (planes, oh, ow), windows of
 * k = s with oh = h / s and ow = w / s.  gx is g at the first input in
 * row-major window order equal to the window's maximum y, 0 at the other
 * inputs of the window (0 * g: NaN where g is) and in the cropped rows and
 * columns; a window whose maximum is NaN matches no input.  s = 1, 2 and 3
 * are compiled with s constant. */
KERNEL SHORT_VECTORS
void maxpool_grad(const float *x, const float *y, const float *g, float *gx,
                  int64_t planes, int64_t h, int64_t w, int64_t s)
{
    const int64_t oh = h / s, ow = w / s;
    for (int64_t p = 0; p < planes; p++, x += h * w, gx += h * w) {
        for (int64_t py = 0; py < oh; py++, y += ow, g += ow) {
            const float *xr = x + py * s * w;
            float *gr = gx + py * s * w;
            if (s == 1)
                pool_grad_row(xr, y, g, gr, ow, w, 1);
            else if (s == 2)
                pool_grad_row(xr, y, g, gr, ow, w, 2);
            else if (s == 3)
                pool_grad_row(xr, y, g, gr, ow, w, 3);
            else
                pool_grad_row(xr, y, g, gr, ow, w, s);
            for (int64_t di = 0; di < s; di++)
                for (int64_t q = ow * s; q < w; q++)
                    gr[di * w + q] = 0.0f;
        }
        for (int64_t q = oh * s * w; q < h * w; q++)
            gx[q] = 0.0f;
    }
}

/* One Adam step over n float32 entries, in place, in the float32 order of
 * train.Adam's numpy code: with g the gradient (plus wd * value if decay),
 * m = b1 * m + c1 * g and v = b2 * v + (c2 * g) * g, then
 * value -= ((m / bias1) * lr) / (sqrt(v / bias2) + eps), clipped to
 * [-1, 1] if clip, NaN kept. */
KERNEL
void adam_step(float *value, const float *grad, float *m, float *v, int64_t n,
               float c1, float b1, float c2, float b2, float bias1, float bias2,
               float lr, float eps, float wd, int32_t decay, int32_t clip)
{
    for (int64_t i = 0; i < n; i++) {
        const float g = decay ? grad[i] + wd * value[i] : grad[i];
        const float mi = m[i] * b1 + g * c1;
        const float vi = v[i] * b2 + (g * c2) * g;
        float p = value[i] - ((mi / bias1) * lr) / (sqrtf(vi / bias2) + eps);
        if (clip)
            p = p < -1.0f ? -1.0f : p > 1.0f ? 1.0f : p;
        m[i] = mi;
        v[i] = vi;
        value[i] = p;
    }
}

/* sign_backward of n float32 gradients g at the weights w: g's bits where
 * |w| <= t, else 0 (+0.0; NaN w fails the compare), as the numpy twin ANDs
 * the float32 bits with its mask. */
KERNEL
void weight_ste(const float *g, const float *w, float *out, int64_t n, float t)
{
    const uint32_t *gb = (const uint32_t *)g;
    uint32_t *ob = (uint32_t *)out;
    for (int64_t i = 0; i < n; i++)
        ob[i] = gb[i] & -(uint32_t)(fabsf(w[i]) <= t);
}
