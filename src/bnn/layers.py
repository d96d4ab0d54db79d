"""Quantized and supporting layers.

Binarized convolution and dense layers keep full-precision latent
weights for the optimizer; the forward pass uses their signs, packed and
multiplied with the XNOR/popcount kernel (im2col turns convolution into
the same GEMM).  Gradients reach the latent weights through the
straight-through estimator.

A layer with binarize_input applies sign's straight-through estimator
to its input itself, with no sign node on the tape: it rejects a NaN
input as sign_forward does, packs x >= 0 from the input and keeps it;
in backward its input gradient is sign_backward's, passed where
|x| <= t_clip.

Scaling modes (single scalar per layer, the mean absolute latent
weight, computed only where a mode reads it):
  N  - no scaling anywhere (default),
  B  - weight gradient multiplied by the factor in backward only,
  FB - forward output and weight gradient both multiplied by the factor.
The activation gradient is never scaled.  QConv2d.scaling computes the
factor for the FB forward (QDense and the plan call it), and
QConv2d._weight_grad for mode B's weight gradient alone.

The binary-linear core is binary_conv: sign activations packed along
channels by bittensor.pack_signs, the one packer, gathered into
word-padded patch rows (patch_rows: the native gather_patches, or im2col
of the 0xFF-padded bytes) and multiplied with the weight's bits (one
pack_signs pass a forward) by bittensor.binary_gemm; when C % 8 != 0 the
1-pad bits of each kernel position add +1 each, in both operands, and
are subtracted; swap_axes, every channels-first <-> channels-last copy
of the binary path, gives NCHW.  Given integer thresholds (the plan's,
for a conv a folded BatchNorm reads), the GEMM writes the packed bits of
sum >= thr instead, the pads added to thr.  Every +-1 float is decoded
from bits by unpack_patches: the weight where a float GEMM reads it
(col2im, a float input's forward), and the weight gradient's patches in
backward, of a large layer one kernel offset at a time
(bits_weight_grad).  QDense is a QConv2d whose binarized input runs
this 1x1 path over (N, F, 1, 1), where col2im needs no float64
accumulator; its weight stays (O, F).

A convolution with a float input (the stem) gathers pixel-innermost
patches, (N, kh*kw*C, OH*OW) in the same (ki, kj, c) order (the native
float_patches for float32, else im2col of the zero-padded input), so one
batched GEMM w @ cols writes NCHW; its weight gradient sums over n*P in
the same order, and it skips the gradient of an input slot with
requires_grad=False (the image batch), so col2im never runs for it.

im2col takes channels-last input of any dtype; its columns are in
(ki, kj, c) order.  Weights stay (O, C, kh, kw), as stored in the model
file.  col2im, its adjoint, adds the patch gradients back and stores the
NCHW input gradient, masked by the STE for a binary layer's input: the
native col2im_add and col2im_store for float32, else numpy's strided
slice adds and sign_backward, with the same bytes.

The heavy passes run in parts, one per CPU (bittensor.in_parts), each
split where no sum crosses a part, so the bytes do not depend on the CPU
count: the packer, patch gather and transpose by images, the binary GEMM
by 6-row blocks, the stem's native patch gather and forward GEMM by
images, in the same parts (each the GEMM the batched call makes), the
copies of its weight gradient's operands by images, BatchNorm's sums by
channels and its normalize and input gradient by images (with the whole
batch's m), col2im by whole, equal blocks of images, unpack_patches by images
(a weight's outputs), the float GEMMs (gemm: both weight gradients, and
the dense layer's input gradient) in whole 32-row or 32-column units of
over 100^3 multiply-adds (OpenBLAS sums smaller GEMMs in another order),
MaxPool's forward and backward by images, and the STE of the latent
weights' sign (weight_ste) by elements, as train.Adam's step is.
The first split, in the first forward, sets OpenBLAS to one thread, in
evaluation too.  A pass too small to pay for a second part runs in one,
by the size rule its docstring gives.

BatchNorm works on (n, c, hw), native for float32 and otherwise numpy
twins with the same bytes: in training in three passes, keeping no xhat;
in evaluation in bn_normalize's one pass with the running statistics, on
no tape.  MaxPool2d keeps no index, and its backward finds each window's
first maximum again.

These forwards serve training and ModelGraph.forward.  Evaluation runs
plan.InferencePlan instead: it calls the forward of every layer that is
not binary, on a throwaway tape, and does the binary layers' work itself
on packed bits, with each weight packed once and a BatchNorm before them
turned into a per-channel threshold; it calls binary_conv, as QConv2d
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff, bittensor
from .autodiff import STEConfig, Slot, Tape
from .errors import ShapeError

SCALING_MODES = ("N", "B", "FB")


def check_scaling_mode(mode):
    if mode not in SCALING_MODES:
        raise ValueError(f"scaling_mode must be one of {SCALING_MODES}, got {mode!r}")


@dataclass
class QLayerConfig:
    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3)
    stride: int = 1
    padding: int = 0
    scaling_mode: str = "N"
    binarize_input: bool = True

    def __post_init__(self):
        check_scaling_mode(self.scaling_mode)
        if min(self.kernel) < 1 or self.stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")


class Param(Slot):
    """A learnable slot; binary=True marks latent binary weights."""

    __slots__ = ("binary",)

    def __init__(self, value, name, binary=False):
        super().__init__(np.asarray(value, dtype=np.float32), name)
        self.binary = binary


def compute_scaling_factor(w: np.ndarray) -> float:
    """Single per-layer scalar: mean absolute value over all entries."""
    w = np.asarray(w)
    if w.size == 0:
        raise ValueError("cannot compute scaling factor of empty weights")
    return float(np.mean(np.abs(w)))


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pixels_inner: bool = False) -> np.ndarray:
    """Channels-last (N,H,W,C) -> (N*OH*OW, kh*kw*C) patch matrix of any
    dtype, one row per output pixel, columns in (ki, kj, c) order; or,
    with pixels_inner, (N, kh*kw*C, OH*OW).  x may be a strided view."""
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sh, sw, sc = x.strides
    view = as_strided(
        x, (n, oh, ow, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc)
    )
    if pixels_inner:
        view = view.transpose(0, 3, 4, 5, 1, 2)
        return np.ascontiguousarray(view).reshape(n, kh * kw * c, oh * ow)
    return np.ascontiguousarray(view).reshape(n * oh * ow, kh * kw * c)


def gemm(a, b, axis):
    """a @ b, in parts along axis 0 (rows) or 1 (columns) of the output, each
    a whole number of 32-row or 32-column units of over 100^3 multiply-adds.
    OpenBLAS sums smaller GEMMs with its small-matrix kernels, in another
    order, so every part sums as the whole GEMM does; and a part packs all
    of the other operand, so one of 16 rows did too little to pay (the
    LeNet stem's 32-row weight gradient ran 13% slower in two parts)."""
    out = np.empty((len(a), b.shape[1]), np.result_type(a, b))
    size = out.shape[axis]
    per = a.shape[0] * a.shape[1] * b.shape[1] // max(1, size)  # multiply-adds a row or column
    unit = 32 * (100 ** 3 // (32 * max(1, per)) + 1)
    units = max(1, size // unit)

    def part(lo, hi):
        at = slice(unit * lo, size if hi == units else unit * hi)
        if axis:
            np.matmul(a, b[:, at], out=out[:, at])
        else:
            np.matmul(a[at], b, out=out[at])

    bittensor.in_parts(part, units)
    return out


# col2im accumulates this many bytes of images at a time, so that its
# float64 sums stay in cache across the kh*kw slice adds
_COL2IM_BLOCK_BYTES = 1 << 20


def col2im(g_mat: np.ndarray, w: np.ndarray, x_shape: tuple, kh: int, kw: int,
           stride: int, padding: int = 0, x: np.ndarray = None,
           ste: STEConfig = None) -> np.ndarray:
    """Adjoint of im2col applied to the patch gradients g_mat @ w: the
    gradient of the (N,C,H,W) input that im2col saw padded by padding.
    The images go in the fewest blocks that fit _COL2IM_BLOCK_BYTES, of
    near-equal size (100: 25 a block, not 28, 28, 28, 16); each is added
    back onto a padded channels-last float64 buffer, a strided slice per
    kernel offset, and stored NCHW without the padding; g_mat @ w is formed
    a block at a time, so the whole patch-gradient matrix never exists at
    once.  Given the binary layer's input x and its STE config, the result
    is the gradient of x through sign, sign_backward(gradient, x, ste)."""
    n, c, h, wd = x_shape
    p = padding
    if h == wd == kh == kw == 1 and not p:
        # one pixel, a 1x1 kernel: each sum is a single product, so the
        # float64 accumulator would give the same bytes
        g = gemm(g_mat, w, 1).astype(g_mat.dtype, copy=False).reshape(x_shape)
        return g if x is None else autodiff.sign_backward(g, x, ste)
    hp, wp = h + 2 * p, wd + 2 * p
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    out = np.empty(x_shape, dtype=g_mat.dtype)
    lib = bittensor.native_kernels()
    # the native store writes float32 and compares |x| in float32
    native = lib and g_mat.dtype == w.dtype == np.float32 and (
        x is None or x.dtype == np.float32)
    if native and x is not None:
        x = np.ascontiguousarray(x)
    step = max(1, _COL2IM_BLOCK_BYTES // (hp * wp * c * 8))
    step = -(-n // -(-n // step)) if n else step  # the fewest blocks, of near-equal size

    def blocks(lo, hi, g_buf, acc_buf):  # a part: whole blocks, the same GEMMs in any split
        for b in range(lo * step, min(n, hi * step), step):
            nb = min(step, n - b)
            g = np.matmul(g_mat[b * oh * ow: (b + nb) * oh * ow], w, out=g_buf[: nb * oh * ow])
            g = g.reshape(nb, oh, ow, kh, kw, c)
            acc = acc_buf[:nb]
            acc.fill(0)
            if native:  # same sums in the same order, the same stored bytes
                lib.col2im_add(g.ctypes.data, acc.ctypes.data, nb, hp, wp, c, oh, ow,
                               kh, kw, stride)
                lib.col2im_store(acc.ctypes.data, None if x is None else x[b].ctypes.data,
                                 out[b].ctypes.data, nb, h, wd, c, p,
                                 0.0 if x is None else ste.t_clip)
            else:
                for i in range(kh):
                    rows = slice(i, i + stride * oh, stride)
                    for j in range(kw):
                        acc[:, rows, j: j + stride * ow: stride] += g[:, :, :, i, j]
                out[b: b + nb] = acc[:, p: p + h, p: p + wd].transpose(0, 3, 1, 2)

    nb0 = min(step, n)  # images in a block; each part gets a GEMM block and an accumulator
    bittensor.in_parts(blocks, -(-n // step), lambda: (
        np.empty((nb0 * oh * ow, w.shape[1]), np.result_type(g_mat, w)), np.empty((nb0, hp, wp, c))))
    if x is None or native:
        return out
    return autodiff.sign_backward(out, x, ste)


class Layer:
    """Base class: parameters, buffers and a serialization descriptor."""

    name = ""

    def params(self):
        return []

    def buffers(self):
        return {}

    def forward(self, tape: Tape, x: Slot, training: bool = True) -> Slot:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


def weight_bits(packed: np.ndarray) -> bittensor.BitTensor:
    """An (O, C, kh, kw) weight's pack_signs bytes as binary_gemm's operand,
    a word-padded row per output in im2col's (ki, kj, c) order."""
    return bittensor.from_row_bytes(packed.reshape(len(packed), -1))


def _pad_bits(bits, p):
    """(N, H, W, bytes) sign bits padded with +1 pixels, the sign of a zero pad."""
    return np.pad(bits, ((0, 0), (p, p), (p, p), (0, 0)), constant_values=0xFF) if p else bits


def patch_rows(bits, kh, kw, stride, padding) -> bittensor.BitTensor:
    """The packed patches of (N, H, W, bytes) sign bits padded with +1
    pixels, one word-padded row per output pixel in im2col's (ki, kj, c)
    order: the native gather_patches writes each row once, and otherwise
    im2col of the padded bits is copied into whole words, its byte oracle.
    The gather runs in parts of the images once the rows take 256 KB: a
    dense layer's (128 KB at LeNet eval, ~9 us) ran 2.5x slower split."""
    lib = bittensor.native_kernels()
    if not lib:
        return bittensor.from_row_bytes(im2col(_pad_bits(bits, padding), kh, kw, stride))
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n, h, w, cb = bits.shape
    r = ((h + 2 * padding - kh) // stride + 1) * ((w + 2 * padding - kw) // stride + 1)
    rows = np.empty((n * r, -(-kh * kw * cb // 8) * 8), np.uint8)  # r an image
    bittensor.in_parts(lambda lo, hi: lib.gather_patches(
        bits[lo:].ctypes.data, rows[lo * r:].ctypes.data, hi - lo, h, w, cb, kh, kw,
        stride, padding, rows.shape[1]), n, split=rows.nbytes >= 1 << 18)
    return bittensor.BitTensor(shape=(n * r, 8 * kh * kw * cb), words=rows.reshape(-1).view("<u8"))


def unpack_patches(bits, c, kh, kw, stride, padding) -> np.ndarray:
    """im2col's rows of c channels' (N, H, W, bytes) sign bits padded with +1
    pixels, as +-1 float32: the native unpack_patches, else its oracle.
    It runs in parts of the images once out takes 2 MB: LeNet's decoded
    qconv0 weight (200 KB) took 61 us in two parts and 31 us in one."""
    lib = bittensor.native_kernels()
    if not lib:
        return im2col(bittensor.unpack_signs(_pad_bits(bits, padding), c), kh, kw, stride)
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n, h, w, cb = bits.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    r = ((hp - kh) // stride + 1) * ((wp - kw) // stride + 1)  # rows per image
    out = np.empty((n * r, kh * kw * c), np.float32)

    def images(lo, hi, plane):
        lib.unpack_patches(bits[lo:].ctypes.data, out[lo * r:].ctypes.data, plane.ctypes.data,
                           hi - lo, h, w, cb, c, kh, kw, stride, padding)

    bittensor.in_parts(images, n, lambda: (np.empty(hp * wp * c, np.float32),),  # a plane a part
                       split=out.nbytes >= 1 << 21)
    return out


_OFFSET_GRAD_BYTES = 32 << 20  # bits_weight_grad's size rule


def bits_weight_grad(g_mat, bits, c, kh, kw, stride, padding) -> np.ndarray:
    """gemm(g_mat.T, unpack_patches(bits, c, kh, kw, stride, padding), 1), the
    (O, kh*kw*C) weight gradient of a binarized input.  Once the whole +-1
    matrix would take _OFFSET_GRAD_BYTES, where glibc maps fresh zeroed pages
    on every call, it runs per kernel offset (ki, kj): a crop of the padded
    bits decoded by the 1x1 route, (n*OH*OW, C), and a gemm into its C
    columns, each column the same BLAS sum where that GEMM has C > 1 (one
    column is a GEMV) and over 100^3 multiply-adds (as in gemm).  Medians
    of 15 on a 2-vCPU AMD EPYC, whole matrix -> per offset:
      (8, 320, 32, 32), 94 MB: 10.34 -> 7.63 ms, per offset
      (8, 128, 32, 32), 38 MB:  4.12 -> 3.45 ms, per offset
      (8, 368, 16, 16), 27 MB:  2.47 -> 2.61 ms, whole
      LeNet's qconv0,   20 MB:  1.68 -> 4.31 ms, whole"""
    m = len(g_mat) * c
    if kh * kw == 1 or c == 1 or m * kh * kw * 4 < _OFFSET_GRAD_BYTES or \
            m * g_mat.shape[1] <= 100 ** 3:
        return gemm(g_mat.T, unpack_patches(bits, c, kh, kw, stride, padding), 1)
    bits = _pad_bits(bits, padding)
    oh, ow = (bits.shape[1] - kh) // stride + 1, (bits.shape[2] - kw) // stride + 1
    g_wb = np.empty((g_mat.shape[1], kh * kw * c), np.result_type(g_mat, np.float32))
    for at, (ki, kj) in enumerate(np.ndindex(kh, kw)):
        crop = bits[:, ki: ki + stride * oh: stride, kj: kj + stride * ow: stride]
        g_wb[:, at * c: (at + 1) * c] = gemm(g_mat.T, unpack_patches(crop, c, 1, 1, 1, 0), 1)
    return g_wb


def swap_axes(x: np.ndarray) -> np.ndarray:
    """(n, a, b) x as a C-contiguous (n, b, a): the native 16 x 16 tile
    transpose for float32 x, else its twin, which copies nothing at a or b = 1.
    The transpose runs in parts of n once x takes 1 MB: LeNet's weight
    gradient transposes (200 KB, ~11 us) ran 1.5x slower in two parts."""
    n, a, b = x.shape
    lib = a > 1 and b > 1 and bittensor.native_float32(x)
    if not lib:
        return np.ascontiguousarray(x.transpose(0, 2, 1))
    out = np.empty((n, b, a), np.float32)
    bittensor.in_parts(lambda lo, hi: lib.transpose(
        x[lo:].ctypes.data, out[lo:].ctypes.data, hi - lo, a, b), n, split=x.nbytes >= 1 << 20)
    return out


def swap_leading_axes(g):
    """(n, o, p) g as a C-contiguous (o, n, p), the bytes of
    np.ascontiguousarray(g.transpose(1, 0, 2)), copied in parts of the images
    once g takes 1 MB, as in swap_axes: the LeNet stem's output gradient at
    batch 100 (7 MB) took 130 -> 77 us in two parts, at 1.1 MB 22 -> 23 us."""
    n, o, p = g.shape
    out = np.empty((o, n, p), g.dtype)
    bittensor.in_parts(lambda lo, hi: np.copyto(out[:, lo:hi], g[lo:hi].transpose(1, 0, 2)), n,
                       split=g.nbytes >= 1 << 20)
    return out


def weight_ste(g: np.ndarray, w: np.ndarray, ste: STEConfig) -> np.ndarray:
    """sign_backward(g, w, ste), the latent weights' gradient through the
    STE of their sign: the native weight_ste for C-contiguous float32 g
    and w of one shape, in parts of the elements once w takes 2 MB
    (qdense0: 89 -> 59 us in two parts), else sign_backward itself
    (qdense0: 370 us)."""
    lib = bittensor.native_float32(g, w)
    if not lib or g.shape != w.shape:
        return autodiff.sign_backward(g, w, ste)
    out = np.empty(w.shape, np.float32)
    gp, wp, op = g.ctypes.data, w.ctypes.data, out.ctypes.data
    bittensor.in_parts(lambda lo, hi: lib.weight_ste(gp + 4 * lo, wp + 4 * lo, op + 4 * lo,
                                                     hi - lo, ste.t_clip),
                       w.size, split=w.nbytes >= 1 << 21)
    return out


def binary_conv(bits, w_bits, kh, kw, stride, padding, c, thr=None):
    """(N, O, OH, OW) exact float32 sums of the +-1 convolution of sign bits
    packed along c channels, (N, H, W, ceil(c/8)) bytes, with weight_bits,
    less the 1-pad bits of each kernel position, which add +1 each.  Given
    integer (O,) thresholds thr, the sign bits of sum >= thr[o] instead,
    packed along O, (N, OH, OW, ceil(O/8)) bytes: the GEMM compares
    sum + pad >= thr + pad and writes no float."""
    (n, h, w, _), (o, k) = bits.shape, w_bits.shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    rows, pad = patch_rows(bits, kh, kw, stride, padding), k - kh * kw * c
    if thr is not None:
        return bittensor.binary_gemm(rows, w_bits, thr=thr + pad).reshape(n, oh, ow, -1)
    y = bittensor.binary_gemm(rows, w_bits)
    if pad:
        y -= pad
    return swap_axes(y.reshape(n, oh * ow, o)).reshape(n, o, oh, ow)


class QConv2d(Layer):
    """Convolution over sign-binarized operands via im2col + packed GEMM.

    With binary=False the layer is an ordinary full-precision convolution
    (used for the network stem); binarize_input needs binary weights.
    """

    def __init__(self, cfg: QLayerConfig, binary=True, ste=None, rng=None, name="qconv"):
        if cfg.binarize_input and not binary:
            raise ValueError(f"{name}: binarize_input needs binary weights")
        self.cfg = cfg
        self.binary = binary
        self.ste = ste or STEConfig()
        self.name = name
        rng = rng or np.random.default_rng(0)
        kh, kw = cfg.kernel
        fan_in = cfg.in_channels * kh * kw
        scale = np.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, scale, (cfg.out_channels, cfg.in_channels, kh, kw))
        if binary:
            w = np.clip(w, -1.0, 1.0)
        self.weight = Param(w, f"{name}.weight", binary=binary)

    def params(self):
        return [self.weight]

    def forward(self, tape, x, training=True):
        if x.value.shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"{self.name}: expected {self.cfg.in_channels} input channels, "
                f"got {x.value.shape[1]}"
            )
        return self._conv(tape, x, x.value)

    def scaling(self):
        """The forward's (alpha, scale): in FB alpha = mean|w| and the output
        scale y -> y * alpha, else (None, y -> y).  alpha is computed only
        where a mode reads it: here for the FB forward (the forwards of
        QConv2d and QDense, and the plan once per FB layer, when it is
        built), and in _weight_grad for mode B, whose forward it leaves
        unscaled."""
        if not (self.binary and self.cfg.scaling_mode == "FB"):
            return None, lambda y: y
        alpha = compute_scaling_factor(self.weight.value)
        return alpha, lambda y: y * alpha

    def _weight_grad(self, g_wb, alpha):
        """The latent weight's gradient from that of the weight signs:
        through their STE (weight_ste), scaled in B and FB by alpha, the
        forward's in FB and mean|w| of the same weights in B."""
        if not self.binary:
            return g_wb
        g_w = weight_ste(g_wb, self.weight.value, self.ste)
        if self.cfg.scaling_mode == "B":
            alpha = compute_scaling_factor(self.weight.value)
        if alpha is not None:
            g_w *= alpha
        return g_w

    def _weight_matrix(self):
        """(packed, w_mat): a binary weight's one sign pass, pack_signs'
        (O, kh, kw, ceil(C/8)) bytes (a NaN raises), and w_mat() the
        (O, kh*kw*C) weight in im2col's column order: the +-1 floats decoded
        from those bytes, so backward keeps bits; a float weight's (None)."""
        cfg = self.cfg
        (kh, kw), c, o = cfg.kernel, cfg.in_channels, cfg.out_channels
        weight = self.weight.value.reshape(o, c, kh, kw)
        if not self.binary:
            w_flat = swap_axes(weight.reshape(o, c, kh * kw)).reshape(o, -1)
            return None, lambda: w_flat
        packed = bittensor.pack_signs(weight)
        return packed, lambda: unpack_patches(packed, c, 1, 1, 1, 0).reshape(o, -1)

    def _conv(self, tape, x, xv):
        """The convolution of xv, x's value seen as (N, C, H, W), recorded
        on tape as a function of x; the output has x's rank."""
        cfg = self.cfg
        kh, kw = cfg.kernel
        c, o, s, p = cfg.in_channels, cfg.out_channels, cfg.stride, cfg.padding
        n, _, h, w = xv.shape
        oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
        packed, w_mat = self._weight_matrix()
        if cfg.binarize_input:
            # sign bits packed along C (a NaN raises).  The input itself is
            # kept: backward applies sign's STE to it
            bits = bittensor.pack_signs(xv)
            y = binary_conv(bits, weight_bits(packed), kh, kw, s, p, c)
        else:
            # pixel-innermost patches: one batched GEMM writes NCHW directly;
            # natively each part gathers its own images' patches first
            lib = bittensor.native_float32(xv)
            if lib:
                cols = np.empty((n, kh * kw * c, oh * ow), np.float32)
            else:
                xp = np.pad(xv, ((0, 0), (0, 0), (p, p), (p, p))) if p else xv
                cols = im2col(xp.transpose(0, 2, 3, 1), kh, kw, s, pixels_inner=True)
            wb = w_mat()
            y = np.empty((n, o, oh * ow), np.result_type(wb, cols))

            def images(lo, hi):  # an image a GEMM, as the batched call runs
                if lib:
                    lib.float_patches(xv[lo:].ctypes.data, cols[lo:].ctypes.data, hi - lo,
                                      c, h, w, kh, kw, s, p)
                np.matmul(wb, cols[lo:hi], out=y[lo:hi])

            bittensor.in_parts(images, n)
            y = y.reshape(n, o, oh, ow)

        alpha, scale = self.scaling()
        y = scale(y)
        out = Slot(y.reshape(y.shape[: x.value.ndim]), name=self.name)

        def backward_fn(g_y):
            g_y = g_y.reshape(n, o, oh * ow)
            g_x = None
            if x.requires_grad or cfg.binarize_input:
                g_mat = swap_axes(g_y).reshape(n * oh * ow, o)
            if x.requires_grad:  # False for the image batch
                # activation gradient, through sign's STE for a binary
                # input: never scaled by alpha
                g_x = col2im(g_mat, w_mat(), (n, c, h, w), kh, kw, s, p,
                             xv if cfg.binarize_input else None, self.ste).reshape(x.value.shape)
            # weight gradient through the weight-sign STE, summed in n*P order
            if cfg.binarize_input:  # the packed patches rebuilt as +-1 floats
                g_wb = bits_weight_grad(g_mat, bits, c, kh, kw, s, p)
            else:  # np.tensordot's operands, copied in parts, and GEMM, split by
                # rows.  One image's patches stay the transposed view its
                # reshape makes: numpy's GEMM sums that in another order
                b = cols.transpose(0, 2, 1) if n == 1 else swap_axes(cols)
                g_wb = gemm(swap_leading_axes(g_y).reshape(o, n * oh * ow),
                            b.reshape(n * oh * ow, kh * kw * c), 0)
            g_wb = swap_axes(g_wb.reshape(o, kh * kw, c))
            return (g_x, self._weight_grad(g_wb.reshape(self.weight.value.shape), alpha))

        return tape.record(out, (x, self.weight), backward_fn)

    def spec(self):
        cfg = self.cfg
        return {
            "kind": "qconv",
            "name": self.name,
            "in_channels": cfg.in_channels,
            "out_channels": cfg.out_channels,
            "kernel": list(cfg.kernel),
            "stride": cfg.stride,
            "padding": cfg.padding,
            "binary": self.binary,
            "binarize_input": cfg.binarize_input,
        }


class QDense(QConv2d):
    """Dense layer over (N, F).  With binarize_input it runs QConv2d's 1x1
    path over the (N, F, 1, 1) view of its input; without, a float matmul
    (the classifier head), which alone may add a bias.  Its weight stays
    (O, F), as stored in the model file."""

    def __init__(self, in_features, out_features, binary=True, bias=False,
                 binarize_input=True, scaling_mode="N", ste=None, rng=None,
                 name="qdense"):
        if bias and binarize_input:
            raise ValueError(f"{name}: a bias needs binarize_input=False")
        cfg = QLayerConfig(in_features, out_features, (1, 1), scaling_mode=scaling_mode,
                           binarize_input=binarize_input)
        super().__init__(cfg, binary, ste, rng, name)
        self.weight.value = self.weight.value.reshape(out_features, in_features)
        self.bias = Param(np.zeros(out_features), f"{name}.bias") if bias else None

    def params(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, tape, x, training=True):
        f = self.cfg.in_channels
        if x.value.ndim != 2 or x.value.shape[1] != f:
            raise ShapeError(f"{self.name}: expected (N, {f}) input, got {x.value.shape}")
        if self.cfg.binarize_input:
            return self._conv(tape, x, x.value[:, :, None, None])
        w_mat = self._weight_matrix()[1]
        alpha, scale = self.scaling()
        out = scale(x.value @ w_mat().T)
        if self.bias is not None:
            out = out + self.bias.value
        slot = Slot(out, name=self.name)

        def backward_fn(g_y):
            g_w = self._weight_grad(g_y.T @ x.value, alpha)
            g_b = () if self.bias is None else (g_y.sum(axis=0),)
            return (g_y @ w_mat(), g_w) + g_b

        return tape.record(slot, (x, *self.params()), backward_fn)

    def spec(self):
        return {
            "kind": "qdense",
            "name": self.name,
            "in_features": self.cfg.in_channels,
            "out_features": self.cfg.out_channels,
            "binary": self.binary,
            "bias": self.bias is not None,
            "binarize_input": self.cfg.binarize_input,
        }


# float64 elements per lane buffer of _bn_sums_numpy (2 MB): a block of
# channels whose lanes stay in cache
_LANE_BLOCK = 1 << 18


def _lanes(t, lanes):
    """Copy (n, w, hw) t into the first w channels of the zero-padded lanes
    (n, ceil(hw/L), channels, L): element q of image i goes to
    [i, q // L, :, q % L]."""
    n, w, hw = t.shape
    nl = lanes.shape[3]
    full, tail = divmod(hw, nl)
    lanes = lanes[:, :, :w]
    rows = lanes.transpose(0, 2, 1, 3)
    rows[:, :, :full] = t[:, :, :full * nl].reshape(n, w, full, nl)
    if tail:
        rows[:, :, full, :tail] = t[:, :, full * nl:]
    return lanes


def _lane_total(lanes):
    """Per-channel sums of (n, b, channels, L) lanes in _kernels.c's order:
    each lane image after image (numpy reduces axis 0 one row at a time),
    then the lanes ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))."""
    n, b, w, nl = lanes.shape
    s = np.add.reduce(lanes.reshape(n * b, w, nl), axis=0, initial=0.0)
    while s.shape[1] > 1:
        s = s[:, 0::2] + s[:, 1::2]
    return s[:, 0]


def _bn_sums_numpy(x, g, mean, inv_std):
    """bn_sums' numpy twin, a block of channels at a time."""
    n, c, hw = x.shape
    if hw == 1 and c > 1:
        # Only lane 0 is fed, and a sum started at +0.0 is never -0.0, so
        # one lane gives the same sums.  One block: numpy would sum a block
        # of one channel, (n, 1, 1), pairwise.
        nl, w = 1, c
    else:
        nl = 8
        w = min(c, max(1, _LANE_BLOCK // (n * -(-hw // 8) * 8)))
    b = -(-hw // nl)
    first = np.zeros((n, b, w, nl))
    second = None if g is None else np.zeros_like(first)
    s0, s1 = np.empty(c), np.empty(c)
    for c0 in range(0, c, w):
        ch = slice(c0, c0 + w)
        if g is None:
            lx = _lanes(x[:, ch], first)
            s0[ch] = _lane_total(lx)
            lx -= (s0[ch] / (n * hw))[:, None]
            np.square(lx, out=lx)
            lx[:, -1, :, hw - (b - 1) * nl:] = 0  # the padding
            s1[ch] = _lane_total(lx)
        else:
            lg = _lanes(g[:, ch], first)
            s0[ch] = _lane_total(lg)
            xhat = x[:, ch] - mean[ch, None]
            xhat *= inv_std[ch, None]
            lgx = _lanes(xhat, second)
            lgx *= lg
            s1[ch] = _lane_total(lgx)
    return s0, s1


def bn_sums(x, g=None, mean=None, inv_std=None):
    """Per-channel float64 sums over (n, c, hw) x: (sum x, sum (x - sum x / m)^2),
    m = n * hw; or, given the output gradient g, (sum g, sum g * xhat) with
    xhat = (x - mean) * inv_std in x's dtype.  The native bn_sums when x
    (and g) are float32, else its numpy twin, with the same bytes.  The
    kernel runs in parts of the channels, except at hw = 1, where its sums
    run along the features: LeNet's (100, 1024, 1), ~20 us, ran 1.4x
    slower split."""
    n, c, hw = x.shape
    lib = bittensor.native_float32(*((x,) if g is None else (x, g, mean, inv_std)))
    if lib:
        s0, s1 = np.empty(c), np.empty(c)
        grad = (None,) * 3 if g is None else (g.ctypes.data, mean.ctypes.data,
                                              inv_std.ctypes.data)
        bittensor.in_parts(lambda c0, c1: lib.bn_sums(
            x.ctypes.data, *grad, s0.ctypes.data, s1.ctypes.data, n, c, hw, c0, c1), c,
            split=hw > 1)
        return s0, s1
    return _bn_sums_numpy(x, g, mean, inv_std)


def bn_normalize(x, mean, inv_std, gamma, beta):
    """gamma * ((x - mean) * inv_std) + beta per channel of (n, c, hw) x,
    every operation in x's dtype.  The kernel runs in parts of the images
    once x takes 2 MB: at LeNet's (100, 32, 144), 1.8 MB, ~36 us, two parts
    were slower."""
    lib = bittensor.native_float32(x, mean, inv_std, gamma, beta)
    if lib:
        y = np.empty_like(x)
        bittensor.in_parts(lambda lo, hi: lib.bn_normalize(
            x[lo:].ctypes.data, mean.ctypes.data, inv_std.ctypes.data, gamma.ctypes.data,
            beta.ctypes.data, y[lo:].ctypes.data, hi - lo, *x.shape[1:]), len(x),
            split=x.nbytes >= 1 << 21)
        return y
    y = x - mean[:, None]
    y *= inv_std[:, None]
    y *= gamma[:, None]
    y += beta[:, None]
    return y


def bn_grad_input(x, g, mean, inv_std, k, sg, sgx):
    """BatchNorm's input gradient in training, k * ((m * g - sg) - xhat * sgx)
    per channel of (n, c, hw) x, with xhat = (x - mean) * inv_std recomputed
    and every operation in x's dtype, m = n * hw.  The kernel runs in parts
    of the images, each given the batch's m, once x takes 2 MB, as in
    bn_normalize."""
    lib = bittensor.native_float32(x, g, mean, inv_std, k, sg, sgx)
    n, c, hw = x.shape
    if lib:
        gx = np.empty_like(x)
        bittensor.in_parts(lambda lo, hi: lib.bn_grad_input(
            x[lo:].ctypes.data, g[lo:].ctypes.data, mean.ctypes.data, inv_std.ctypes.data,
            k.ctypes.data, sg.ctypes.data, sgx.ctypes.data, gx[lo:].ctypes.data, hi - lo, c, hw,
            n * hw), n, split=x.nbytes >= 1 << 21)
        return gx
    xhat = x - mean[:, None]
    xhat *= inv_std[:, None]
    xhat *= sgx[:, None]
    gx = g * x.dtype.type(n * hw)
    gx -= sg[:, None]
    gx -= xhat
    gx *= k[:, None]
    return gx


class BatchNorm(Layer):
    """Batch normalization over (N,) or (N,H,W) per channel, with running
    statistics for inference."""

    def __init__(self, num_features, momentum=0.9, eps=1e-5, name="bn"):
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.gamma = Param(np.ones(num_features), f"{name}.gamma")
        self.beta = Param(np.zeros(num_features), f"{name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def forward(self, tape, x, training=True):
        v = x.value
        if v.ndim not in (2, 4):
            raise ShapeError(f"{self.name}: unsupported input ndim {v.ndim}")
        if v.shape[1] != self.num_features:
            raise ShapeError(
                f"{self.name}: expected {self.num_features} channels, "
                f"got {v.shape[1]}"
            )
        # (n, c, hw); the product, not -1, so that a batch of no images reshapes
        xs = np.ascontiguousarray(v).reshape(v.shape[:2] + (math.prod(v.shape[2:]),))
        if training:
            return self._train_forward(tape, x, xs)
        # the running statistics, on no tape: nothing differentiates an eval pass
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        stats = (self.running_mean, inv_std, self.gamma.value, self.beta.value)
        y = bn_normalize(xs, *(a.astype(v.dtype, copy=False) for a in stats))
        return Slot(y.reshape(v.shape), name=self.name)

    def _train_forward(self, tape, x, xs):
        """Batch statistics as float64 lane sums (bn_sums); the tape keeps
        x and per-channel values, and backward recomputes xhat from them."""
        v = x.value
        if not v.size:
            raise ShapeError(f"{self.name}: batch statistics need a value per channel, "
                             f"got an input of shape {v.shape}")
        dt = v.dtype
        m = xs.shape[0] * xs.shape[2]
        s, d = bn_sums(xs)
        mean, var = s / m, d / m
        self.running_mean[:] = self.momentum * self.running_mean + (1 - self.momentum) * mean
        self.running_var[:] = self.momentum * self.running_var + (1 - self.momentum) * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        mu, istd = mean.astype(dt), inv_std.astype(dt)
        y = bn_normalize(xs, mu, istd, self.gamma.value.astype(dt, copy=False),
                         self.beta.value.astype(dt, copy=False))
        out = Slot(y.reshape(v.shape), name=self.name)

        def backward_fn(g_y):
            g = np.ascontiguousarray(g_y, dtype=dt).reshape(xs.shape)
            sg, sgx = bn_sums(xs, g, mu, istd)
            k = self.gamma.value * inv_std / m
            g_x = bn_grad_input(xs, g, mu, istd, k.astype(dt), sg.astype(dt), sgx.astype(dt))
            pdt = self.gamma.value.dtype
            return (g_x.reshape(v.shape), sgx.astype(pdt), sg.astype(pdt))

        return tape.record(out, (x, self.gamma, self.beta), backward_fn)

    def spec(self):
        return {
            "kind": "batchnorm",
            "name": self.name,
            "num_features": self.num_features,
            "momentum": self.momentum,
            "eps": self.eps,
        }


class MaxPool2d(Layer):
    """Max pooling.  The forward's k^2 strided np.maximum passes and the
    native maxpool_grad each run in parts of the images once x takes 512 KB:
    at k = s = 2, a LeNet pool1 input of 400 KB took 57 -> 44 us forward and
    37 -> 38 us backward in two parts, one of 128 KB 22 -> 37 and 15 -> 25
    us, pool0's 7 MB at batch 100 548 -> 291 and 306 -> 174 us."""

    def __init__(self, kernel=2, stride=None, name="maxpool"):
        self.kernel = kernel
        self.stride = stride or kernel
        self.name = name

    def forward(self, tape, x, training=True):
        k, s = self.kernel, self.stride
        xv = x.value
        n, c, h, w = xv.shape
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        slices = [
            np.s_[..., di: di + s * oh: s, dj: dj + s * ow: s]
            for di in range(k) for dj in range(k)
        ]
        y = np.empty(xv[slices[0]].shape, xv.dtype)
        split = xv.nbytes >= 1 << 19

        def images(lo, hi):
            # np.maximum returns its second operand on a -0.0/+0.0 tie, so
            # y keeps the first maximum in window order, as argmax would
            xs, ys = xv[lo:hi], y[lo:hi]
            np.copyto(ys, xs[slices[0]])
            for sl in slices[1:]:
                np.maximum(xs[sl], ys, out=ys)

        bittensor.in_parts(images, n, split=split)
        out = Slot(y, name=self.name)

        def backward_fn(g_y):
            # each output's gradient goes to the first input in row-major
            # window order equal to its maximum, as argmax breaks ties.  The
            # native maxpool_grad recomputes the hits from x and y in one
            # pass, a plane at a time, with the bytes of the numpy code
            # below, which runs for other dtypes and for overlapping windows
            # (k > s): they share inputs, so those sum in float64.  g_y * hit
            # is +-0.0 where not hit, which leaves the sum as is
            lib = k == s and bittensor.native_float32(xv, y, g_y)
            if lib:
                g_x = np.empty_like(xv)
                bittensor.in_parts(lambda lo, hi: lib.maxpool_grad(
                    xv[lo:].ctypes.data, y[lo:].ctypes.data, g_y[lo:].ctypes.data,
                    g_x[lo:].ctypes.data, (hi - lo) * c, h, w, s), n, split=split)
                return (g_x,)
            g_x = np.zeros((n, c, h, w), np.float64 if k > s else g_y.dtype)
            free = np.ones(y.shape, dtype=bool)
            for sl in slices:
                hit = (xv[sl] == y) & free
                free &= ~hit
                g_x[sl] += g_y * hit
            return (g_x.astype(g_y.dtype, copy=False),)

        return tape.record(out, (x,), backward_fn)

    def spec(self):
        return {"kind": "maxpool", "name": self.name,
                "kernel": self.kernel, "stride": self.stride}


class AvgPool2d(Layer):
    def __init__(self, kernel=2, stride=None, name="avgpool"):
        self.kernel = kernel
        self.stride = stride or kernel
        self.name = name

    def forward(self, tape, x, training=True):
        k, s = self.kernel, self.stride
        if s != k:
            raise ShapeError("AvgPool2d supports stride == kernel only")
        xv = x.value
        n, c, h, w = xv.shape
        oh, ow = h // k, w // k

        def window_row(i):  # row i of every window, added left to right
            r = xv[:, :, i: k * oh: k, 0: k * ow: k].copy()
            for j in range(1, k):
                r += xv[:, :, i: k * oh: k, j: k * ow: k]
            return r

        # the rows added top to bottom: (x00 + x01) + (x10 + x11) at k = 2,
        # the bytes of numpy's mean over the window
        y = window_row(0)
        for i in range(1, k):
            y += window_row(i)
        y /= k * k
        out = Slot(y, name=self.name)

        def backward_fn(g_y):  # g_y / k^2 at each input of its window, 0 where none
            g = np.empty((n, c, h, w), dtype=g_y.dtype)
            g[:, :, k * oh:] = g[:, :, :, k * ow:] = 0
            q = g_y / (k * k)
            for i in range(k):
                for j in range(k):
                    g[:, :, i: k * oh: k, j: k * ow: k] = q
            return (g,)

        return tape.record(out, (x,), backward_fn)

    def spec(self):
        return {"kind": "avgpool", "name": self.name,
                "kernel": self.kernel, "stride": self.stride}


class GlobalAvgPool(Layer):
    def __init__(self, name="gap"):
        self.name = name

    def forward(self, tape, x, training=True):
        n, c, h, w = x.value.shape
        y = x.value.mean(axis=(2, 3))
        out = Slot(y, name=self.name)

        def backward_fn(g_y):
            g = np.broadcast_to(
                g_y[:, :, None, None] / (h * w), (n, c, h, w)
            )
            return (np.ascontiguousarray(g),)

        return tape.record(out, (x,), backward_fn)

    def spec(self):
        return {"kind": "global_avgpool", "name": self.name}


class Flatten(Layer):
    def __init__(self, name="flatten"):
        self.name = name

    def forward(self, tape, x, training=True):
        shape = x.value.shape
        out = Slot(x.value.reshape(shape[0], np.prod(shape[1:], dtype=int)), name=self.name)

        def backward_fn(g_y):
            return (g_y.reshape(shape),)

        return tape.record(out, (x,), backward_fn)

    def spec(self):
        return {"kind": "flatten", "name": self.name}


def concat(tape: Tape, inputs, name="concat") -> Slot:
    """Concatenate along the channel axis; output channels are the sum."""
    values = [s.value for s in inputs]
    out = Slot(np.concatenate(values, axis=1), name=name)
    sizes = [v.shape[1] for v in values]

    def backward_fn(g_y):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.ascontiguousarray(g) for g in np.split(g_y, splits, axis=1))

    return tape.record(out, tuple(inputs), backward_fn)


def residual_add(tape: Tape, a: Slot, b: Slot, name="add") -> Slot:
    if a.value.shape != b.value.shape:
        raise ShapeError(
            f"residual_add shape mismatch: {a.value.shape} vs {b.value.shape}"
        )
    out = Slot(a.value + b.value, name=name)

    def backward_fn(g_y):
        return (g_y, g_y.copy())

    return tape.record(out, (a, b), backward_fn)
