"""Quantized and supporting layers.

Binarized convolution and dense layers keep full-precision latent
weights for the optimizer; the forward pass uses their signs, packed and
multiplied with the XNOR/popcount kernel (im2col turns convolution into
the same GEMM).  Gradients reach the latent weights through the
straight-through estimator.

Scaling modes (single scalar per layer, the mean absolute latent
weight, computed only where a mode reads it):
  N  - no scaling anywhere (default),
  B  - weight gradient multiplied by the factor in backward only,
  FB - forward output and weight gradient both multiplied by the factor.
The activation gradient is never scaled.

A binary convolution packs its sign activations along channels once
(bittensor.pack_channels), pads them with 0xFF (+1) bytes and gathers
packed patch rows with im2col; when C % 8 != 0 the 1-pad bits of each
kernel position add +1 each, in both operands, and are subtracted.  The
+-1 float patches exist only in backward, for the weight gradient.

A convolution with a float input (the stem) gathers pixel-innermost
patches, (N, kh*kw*C, OH*OW) in the same (ki, kj, c) order, so one
batched GEMM w @ cols writes NCHW; its weight gradient sums over n*P in
the same order, and it skips the gradient of an input slot with
requires_grad=False (the image batch), so col2im never runs for it.

im2col takes channels-last input of any dtype; its columns are in
(ki, kj, c) order.  Weights stay (O, C, kh, kw), as stored in the model
file, and flatten to match with w.transpose(0, 2, 3, 1).reshape(O, -1).
col2im adds float32 patch gradients back with the native col2im_add
kernel when it loads (bittensor.native_kernels), in the same order, so
with the same sums, as its numpy strided slice adds.

These forwards serve training and ModelGraph.forward.  Evaluation runs
plan.InferencePlan instead: it calls the forward of every layer that is
not binary, on a throwaway tape, and does the binary layers' work itself
on packed bits, with each weight packed once and a BatchNorm before them
turned into a per-channel threshold; it gathers with im2col and
multiplies with bittensor.binary_gemm, as QConv2d does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff, bittensor
from .autodiff import STEConfig, Slot, Tape
from .errors import ShapeError

SCALING_MODES = ("N", "B", "FB")


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
        if self.scaling_mode not in SCALING_MODES:
            raise ValueError(
                f"scaling_mode must be one of {SCALING_MODES}, "
                f"got {self.scaling_mode!r}"
            )
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


# col2im accumulates this many bytes of images at a time, so that its
# float64 sums stay in cache across the kh*kw slice adds
_COL2IM_BLOCK_BYTES = 1 << 20


def col2im(g_mat: np.ndarray, w: np.ndarray, x_shape: tuple, kh: int, kw: int,
           stride: int) -> np.ndarray:
    """Adjoint of im2col applied to the patch gradients g_mat @ w, added
    back onto the (padded) (N,C,H,W) input one strided slice per kernel
    offset, in float64.  g_mat @ w is formed one block of images at a
    time, so the whole patch-gradient matrix never exists at once."""
    n, c, h, wd = x_shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.empty(x_shape, dtype=g_mat.dtype)
    lib = bittensor.native_kernels()
    step = max(1, _COL2IM_BLOCK_BYTES // (h * wd * c * 8))
    for b in range(0, n, step):
        nb = min(step, n - b)
        g = (g_mat[b * oh * ow: (b + nb) * oh * ow] @ w).reshape(nb, oh, ow, kh, kw, c)
        acc = np.zeros((nb, h, wd, c))
        if lib and g.dtype == np.float32:  # same sums, same order
            lib.col2im_add(g.ctypes.data, acc.ctypes.data, nb, h, wd, c, oh, ow,
                           kh, kw, stride)
        else:
            for i in range(kh):
                rows = slice(i, i + stride * oh, stride)
                for j in range(kw):
                    acc[:, rows, j: j + stride * ow: stride] += g[:, :, :, i, j]
        out[b: b + nb] = acc.transpose(0, 3, 1, 2)
    return out


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


class QConv2d(Layer):
    """Convolution over sign-binarized operands via im2col + packed GEMM.

    With binary=False the layer is an ordinary full-precision convolution
    (used for the network stem).
    """

    def __init__(self, cfg: QLayerConfig, binary=True, ste=None, rng=None, name="qconv"):
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

    def out_shape(self, in_shape):
        c, h, w = in_shape
        kh, kw = self.cfg.kernel
        p, s = self.cfg.padding, self.cfg.stride
        return (
            self.cfg.out_channels,
            (h + 2 * p - kh) // s + 1,
            (w + 2 * p - kw) // s + 1,
        )

    def forward(self, tape, x, training=True):
        cfg = self.cfg
        kh, kw = cfg.kernel
        c, o, s, p = cfg.in_channels, cfg.out_channels, cfg.stride, cfg.padding
        if x.value.shape[1] != c:
            raise ShapeError(
                f"{self.name}: expected {c} input channels, "
                f"got {x.value.shape[1]}"
            )
        n, _, h, w = x.value.shape
        hp, wp = h + 2 * p, w + 2 * p
        oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
        # (O, C, kh, kw) -> (O, kh*kw*C), matching the im2col column order
        w_flat = self.weight.value.transpose(0, 2, 3, 1).reshape(o, -1)
        wb = autodiff.sign_forward(w_flat) if self.binary else w_flat
        if cfg.binarize_input:
            # sign bits packed along C; 0xFF pad bytes are +1 pixels
            x = autodiff.sign(tape, x, self.ste)
            padded = bittensor.pack_channels(x.value)
            if p:
                padded = np.pad(padded, ((0, 0), (p, p), (p, p), (0, 0)),
                                constant_values=0xFF)
            cols = im2col(padded, kh, kw, s)

            def float_cols():  # packed patches are rebuilt as +-1 floats
                signs = bittensor.unpack_rows(padded.reshape(n * hp * wp, -1), c)
                return im2col(signs.reshape(n, hp, wp, c), kh, kw, s)

            if self.binary:
                w_rows = bittensor.pack_channels(self.weight.value).reshape(o, -1)
                out_mat = bittensor.binary_gemm(bittensor.from_row_bytes(cols),
                                                bittensor.from_row_bytes(w_rows))
                out_mat -= cols.shape[1] * 8 - w_flat.shape[1]  # pad bits
                cols = None  # not kept for backward
            else:
                out_mat = float_cols() @ wb.T
            y = out_mat.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
        else:
            # pixel-innermost patches: one batched GEMM writes NCHW directly
            xv = np.pad(x.value, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.value
            cols = im2col(xv.transpose(0, 2, 3, 1), kh, kw, s, pixels_inner=True)
            y = np.matmul(wb, cols).reshape(n, o, oh, ow)

        # alpha is read only by the FB forward and the B/FB weight gradient
        scaled = self.binary and cfg.scaling_mode in ("B", "FB")
        alpha = compute_scaling_factor(self.weight.value) if scaled else None
        if scaled and cfg.scaling_mode == "FB":
            y = y * alpha
        out = Slot(np.ascontiguousarray(y), name=self.name)

        def backward_fn(g_y):
            g_x = None
            if x.requires_grad:  # False only for the image batch, never a sign output
                g_mat = np.ascontiguousarray(g_y.transpose(0, 2, 3, 1)).reshape(-1, o)
                # activation gradient: never scaled by alpha
                g_padded = col2im(g_mat, wb, (n, c, hp, wp), kh, kw, s)
                g_x = g_padded[:, :, p: hp - p, p: wp - p] if p else g_padded
            # weight gradient through the weight-sign STE, summed in n*P order
            if cfg.binarize_input:
                g_wb = g_mat.T @ float_cols()
            else:
                g_wb = np.tensordot(g_y.reshape(n, o, -1), cols, ((0, 2), (0, 2)))
            g_wb = np.ascontiguousarray(g_wb.reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
            if self.binary:
                g_w = autodiff.sign_backward(g_wb, self.weight.value, self.ste)
                if scaled:
                    g_w = g_w * alpha
            else:
                g_w = g_wb
            return (g_x, g_w)

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


class QDense(Layer):
    """Dense analogue of QConv2d (kernel 1x1 over flattened features)."""

    def __init__(self, in_features, out_features, binary=True, bias=False,
                 binarize_input=True, scaling_mode="N", ste=None, rng=None,
                 name="qdense"):
        if scaling_mode not in SCALING_MODES:
            raise ValueError(f"bad scaling_mode {scaling_mode!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.binary = binary
        self.binarize_input = binarize_input
        self.scaling_mode = scaling_mode
        self.ste = ste or STEConfig()
        self.name = name
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        w = rng.normal(0.0, scale, (out_features, in_features))
        if binary:
            w = np.clip(w, -1.0, 1.0)
        self.weight = Param(w, f"{name}.weight", binary=binary)
        self.bias = (
            Param(np.zeros(out_features), f"{name}.bias") if bias else None
        )

    def params(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, tape, x, training=True):
        if x.value.ndim != 2 or x.value.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (N, {self.in_features}) input, "
                f"got {x.value.shape}"
            )
        if self.binarize_input:
            x = autodiff.sign(tape, x, self.ste)
        xin = x.value
        if self.binary:
            wb = autodiff.sign_forward(self.weight.value)
            if self.binarize_input:
                out = bittensor.binary_gemm(
                    bittensor.pack(xin), bittensor.pack(wb)
                )
            else:
                out = xin @ wb.T
        else:
            wb = self.weight.value
            out = xin @ wb.T
        scaled = self.binary and self.scaling_mode in ("B", "FB")
        alpha = compute_scaling_factor(self.weight.value) if scaled else None
        if scaled and self.scaling_mode == "FB":
            out = out * alpha
        if self.bias is not None:
            out = out + self.bias.value
        slot = Slot(out, name=self.name)

        def backward_fn(g_y):
            g_x = g_y @ wb
            g_wb = g_y.T @ xin
            if self.binary:
                g_w = autodiff.sign_backward(
                    g_wb, self.weight.value, self.ste
                )
                if scaled:
                    g_w = g_w * alpha
            else:
                g_w = g_wb
            g_b = g_y.sum(axis=0) if self.bias is not None else None
            grads = (g_x, g_w) + ((g_b,) if self.bias is not None else ())
            return grads

        inputs = (x, self.weight) + (
            (self.bias,) if self.bias is not None else ()
        )
        return tape.record(slot, inputs, backward_fn)

    def spec(self):
        return {
            "kind": "qdense",
            "name": self.name,
            "in_features": self.in_features,
            "out_features": self.out_features,
            "binary": self.binary,
            "bias": self.bias is not None,
            "binarize_input": self.binarize_input,
        }


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
        if v.ndim == 4:
            axes, shape = (0, 2, 3), (1, -1, 1, 1)
        elif v.ndim == 2:
            axes, shape = (0,), (1, -1)
        else:
            raise ShapeError(f"{self.name}: unsupported input ndim {v.ndim}")
        if v.shape[1] != self.num_features:
            raise ShapeError(
                f"{self.name}: expected {self.num_features} channels, "
                f"got {v.shape[1]}"
            )
        if training:
            mean = v.mean(axis=axes)
            var = v.var(axis=axes)
            self.running_mean[:] = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var[:] = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (v - mean.reshape(shape)) * inv_std.reshape(shape)
        y = self.gamma.value.reshape(shape) * xhat + self.beta.value.reshape(shape)
        out = Slot(y.astype(v.dtype), name=self.name)

        m = v.size // self.num_features

        def backward_fn(g_y):
            g_beta = g_y.sum(axis=axes)
            g_gamma = (g_y * xhat).sum(axis=axes)
            g_xhat = g_y * self.gamma.value.reshape(shape)
            if training:
                g_x = (
                    inv_std.reshape(shape)
                    / m
                    * (
                        m * g_xhat
                        - g_xhat.sum(axis=axes, keepdims=True)
                        - xhat * (g_xhat * xhat).sum(axis=axes, keepdims=True)
                    )
                )
            else:
                g_x = g_xhat * inv_std.reshape(shape)
            return (g_x.astype(v.dtype), g_gamma, g_beta)

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
    def __init__(self, kernel=2, stride=None, name="maxpool"):
        self.kernel = kernel
        self.stride = stride or kernel
        self.name = name

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, (h - self.kernel) // self.stride + 1,
                (w - self.kernel) // self.stride + 1)

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
        y = xv[slices[0]].copy()
        for sl in slices[1:]:
            # np.maximum returns its second operand on a -0.0/+0.0 tie, so
            # y keeps the first maximum in window order, as argmax would
            np.maximum(xv[sl], y, out=y)
        out = Slot(y, name=self.name)

        def backward_fn(g_y):
            # each output's gradient goes to the first input in row-major
            # window order equal to its maximum, as argmax breaks ties;
            # overlapping windows (k > s) share inputs, so sum in float64.
            # g_y * hit is +-0.0 where not hit, which leaves the sum as is
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

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, (h - self.kernel) // self.stride + 1,
                (w - self.kernel) // self.stride + 1)

    def forward(self, tape, x, training=True):
        k, s = self.kernel, self.stride
        if s != k:
            raise ShapeError("AvgPool2d supports stride == kernel only")
        n, c, h, w = x.value.shape
        oh, ow = h // k, w // k
        y = x.value[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k).mean(
            axis=(3, 5)
        )
        out = Slot(y, name=self.name)

        def backward_fn(g_y):
            g = np.zeros((n, c, h, w), dtype=g_y.dtype)
            expanded = np.repeat(np.repeat(g_y, k, axis=2), k, axis=3) / (k * k)
            g[:, :, : oh * k, : ow * k] = expanded
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
        out = Slot(x.value.reshape(shape[0], -1), name=self.name)

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
