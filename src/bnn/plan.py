"""A tape-free inference plan: the eval forward of a ModelGraph, with
activations kept as packed sign bits between binary layers.

ModelGraph.forward(training=False) runs the training graph: every binary
layer binarizes a float tensor, which the BatchNorm before it computed in
float.  InferencePlan gives the same logits bit for bit with less work:

* Each binary weight is packed once, when the plan is built.  A QDense
  after a Flatten is a conv whose kernel covers the flattened pixels,
  its columns permuted to read the channels-last bytes of the tensor.
* A binary layer reads its input as sign bits packed along channels,
  (N, H, W, ceil(C/8)) bytes, made by bittensor.pack_signs, the one
  packer.
  When that input is a BatchNorm whose consumers all binarize, BatchNorm
  then sign is one per-channel threshold compare on the BatchNorm's
  input (FINN's thresholding, arXiv 1612.07119, sec. 4), and the
  BatchNorm output never exists in float.  Any other input is packed by
  its sign (threshold 0).
* A MaxPool2d between a layer and such a BatchNorm becomes an OR over
  the packed bytes of each window.  The compare, the OR, the flip below
  and the NaN check are one call of pack_signs: one native pass over the
  floats on a float32 plane of 32 pixels or more when the kernels load,
  numpy steps with the same bytes otherwise.
* A conv whose one reader is such a folded BatchNorm, through one
  MaxPool2d at most, writes that BatchNorm's bits itself and has no
  float output (FINN, sec. 4; Larq Compute Engine's bitpacked-output
  convolutions, arXiv 2011.09398).  A binary conv's output is
  float32(count) (times alpha > 0 in FB), monotone in its integer count,
  so its bit is count >= the least count whose float route passes
  (count_thresholds, found by evaluating that route at every count of
  [-K, K]): binary_gemm compares the counts as it writes them
  (bittensor.binary_gemm's thr), and pool_bits, the last steps of
  pack_signs' numpy twin, ORs the windows and flips.  The float stem
  packs its own images: its parts run cache-sized sub-blocks of images
  through float_patches, the layer's GEMM and the pack_signs kernel
  (_stem_step).  In LeNet these are conv0 -> pool0 -> bn0 and qconv0 ->
  pool1 -> bn1.
* Every other node runs through its layer's own forward, on a throwaway
  Tape.

The GEMMs and patch gathers go through layers.binary_conv, as in
training; it looks bittensor.binary_gemm up on its module at each call.
Like training, the plan runs the packer, the gather, the GEMM, the
transpose and the stem's gather and GEMM in parts, one per CPU
(bittensor.in_parts): the first of them sets numpy's OpenBLAS to one
thread, so the float GEMMs of the stem and the head run on one BLAS
thread here too.  Every step runs once over the whole batch.

Thresholds come from calling the BatchNorm layer, not from a copy of its
arithmetic: its eval forward runs bn_normalize, the training normalize,
and so do the plan's float BatchNorm steps.  A binary step's FB scale
comes from the layer too (QConv2d.scaling, which computes alpha only
for FB).  Each float32
operation of the eval expression is monotone in the input, so for each
channel the inputs x with BN(x) >= 0 form a half-line of the float32
line, and bn_thresholds searches the ordered float32 bit patterns for
where it starts.  Only a BatchNorm that is a number at -inf, at its mean
and at +inf is folded: then BN(-inf) and BN(+inf) are opposite
infinities, so BN is a number for every input but NaN and every channel
changes sign once.  A BatchNorm that is not (gamma = 0, a non-finite
parameter or buffer, var + eps <= 0) runs as a float step, and its bits
and NumericError are the graph's.  The bit of channel c is stored as x >= thr[c], XOR
flip[c]: flip is set where BN decreases (x >= thr then marks the inputs
that fail).  The stored bit is monotone in x, so the max of a window
passes exactly when the OR of its stored bits, XOR flip, is set.  A NaN
input to the compare raises NumericError, as sign does in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bittensor, layers
from .arch import ModelGraph, apply_node
from .autodiff import NAN_INPUT, Slot, Tape
from .errors import NumericError, ShapeError
from .layers import BatchNorm, Flatten, MaxPool2d, QConv2d, QDense


def _keys(x) -> np.ndarray:
    """float32 -> int64 keys in the order of the values, -0.0 just below
    +0.0 (NaN has no place in the order)."""
    b = np.asarray(x, np.float32).view(np.int32).astype(np.int64)
    return np.where(b < 0, -1 - (b & 0x7FFFFFFF), b)


def _floats(k) -> np.ndarray:
    """Inverse of _keys."""
    return np.where(k < 0, (-1 - k) | 0x80000000, k).astype(np.uint32).view(np.float32)


_KEY_MIN, _KEY_MAX = (int(k) for k in _keys([-np.inf, np.inf]))
# The fused stem runs its images through patches, GEMM and packer in
# sub-blocks of about this many bytes of patches and float output
_STEM_BLOCK_BYTES = 1 << 20
_WAYS = 15  # probes per channel and round: 8 rounds cover the 2**32 keys


def _first_key(pred, lo, hi) -> np.ndarray:
    """Per channel, the least key in [lo, hi) at which pred holds, or hi
    where it holds nowhere there.  pred maps (m, C) keys to (m, C) bools
    and must not turn false again as the key grows."""
    j = np.arange(1, _WAYS + 1)[:, None]
    cols = np.arange(len(lo))
    while np.any(lo < hi):
        probe = lo + (hi - lo) * j // (_WAYS + 1)  # in [lo, hi) where lo < hi
        hit = pred(probe)
        first = hit.argmax(axis=0)
        found = hit[first, cols]
        below = np.where(first > 0, probe[first - 1, cols] + 1, lo)
        open_ = lo < hi
        lo, hi = (np.where(open_, np.where(found, below, probe[-1] + 1), lo),
                  np.where(open_ & found, probe[first, cols], hi))
    return hi


@dataclass
class Thresholds:
    """sign(BN(x)) of channel c is +1 exactly where (x >= thr[c]) XOR bit
    c % 8 of flip[c // 8], and NaN where x is.  The fields are pack_signs'
    arguments of those names."""

    thr: np.ndarray  # float32 (C,)
    flip: np.ndarray  # uint8 (ceil(C/8),), LSB-first


def bn_thresholds(bn: BatchNorm):
    """Thresholds equal to sign of the eval-mode bn, found by calling it;
    None when bn is NaN at -inf, at its own running mean or at +inf (gamma
    = 0, a non-finite buffer or parameter, or var + eps <= 0): such a
    layer is NaN at inputs that are not, which no threshold can say."""
    def out(keys):
        with np.errstate(all="ignore"):  # overflow to inf is the expression's own
            return bn.forward(Tape(), Slot(_floats(keys)), training=False).value

    lo = np.full(bn.num_features, _KEY_MIN)
    hi = np.full(bn.num_features, _KEY_MAX)
    ends = out(np.stack([lo, _keys(bn.running_mean), hi]))
    if np.isnan(ends).any():
        return None
    # BN(-inf) and BN(+inf) are opposite infinities: the sign changes once,
    # at the least key where it differs from the sign at -inf
    low_passes = ends[0] >= 0
    edge = _first_key(lambda k: (out(k) >= 0) != low_passes, lo, hi)
    return Thresholds(thr=_floats(edge), flip=np.packbits(low_passes, bitorder="little"))


def count_thresholds(th: Thresholds, scale, k) -> np.ndarray:
    """Per channel, the least integer count in [-k, k] whose float route
    passes, scale(float32(count)) >= th.thr, found by evaluating that
    expression at every count; k + 1 where none does.  With scale monotone
    (x -> x, or x -> x * alpha, alpha > 0 and finite) the counts that pass
    are exactly those at or above it, and the route's values over the
    counts are sorted, so one search finds each channel's first."""
    with np.errstate(over="ignore"):  # overflow to inf is the expression's own
        v = scale(np.arange(-k, k + 1, dtype=np.float32))
    return np.searchsorted(v, th.thr, side="left") - k


def _writes_bits(op) -> bool:
    """Whether a conv that only a folded BatchNorm reads makes that
    BatchNorm's bits itself: a binary conv, or a float conv (the stem)."""
    return isinstance(op, QConv2d) and (
        op.cfg.binarize_input or not (op.binary or isinstance(op, QDense)))


def _binary_input(op) -> bool:
    """A layer that multiplies its input's signs by its weights' signs."""
    return isinstance(op, QConv2d) and op.cfg.binarize_input


class InferencePlan:
    """Eval-mode forward of a ModelGraph with binary layers on packed bits.

    Built once from the graph's current weights and buffers; run(x) gives
    the logits graph.forward(x, training=False) gives, bit for bit.
    """

    def __init__(self, graph: ModelGraph):
        self.graph = graph
        nodes = {n.id: n for n in graph.nodes}
        users = {n.id: [] for n in graph.nodes}
        for n in graph.nodes:
            for i in n.inputs:
                users[i].append(n)
        out = graph.output_id

        bits_only = {}  # node id -> each user reads only its sign bits
        for n in reversed(graph.nodes):
            bits_only[n.id] = n.id != out and bool(users[n.id]) and all(
                _binary_input(u.op) or (isinstance(u.op, Flatten) and bits_only[u.id])
                for u in users[n.id])

        thresholds, pools, alias = {}, {}, {}
        for n in graph.nodes:
            if isinstance(n.op, BatchNorm) and bits_only[n.id]:
                th = bn_thresholds(n.op)
                if th is None:
                    continue
                thresholds[n.id] = th
                src = nodes[n.inputs[0]]
                if isinstance(src.op, MaxPool2d) and src.id != out and len(users[src.id]) == 1:
                    pools[n.id] = src
            elif isinstance(n.op, Flatten) and (n.inputs[0] in thresholds or n.inputs[0] in alias):
                alias[n.id] = alias.get(n.inputs[0], n.inputs[0])

        # a conv whose one reader is a folded BatchNorm, through a MaxPool2d
        # at most, writes that BatchNorm's bits itself: BatchNorm id -> conv
        fused = {}
        for b in thresholds:
            conv = nodes[(pools[b] if b in pools else nodes[b]).inputs[0]]
            if conv.id != out and len(users[conv.id]) == 1 and _writes_bits(conv.op):
                fused[b] = conv

        # a folded BatchNorm, its MaxPool2d, a Flatten of it and a conv that
        # writes its bits have no float output; the bits of every binary
        # layer's input are made once
        no_float = (set(thresholds) | set(alias) | {p.id for p in pools.values()}
                    | {conv.id for conv in fused.values()})
        want_bits = {alias.get(n.inputs[0], n.inputs[0])
                     for n in graph.nodes if _binary_input(n.op)}

        # steps: (key, keys read, step(*values read) -> value, keys read for the
        # last time); a key is (node id, True) for sign bits, (node id, False)
        # for the float output
        steps = []

        def input_bits(conv):  # the key of a binary conv's input bits, its channels
            src = alias.get(conv.inputs[0], conv.inputs[0])
            c = nodes[src].op.num_features if src in thresholds else conv.op.cfg.in_channels
            return (src, True), c

        for n in graph.nodes:
            if n.op == "input":
                self._input = (n.id, False)
                continue
            if n.id not in no_float:
                if _binary_input(n.op):
                    key, c = input_bits(n)
                    steps.append(((n.id, False), [key], self._binary_step(n.op, c)))
                else:
                    steps.append(((n.id, False), [(i, False) for i in n.inputs],
                                  self._layer_step(n)))
            if n.id in want_bits:
                pool, th, conv = pools.get(n.id), thresholds.get(n.id), fused.get(n.id)
                pool_op = pool and pool.op
                if conv and _binary_input(conv.op):
                    key, c = input_bits(conv)
                    steps.append(((n.id, True), [key], self._binary_step(conv.op, c, th, pool_op)))
                elif conv:
                    steps.append(((n.id, True), [(conv.inputs[0], False)],
                                  self._stem_step(conv, th, pool_op)))
                else:
                    src = pool.inputs[0] if pool else n.inputs[0] if th else n.id
                    steps.append(((n.id, True), [(src, False)], self._bits_step(th, pool_op)))
        last = {k: i for i, (_, reads, _) in enumerate(steps) for k in reads}
        self._output = (out, False)
        self._steps = [(key, reads, step, [k for k in reads if last[k] == i and k != self._output])
                       for i, (key, reads, step) in enumerate(steps)]

    def run(self, x) -> np.ndarray:
        """Logits of the batch x."""
        x = np.asarray(x, np.float32)
        if x.shape[1:] != self.graph.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model input "
                f"{self.graph.input_shape}"
            )
        values = {self._input: x}
        for key, reads, step, done in self._steps:
            values[key] = step(*(values[k] for k in reads))
            for k in done:  # freed at once, for the next steps to reuse
                del values[k]
        return values[self._output]

    @staticmethod
    def _layer_step(node):
        def step(*inputs):
            slots = [Slot(v, requires_grad=False) for v in inputs]
            return apply_node(node, Tape(), slots).value
        return step

    @staticmethod
    def _bits_step(th, pool):
        """Sign bits of BN(pool(x)) (th from bn_thresholds) or of x itself
        (th None): pack_signs compares, ORs each pool window, flips and
        raises sign's NumericError, the graph's, at a NaN."""
        args = dict(vars(th) if th else {}, pool=(pool.kernel, pool.stride) if pool else (1, 1))
        return lambda x: bittensor.pack_signs(x[:, :, None, None] if x.ndim == 2 else x, **args)

    @classmethod
    def _stem_step(cls, node, th, pool):
        """The bits step of th and pool on the float conv of node, fused:
        natively one in_parts pass whose parts run sub-blocks of about
        _STEM_BLOCK_BYTES of patches and output, each through float_patches,
        the layer's per-image GEMM and the pack_signs kernel, so the float
        output stays in cache; else (numpy, or an output under 32 pixels)
        the layer's forward, then the bits step, with the same bytes.  The
        LeNet stem at batch 256 by images a sub-block (131 KB an image;
        medians of 40 interleaved minima of 5, 2-vCPU Xeon):
          2: 3.54 ms, 4: 2.57 ms, 8: 2.34 ms, 16: 2.36 ms, 32: 2.75 ms"""
        layer, (k, ks) = node.op, (pool.kernel, pool.stride) if pool else (1, 1)
        cfg, layer_step, bits_step = layer.cfg, cls._layer_step(node), cls._bits_step(th, pool)
        (kh, kw), c, o, s, p = cfg.kernel, cfg.in_channels, cfg.out_channels, cfg.stride, cfg.padding
        wb = layers.swap_axes(layer.weight.value.reshape(o, c, kh * kw)).reshape(o, -1)

        def step(x):
            n, _, h, w = x.shape
            oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
            lib = bittensor.native_float32(x)
            if not lib or oh * ow < 32:
                return bits_step(layer_step(x))
            ph, pw = (oh - k) // ks + 1, (ow - k) // ks + 1
            out, bad = np.empty((n, ph, pw, -(-o // 8)), np.uint8), np.zeros(n, bool)
            sub = max(1, round(_STEM_BLOCK_BYTES / (4 * (kh * kw * c + o) * oh * ow)))
            src, dst, args = x.ctypes.data, out.ctypes.data, [a.ctypes.data for a in (th.thr, th.flip)]

            def images(lo, hi, cols, y, plane):  # a sub-block's flag goes to its first image
                at = [a.ctypes.data for a in (cols, y, plane)]
                for i in range(lo, hi, sub):
                    m = min(sub, hi - i)
                    lib.float_patches(src + x.strides[0] * i, at[0], m, c, h, w, kh, kw, s, p)
                    np.matmul(wb, cols[:m], out=y[:m])
                    bad[i] = lib.pack_signs(at[1], *args, dst + out.strides[0] * i, at[2],
                                            m, o, oh, ow, k, ks)

            bittensor.in_parts(images, n, lambda: (
                np.empty((sub, kh * kw * c, oh * ow), np.float32),
                np.empty((sub, o, oh * ow), np.float32),
                np.empty(((ph - 1) * ks + k) * ((pw - 1) * ks + k), np.uint8)))
            if bad.any():
                raise NumericError(NAN_INPUT)
            return out
        return step

    @classmethod
    def _binary_step(cls, layer: QConv2d, c, th=None, pool=None):
        """layer on its input's sign bits, c channels a pixel.  A dense layer
        is a conv whose (1, F // c) kernel covers the pixels it reads: its
        weight's columns in (c, pixel) order are regrouped to (pixel, c), as
        the bytes of a flattened tensor are laid out.  Given the thresholds
        th of a folded BatchNorm that reads the output (through the MaxPool2d
        pool, if not None), the step gives that BatchNorm's bits instead:
        the GEMM compares each count with count_thresholds, and pool_bits
        ORs each window and flips.  An FB alpha that is not finite and > 0
        need not keep the float output monotone in the count: then the bits
        step runs on the float output."""
        cfg, o = layer.cfg, layer.cfg.out_channels
        dense = isinstance(layer, QDense)
        (kh, kw), s, p = ((1, cfg.in_channels // c), 1, 0) if dense else (
            cfg.kernel, cfg.stride, cfg.padding)
        w_bits = layers.weight_bits(bittensor.pack_signs(layer.weight.value.reshape(o, c, kh, kw)))
        alpha, scale = layer.scaling()
        monotone = alpha is None or bool(np.isfinite(alpha) and alpha > 0)
        thr = count_thresholds(th, scale, kh * kw * c) if th is not None and monotone else None
        bits = cls._bits_step(th, pool) if th is not None and not monotone else lambda y: y
        window = (pool.kernel, pool.stride) if pool else (1, 1)

        def step(xb):
            xb = xb.reshape(len(xb), 1, kw, xb.shape[-1]) if dense else xb
            if thr is not None:
                out = layers.binary_conv(xb, w_bits, kh, kw, s, p, c, thr=thr)
                return bittensor.pool_bits(out, window, th.flip)
            y = scale(layers.binary_conv(xb, w_bits, kh, kw, s, p, c))
            return bits(y.reshape(len(y), o) if dense else y)
        return step
