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
  and the NaN and bounds checks are one call of pack_signs: one native
  pass over the floats on a float32 plane of 32 pixels or more when the
  kernels load, numpy steps with the same bytes otherwise.
* Every other node runs through its layer's own forward, on a throwaway
  Tape.

The GEMMs and patch gathers go through layers.binary_conv, as in
training; it looks bittensor.binary_gemm up on its module at each call.
Like training, the plan runs the packer, the gather, the GEMM, the
transpose and the stem's GEMM in parts, one per CPU (bittensor.in_parts):
the first of them sets numpy's OpenBLAS to one thread, so the float
GEMMs of the stem and the head run on one BLAS thread here too.

Thresholds come from calling the BatchNorm layer, not from a copy of its
arithmetic.  Each float32 operation of its eval expression is monotone in
the input, so for each channel the inputs x with BN(x) >= 0 form a
half-line of the float32 line, and bn_thresholds searches the ordered
float32 bit patterns for where it starts.  The bit of channel c is stored
as x >= thr[c], XOR flip[c]: flip is set where BN decreases (x >= thr
then marks the inputs that fail) and on channels whose sign is the same
for every input (gamma = 0).  The stored bit is monotone in x, so the max
of a window passes exactly when the OR of its stored bits, XOR flip, is
set.  The plan raises NumericError wherever a NaN would reach sign in the
graph: at a NaN input to the compare, and, for a channel with gamma = 0,
at inputs so large that gamma * xhat is 0 * inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bittensor, layers
from .arch import ModelGraph, apply_node
from .autodiff import Slot, Tape
from .errors import NumericError, ShapeError
from .layers import BatchNorm, Flatten, MaxPool2d, QConv2d, QDense, compute_scaling_factor


def _keys(x) -> np.ndarray:
    """float32 -> int64 keys in the order of the values, -0.0 just below
    +0.0 (NaN has no place in the order)."""
    b = np.asarray(x, np.float32).view(np.int32).astype(np.int64)
    return np.where(b < 0, -1 - (b & 0x7FFFFFFF), b)


def _floats(k) -> np.ndarray:
    """Inverse of _keys."""
    return np.where(k < 0, (-1 - k) | 0x80000000, k).astype(np.uint32).view(np.float32)


_KEY_MIN, _KEY_MAX = (int(k) for k in _keys([-np.inf, np.inf]))
# The steps before the first one that is not per-image (a binary layer's
# GEMM, a dense layer) run on this many images at a time: the LeNet stem's
# patches and output for 32 images take 4 MB, so they stay in cache and
# their memory is reused chunk after chunk instead of faulted in per batch.
_CHUNK = 32
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
    c % 8 of flip[c // 8]; BN(x) is NaN where x is NaN or outside
    [lo[c], hi[c]].  The fields are pack_signs' arguments of those names."""

    thr: np.ndarray  # float32 (C,)
    flip: np.ndarray  # uint8 (ceil(C/8),), LSB-first
    lo: np.ndarray | None  # float32 (C,); None where every channel is unbounded
    hi: np.ndarray | None


def bn_thresholds(bn: BatchNorm):
    """Thresholds equal to sign of the eval-mode bn, found by calling it;
    None when bn is NaN at its own running mean (a non-finite buffer or
    parameter, or var + eps <= 0), where the half-line argument fails."""
    def out(keys):
        with np.errstate(all="ignore"):  # overflow to inf is the expression's own
            return bn.forward(Tape(), Slot(_floats(keys)), training=False).value

    mean = _keys(bn.running_mean)
    if np.isnan(out(mean[None])).any():
        return None
    lo = np.full(bn.num_features, _KEY_MIN)
    hi = np.full(bn.num_features, _KEY_MAX)
    bounded = np.isnan(out(np.stack([lo, hi]))).any()
    if bounded:
        # gamma = 0: NaN where |xhat| is inf, on both tails of the mean
        lo = _first_key(lambda k: ~np.isnan(out(k)), lo, mean)
        hi = _first_key(lambda k: np.isnan(out(k)), mean, hi + 1) - 1
    low_passes = out(lo[None])[0] >= 0
    edge = _first_key(lambda k: (out(k) >= 0) != low_passes, lo, hi + 1)
    const = edge > hi
    return Thresholds(thr=np.where(const, np.float32(-np.inf), _floats(edge)),
                      flip=np.packbits(const != low_passes, bitorder="little"),
                      lo=_floats(lo) if bounded else None,
                      hi=_floats(hi) if bounded else None)


def _binary_input(op) -> bool:
    """A layer that multiplies its input's signs by its weights' signs."""
    return isinstance(op, QConv2d) and op.cfg.binarize_input


def _per_image(op) -> bool:
    """Whether op's eval output for an image is the same bits whatever
    else is in the batch: elementwise and window ops, and a float-input
    convolution, whose batched GEMM runs image by image."""
    if isinstance(op, QConv2d):
        return not (op.cfg.binarize_input or isinstance(op, QDense))
    return isinstance(op, (BatchNorm, MaxPool2d, Flatten))


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

        # a folded BatchNorm, its MaxPool2d and a Flatten of it have no float
        # output; the bits of every binary layer's input are made once
        no_float = set(thresholds) | set(alias) | {p.id for p in pools.values()}
        want_bits = {alias.get(n.inputs[0], n.inputs[0])
                     for n in graph.nodes if _binary_input(n.op)}

        # steps: (key, keys read, step(*values read) -> value, keys read for the
        # last time); a key is (node id, True) for sign bits, (node id, False)
        # for the float output
        steps = []
        self._head = None  # the leading steps that run image by image
        for n in graph.nodes:
            if n.op == "input":
                self._input = (n.id, False)
                continue
            if n.id not in no_float:
                src = alias.get(n.inputs[0], n.inputs[0]) if n.inputs else None
                if self._head is None and not _per_image(n.op):
                    self._head = len(steps)
                if _binary_input(n.op):
                    c = nodes[src].op.num_features if src in thresholds else n.op.cfg.in_channels
                    steps.append(((n.id, False), [(src, True)], self._binary_step(n.op, c)))
                else:
                    steps.append(((n.id, False), [(i, False) for i in n.inputs],
                                  self._layer_step(n)))
            if n.id in want_bits:
                pool = pools.get(n.id)
                if pool:
                    src = pool.inputs[0]
                elif n.id in thresholds:
                    src = n.inputs[0]
                else:
                    src = n.id
                name = n.op if isinstance(n.op, str) else n.op.name
                steps.append(((n.id, True), [(src, False)], self._bits_step(
                    thresholds.get(n.id), pool and pool.op, name)))
        last = {k: i for i, (_, reads, _) in enumerate(steps) for k in reads}
        self._output = (out, False)
        self._steps = [(key, reads, step, [k for k in reads if last[k] == i and k != self._output])
                       for i, (key, reads, step) in enumerate(steps)]
        if self._head is None:
            self._head = len(steps)

    def run(self, x, collect=None) -> np.ndarray:
        """Logits of the batch x.  collect, if given, is filled with
        {node id: packed sign bits} for each node a binary layer reads."""
        x = np.asarray(x, np.float32)
        if x.shape[1:] != self.graph.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model input "
                f"{self.graph.input_shape}"
            )
        head, tail = self._steps[: self._head], self._steps[self._head:]
        if len(x) <= _CHUNK:
            values = self._execute(head, {self._input: x})
        else:  # the head's values for the later steps, assembled chunk by chunk
            values = {}
            for lo in range(0, len(x), _CHUNK):
                part = self._execute(head, {self._input: x[lo: lo + _CHUNK]})
                for k, v in part.items():
                    if lo == 0:
                        values[k] = np.empty((len(x),) + v.shape[1:], v.dtype)
                    values[k][lo: lo + len(v)] = v
        if collect is not None:
            collect.update((k[0], v) for k, v in values.items() if k[1])
        return self._execute(tail, values, collect)[self._output]

    @staticmethod
    def _execute(steps, values, collect=None):
        for key, reads, step, done in steps:
            values[key] = step(*(values[k] for k in reads))
            if collect is not None and key[1]:
                collect[key[0]] = values[key]
            for k in done:  # freed at once, for the next steps to reuse
                del values[k]
        return values

    @staticmethod
    def _layer_step(node):
        def step(*inputs):
            slots = [Slot(v, requires_grad=False) for v in inputs]
            return apply_node(node, Tape(), slots).value
        return step

    @staticmethod
    def _bits_step(th, pool, name):
        """Sign bits of BN(pool(x)) (th from bn_thresholds) or of x itself
        (th None): pack_signs compares, ORs each pool window, flips and
        checks the bounds."""
        args = dict(vars(th) if th else {}, pool=(pool.kernel, pool.stride) if pool else (1, 1))

        def step(x):
            try:
                return bittensor.pack_signs(x[:, :, None, None] if x.ndim == 2 else x, **args)
            except NumericError:
                raise NumericError(f"{name}: NaN reaches sign") from None
        return step

    @staticmethod
    def _binary_step(layer: QConv2d, c):
        """layer on its input's sign bits, c channels a pixel.  A dense layer
        is a conv whose (1, F // c) kernel covers the pixels it reads: its
        weight's columns in (c, pixel) order are regrouped to (pixel, c), as
        the bytes of a flattened tensor are laid out."""
        cfg, o = layer.cfg, layer.cfg.out_channels
        dense = isinstance(layer, QDense)
        (kh, kw), s, p = ((1, cfg.in_channels // c), 1, 0) if dense else (
            cfg.kernel, cfg.stride, cfg.padding)
        w_bits = layers.weight_bits(layer.weight.value.reshape(o, c, kh, kw))
        alpha = compute_scaling_factor(layer.weight.value) if cfg.scaling_mode == "FB" else None

        def step(xb):
            xb = xb.reshape(len(xb), 1, kw, xb.shape[-1]) if dense else xb
            y = layers.binary_conv(xb, w_bits, kh, kw, s, p, c)
            if alpha is not None:
                y = y * alpha
            return y.reshape(len(y), o) if dense else y
        return step
