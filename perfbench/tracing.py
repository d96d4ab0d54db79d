"""Spans around the calls into bnn's modules, recorded from outside them.

``Tracer.install()`` replaces module functions and layer methods with
timing wrappers and ``Tracer.uninstall()`` puts the originals back, so an
untraced repetition runs exactly the program's own code.  Nothing under
``src/bnn`` is changed.

A span is ``[name, detail, parent, t0, t1, info]``: ``detail`` is the
layer name where there is one, ``parent`` the index of the span that was
open when this one started (-1 at the top), and ``info`` the counts taken
at that boundary (GEMM shape, bytes).  A backward closure that
``Tape.record`` receives is wrapped so that its span is credited to the
layer whose forward recorded it; the STE backward of an activation sign
is credited to the enclosing binary layer and also counted as
``autodiff.sign`` backward.
"""

from __future__ import annotations

import time

from bnn import arch, autodiff, bittensor, layers, train

LAYER_KINDS = (
    layers.QConv2d, layers.QDense, layers.BatchNorm, layers.MaxPool2d,
    layers.AvgPool2d, layers.GlobalAvgPool, layers.Flatten,
)
GRAPH_OPS = ("concat", "residual_add")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------
    def begin(self, name, detail=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, detail, parent, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def end(self, sid, info=None):
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = info
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _owner(self):
        """(kind, layer name, is_sign) of the innermost recording span."""
        is_sign = False
        for sid in reversed(self._stack):
            name, detail = self.spans[sid][0], self.spans[sid][1]
            if name == "autodiff.sign":
                is_sign = True
            elif name.startswith("fwd:"):
                return name[4:], detail, is_sign
            elif name == "train.softmax_cross_entropy":
                return "softmax_cross_entropy", None, False
        return None

    # -- wrappers ----------------------------------------------------------
    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_call(self, owner, attr, name, info_fn=None):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            out = None
            try:
                out = orig(*args, **kwargs)
                return out
            finally:
                tracer.end(sid, info_fn(args, out) if info_fn and out is not None else None)

        self._replace(owner, attr, wrapper)

    def _wrap_forward(self, cls):
        orig = cls.__dict__["forward"]
        tracer = self
        name = "fwd:" + cls.__name__

        def forward(layer, *args, **kwargs):
            sid = tracer.begin(name, layer.name)
            try:
                return orig(layer, *args, **kwargs)
            finally:
                tracer.end(sid)

        self._replace(cls, "forward", forward)

    def _wrap_record(self):
        orig = autodiff.Tape.__dict__["record"]
        tracer = self

        def record(tape, output, inputs, backward_fn):
            owner = tracer._owner()
            if owner is not None:
                kind, lname, is_sign = owner
                inner = backward_fn

                def backward_fn(g_out):
                    sid = tracer.begin("bwd:" + kind, lname)
                    try:
                        return inner(g_out)
                    finally:
                        tracer.end(sid, {"sign": True} if is_sign else None)

            return orig(tape, output, inputs, backward_fn)

        self._replace(autodiff.Tape, "record", record)

    def _wrap_batches(self):
        orig = train.batches
        tracer = self

        def batches(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                sid = tracer.begin("data.batches.wait")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(sid)
                yield item

        self._replace(train, "batches", batches)

    def install(self):
        for cls in LAYER_KINDS:
            self._wrap_forward(cls)
        for attr in GRAPH_OPS:  # imported by name into arch, so wrapped there
            self._wrap_call(arch, attr, "fwd:" + attr)
        self._wrap_record()
        self._wrap_batches()
        self._wrap_call(bittensor, "binary_gemm", "bittensor.binary_gemm", _gemm_info)
        self._wrap_call(bittensor, "pack", "bittensor.pack",
                        lambda args, out: {"bytes_in": args[0].nbytes})
        self._wrap_call(layers, "im2col", "layers.im2col",
                        lambda args, out: {"bytes_out": out.nbytes})
        self._wrap_call(layers, "col2im", "layers.col2im")
        self._wrap_call(autodiff, "sign", "autodiff.sign")
        self._wrap_call(arch.ModelGraph, "forward", "arch.ModelGraph.forward")
        self._wrap_call(autodiff.Tape, "backward", "autodiff.Tape.backward",
                        lambda args, out: {"nodes": len(args[0].nodes)})
        self._wrap_call(train.Adam, "step", "train.Adam.step")
        self._wrap_call(train, "softmax_cross_entropy", "train.softmax_cross_entropy")
        self._wrap_call(train, "evaluate", "train.evaluate")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _gemm_info(args, out):
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[0]
    return {
        "shape": (m, k, n),
        "binops": m * n * k,
        "bytes": a.words.nbytes + b.words.nbytes + out.nbytes,
    }


def summarize(spans):
    """Totals per span name and per ``fwd@<layer>`` / ``bwd@<layer>``:
    calls, inclusive seconds ``s``, ``self_s`` and the sums of numeric info."""
    child = [0.0] * len(spans)
    for name, _detail, parent, t0, t1, _info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    totals = {}
    for sid, (name, detail, _parent, t0, t1, info) in enumerate(spans):
        dur = t1 - t0
        keys = [name]
        if detail is not None:  # per layer: "fwd@qconv0", "bwd@qconv0"
            keys.append(name.split(":")[0] + "@" + detail)
        if info and info.get("sign"):
            keys.append("bwd:sign")
        for key in keys:
            t = totals.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[sid]
            for field, value in (info or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    t[field] = t.get(field, 0) + value
    return totals
