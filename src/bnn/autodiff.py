"""Minimal reverse-mode tape with the straight-through sign estimator.

The tape records layer-level nodes in execution order; backward() walks
them in reverse, accumulating gradients by summation in recording order,
so results are deterministic.  A tape is single-use: backward frees each
node's closure and output gradient once used, and the parameters' (the
leaves') gradients survive.  The sign nonlinearity gets the
straight-through surrogate: the upstream gradient passes through where
the *input* magnitude is within t_clip and is cancelled elsewhere (the
threshold clips on input magnitude, not on gradient magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError


@dataclass
class STEConfig:
    """Straight-through estimator settings.

    t_clip is the input-magnitude threshold: gradients pass where
    |r_i| <= t_clip (boundary inclusive).
    """

    t_clip: float = 0.5

    def __post_init__(self):
        if not self.t_clip > 0:
            raise ValueError(f"t_clip must be positive, got {self.t_clip}")


class Slot:
    """A value on the tape plus its gradient accumulator, which stays
    None if requires_grad is False (a model's input batch)."""

    __slots__ = ("value", "grad", "name", "requires_grad")

    def __init__(self, value, name="", requires_grad=True):
        self.value = np.asarray(value)
        self.grad = None
        self.name = name
        self.requires_grad = requires_grad

    def add_grad(self, g, owned=False):
        """Add g to the gradient.  A first g that is owned (fresh, held by
        nothing else) becomes the gradient itself; any other is copied, so
        a later += cannot write into an array something else holds."""
        if g.shape != self.value.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match value shape "
                f"{self.value.shape} for slot {self.name!r}"
            )
        if self.grad is None:
            self.grad = g.astype(self.value.dtype, copy=not owned)
        else:
            self.grad += g


@dataclass
class _Node:
    output: Slot
    inputs: tuple
    backward_fn: object  # callable(out_grad) -> sequence of grads (or None)


@dataclass
class Tape:
    """Ordered record of operations for one forward pass."""

    nodes: list = field(default_factory=list)
    used: bool = False

    def record(self, output: Slot, inputs, backward_fn) -> Slot:
        """Append a node; backward_fn maps the output gradient to one
        gradient array per input slot, or None where it needs none."""
        self.nodes.append(_Node(output, tuple(inputs), backward_fn))
        return output

    def backward(self, loss: Slot, keep=()) -> dict:
        """Accumulate gradients of loss into every reachable slot, freeing
        what each node's backward has used once it has run: its closure, and
        its output's gradient unless that slot is in keep.  Returns a dict
        mapping slot id to (slot, gradient) of the survivors: the leaves
        (parameters, and slots no node outputs) and the slots in keep.  The
        tape is single-use: a second backward raises RuntimeError."""
        if self.used:
            raise RuntimeError("this tape's backward has already run; record a new tape")
        if loss.value.size != 1:
            raise ValueError(
                f"loss must be scalar, got shape {loss.value.shape}"
            )
        self.used = True
        keep = {id(s) for s in keep}
        for node in self.nodes:  # drop old gradients; an output gets one only here
            for s in node.inputs:
                s.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            g_out, backward_fn, node.backward_fn = node.output.grad, node.backward_fn, None
            if g_out is None:
                continue  # not reachable from the loss
            if id(node.output) not in keep:
                node.output.grad = None
            grads = backward_fn(g_out)
            if len(grads) != len(node.inputs):
                raise RuntimeError(
                    f"backward_fn returned {len(grads)} gradients for "
                    f"{len(node.inputs)} inputs"
                )
            for slot, g in zip(node.inputs, grads):
                if g is not None and slot.requires_grad:
                    # a view of g_out (a pass-through, reshape or split piece)
                    # is copied; anything else backward_fn made is fresh
                    g = np.asarray(g)
                    slot.add_grad(g, owned=not np.may_share_memory(g, g_out))
        table = {}
        for node in self.nodes:
            for s in node.inputs + (node.output,):
                if s.grad is not None:
                    table[id(s)] = (s, s.grad)
        return table


NAN_INPUT = "sign_forward received NaN input"


def sign_forward(r_i: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1; output values in {-1, +1}.  A
    NaN, which sign has no value for, raises NumericError."""
    r_i = np.asarray(r_i)
    if np.isnan(r_i).any():
        raise NumericError(NAN_INPUT)
    out = (r_i >= 0).astype(np.float32)
    out *= 2
    out -= 1
    return out


def sign_backward(
    upstream: np.ndarray, r_i: np.ndarray, cfg: STEConfig
) -> np.ndarray:
    """STE surrogate gradient: upstream where |r_i| <= t_clip, else 0."""
    upstream = np.asarray(upstream)
    r_i = np.asarray(r_i)
    if upstream.shape != r_i.shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} != input shape {r_i.shape}"
        )
    # the bytes of np.where(|r_i| <= t_clip, upstream, 0.0) as float32: the
    # float32 bits ANDed with all ones where the mask passes, else zeros
    out = upstream.astype(np.float32)
    bits = out.view(np.uint32)
    bits &= np.negative(np.abs(r_i) <= cfg.t_clip, dtype=np.uint32)
    return out


def sign(tape: Tape, x: Slot, cfg: STEConfig) -> Slot:
    """Tape-recorded sign activation with STE backward."""
    out = Slot(sign_forward(x.value), name=f"sign({x.name})")
    r_i = x.value

    def backward_fn(g_out, r_i=r_i, cfg=cfg):
        return (sign_backward(g_out, r_i, cfg),)

    return tape.record(out, (x,), backward_fn)
