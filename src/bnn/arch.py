"""Model graphs and builders for binary LeNet, ResNet and DenseNet.

Convention notes:

* The first convolution and the final classifier keep full-precision
  weights; every inner convolution/dense layer is binarized.
* Blocks are pre-activation style: batch norm, then sign (inside the
  quantized layer), then convolution.
* DenseNet staging: 4 units of 2*b plain blocks each (one 3x3
  convolution per block, growth k), transitions (1x1 conv + 2x2 average
  pool) between units.  Counted layers: 8*b convolutions + stem +
  3 transitions + classifier = 8*b + 5.
* Transition width is proportional to the growth rate:
  floor(5.5 * k * reduction) channels (2.75*k at the default reduction
  of 0.5).  A growth-rate-proportional width is what makes small-k
  models small overall, since it shrinks the final classifier too; it
  also reproduces published parameter counts.
* ImageNet-geometry presets (7x7 stem, 1000 classes) exist for
  parameter-count reproduction; desk-scale presets use a 3x3 stride-1
  stem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import STEConfig, Slot, Tape
from .errors import ShapeError
from .layers import (
    AvgPool2d,
    BatchNorm,
    Flatten,
    GlobalAvgPool,
    Layer,
    MaxPool2d,
    QConv2d,
    QDense,
    QLayerConfig,
    concat,
    residual_add,
)


@dataclass
class DenseNetSpec:
    k: int
    b: int
    reduction: float = 0.5
    num_classes: int = 1000

    def __post_init__(self):
        if self.k < 1 or self.b < 1:
            raise ValueError("k and b must be positive")
        if not 0 < self.reduction <= 1:
            raise ValueError("reduction must be in (0, 1]")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


def densenet_depth(b: int) -> int:
    """Counted layers of the DenseNet family: n = 8*b + 5."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return 8 * b + 5


@dataclass
class GraphNode:
    id: int
    op: object  # Layer instance, or one of the strings "input"/"concat"/"add"
    inputs: list


@dataclass
class ModelGraph:
    name: str
    input_shape: tuple  # (C, H, W)
    num_classes: int
    nodes: list = field(default_factory=list)
    output_id: int = -1
    build_args: dict = field(default_factory=dict)

    def layers(self):
        return [n.op for n in self.nodes if isinstance(n.op, Layer)]

    def params(self):
        out = []
        for layer in self.layers():
            out.extend(layer.params())
        return out

    def forward(self, x, tape=None, training=False, collect=None):
        """Run the graph on a batch; returns the logits Slot.

        collect, if given, is filled with (name, output array) per node.
        """
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model input "
                f"{self.input_shape}"
            )
        tape = tape if tape is not None else Tape()
        slots = {}
        for node in self.nodes:
            if node.op == "input":
                slots[node.id] = Slot(np.asarray(x, np.float32), "input", requires_grad=False)
            else:
                slots[node.id] = apply_node(node, tape, [slots[i] for i in node.inputs],
                                            training)
            if collect is not None:
                op = node.op
                nm = op if isinstance(op, str) else op.name
                collect.append((nm, slots[node.id].value))
        return slots[self.output_id]


def apply_node(node: GraphNode, tape: Tape, inputs: list, training=False) -> Slot:
    """Run one non-input node on its input slots, recording on tape."""
    if node.op == "concat":
        return concat(tape, inputs)
    if node.op == "add":
        return residual_add(tape, *inputs)
    return node.op.forward(tape, inputs[0], training=training)


class _Builder:
    def __init__(self, name, input_shape, num_classes):
        self.graph = ModelGraph(name, tuple(input_shape), num_classes)
        self.graph.nodes.append(GraphNode(0, "input", []))
        self._next = 1
        self._counts = {}

    def _fresh(self, prefix):
        i = self._counts.get(prefix, 0)
        self._counts[prefix] = i + 1
        return f"{prefix}{i}"

    def add(self, layer, src):
        nid = self._next
        self._next += 1
        self.graph.nodes.append(GraphNode(nid, layer, [src]))
        return nid

    def add_concat(self, srcs):
        nid = self._next
        self._next += 1
        self.graph.nodes.append(GraphNode(nid, "concat", list(srcs)))
        return nid

    def add_residual(self, a, b):
        nid = self._next
        self._next += 1
        self.graph.nodes.append(GraphNode(nid, "add", [a, b]))
        return nid

    def done(self, output_id, build_args):
        self.graph.output_id = output_id
        self.graph.build_args = build_args
        return self.graph


def _conv(b, src, in_c, out_c, kernel, stride, padding, binary, ste, mode, rng,
          prefix, binarize_input=True):
    cfg = QLayerConfig(
        in_channels=in_c,
        out_channels=out_c,
        kernel=kernel,
        stride=stride,
        padding=padding,
        scaling_mode=mode,
        binarize_input=binary and binarize_input,
    )
    layer = QConv2d(cfg, binary=binary, ste=ste, rng=rng, name=b._fresh(prefix))
    return b.add(layer, src)


def build_lenet(binary=True, num_classes=10, t_clip=0.5, scaling_mode="N",
                seed=0) -> ModelGraph:
    """LeNet-style network for 28x28 single-channel inputs.

    Stem conv and classifier are full precision; with binary=True the
    inner conv and the hidden dense layer are quantized.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    ste = STEConfig(t_clip)
    rng = np.random.default_rng(seed)
    b = _Builder("lenet" if binary else "lenet-fp", (1, 28, 28), num_classes)

    x = _conv(b, 0, 1, 32, (5, 5), 1, 0, False, ste, scaling_mode, rng, "conv")
    x = b.add(MaxPool2d(2, name=b._fresh("pool")), x)          # 32x12x12
    x = b.add(BatchNorm(32, name=b._fresh("bn")), x)
    x = _conv(b, x, 32, 64, (5, 5), 1, 0, binary, ste, scaling_mode, rng,
              "qconv" if binary else "conv")                    # 64x8x8
    x = b.add(MaxPool2d(2, name=b._fresh("pool")), x)          # 64x4x4
    x = b.add(BatchNorm(64, name=b._fresh("bn")), x)
    x = b.add(Flatten(name="flatten"), x)                       # 1024
    hidden = QDense(
        1024, 1024, binary=binary, binarize_input=binary,
        scaling_mode=scaling_mode, ste=ste, rng=rng,
        name="qdense0" if binary else "dense0",
    )
    x = b.add(hidden, x)
    x = b.add(BatchNorm(1024, name=b._fresh("bn")), x)
    head = QDense(
        1024, num_classes, binary=False, bias=True, binarize_input=False,
        rng=rng, name="head",
    )
    x = b.add(head, x)
    return b.done(x, {
        "model": "lenet", "binary": binary, "num_classes": num_classes,
        "t_clip": t_clip, "scaling_mode": scaling_mode, "seed": seed,
    })


def build_resnet_block(b, src, in_c, out_c, stride, bottleneck, ste, mode,
                       rng, binary=True):
    """One residual block; returns (output node id, output channels)."""
    if bottleneck:
        mid = max(1, out_c // 4)
        y = b.add(BatchNorm(in_c, name=b._fresh("bn")), src)
        y = _conv(b, y, in_c, mid, (1, 1), stride, 0, binary, ste, mode, rng, "qconv")
        y = b.add(BatchNorm(mid, name=b._fresh("bn")), y)
        y = _conv(b, y, mid, mid, (3, 3), 1, 1, binary, ste, mode, rng, "qconv")
        y = b.add(BatchNorm(mid, name=b._fresh("bn")), y)
        y = _conv(b, y, mid, out_c, (1, 1), 1, 0, binary, ste, mode, rng, "qconv")
    else:
        y = b.add(BatchNorm(in_c, name=b._fresh("bn")), src)
        y = _conv(b, y, in_c, out_c, (3, 3), stride, 1, binary, ste, mode, rng, "qconv")
        y = b.add(BatchNorm(out_c, name=b._fresh("bn")), y)
        y = _conv(b, y, out_c, out_c, (3, 3), 1, 1, binary, ste, mode, rng, "qconv")
    if stride != 1 or in_c != out_c:
        shortcut = _conv(b, src, in_c, out_c, (1, 1), stride, 0, binary, ste,
                         mode, rng, "qproj")
    else:
        shortcut = src
    return b.add_residual(y, shortcut), out_c


_RESNET_PRESETS = {
    # depth -> (block counts per stage, bottleneck)
    18: ([2, 2, 2, 2], False),
    26: ([2, 2, 2, 2], True),
    34: ([3, 4, 6, 3], False),
    68: ([3, 4, 10, 3], True),
}

_RESNET_WIDTHS = {
    # width -> (stem channels, stage channels); matches the thin/wide filter
    # progressions (64, 64, 128, 256, 512) and (64, 128, 256, 512, 1024)
    "thin": (64, [64, 128, 256, 512]),
    "wide": (64, [128, 256, 512, 1024]),
}


def build_resnet(depth=18, width="thin", num_classes=1000, binary=True,
                 t_clip=0.5, scaling_mode="N", seed=0,
                 preset="imagenet") -> ModelGraph:
    if depth not in _RESNET_PRESETS:
        raise ValueError(
            f"unsupported resnet depth {depth}; choices: "
            f"{sorted(_RESNET_PRESETS)}"
        )
    if width not in _RESNET_WIDTHS:
        raise ValueError(f"unsupported width {width!r}; choices: thin, wide")
    blocks, bottleneck = _RESNET_PRESETS[depth]
    stem_c, stages = _RESNET_WIDTHS[width]
    ste = STEConfig(t_clip)
    rng = np.random.default_rng(seed)
    if preset == "imagenet":
        input_shape = (3, 224, 224)
    elif preset == "cifar":
        input_shape = (3, 32, 32)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    b = _Builder(f"resnet{depth}-{width}", input_shape, num_classes)

    if preset == "imagenet":
        x = _conv(b, 0, 3, stem_c, (7, 7), 2, 3, False, ste, scaling_mode, rng, "conv")
        x = b.add(MaxPool2d(3, 2, name="stempool"), x)
    else:
        x = _conv(b, 0, 3, stem_c, (3, 3), 1, 1, False, ste, scaling_mode, rng, "conv")
    c = stem_c
    for si, (n_blocks, out_c) in enumerate(zip(blocks, stages)):
        for bi in range(n_blocks):
            stride = 2 if (si > 0 and bi == 0) else 1
            x, c = build_resnet_block(
                b, x, c, out_c, stride, bottleneck, ste, scaling_mode, rng,
                binary=binary,
            )
    x = b.add(BatchNorm(c, name=b._fresh("bn")), x)
    x = b.add(GlobalAvgPool(), x)
    head = QDense(c, num_classes, binary=False, bias=True,
                  binarize_input=False, rng=rng, name="head")
    x = b.add(head, x)
    return b.done(x, {
        "model": "resnet", "depth": depth, "width": width, "binary": binary,
        "num_classes": num_classes, "t_clip": t_clip,
        "scaling_mode": scaling_mode, "seed": seed, "preset": preset,
    })


def build_densenet_block(b, src, in_c, k, bottleneck, ste, mode, rng,
                         binary=True):
    """One dense block: new features concatenated onto the input."""
    y = b.add(BatchNorm(in_c, name=b._fresh("bn")), src)
    if bottleneck:
        y = _conv(b, y, in_c, 4 * k, (1, 1), 1, 0, binary, ste, mode, rng, "qconv")
        y = b.add(BatchNorm(4 * k, name=b._fresh("bn")), y)
        y = _conv(b, y, 4 * k, k, (3, 3), 1, 1, binary, ste, mode, rng, "qconv")
    else:
        y = _conv(b, y, in_c, k, (3, 3), 1, 1, binary, ste, mode, rng, "qconv")
    return b.add_concat([src, y]), in_c + k


def transition_width(k: int, reduction: float) -> int:
    """Channels emitted by a transition layer: floor(5.5 * k * reduction)."""
    return int(5.5 * k * reduction)


def build_densenet(spec: DenseNetSpec, bottleneck=False, binary=True,
                   t_clip=0.5, scaling_mode="N", seed=0,
                   preset="imagenet") -> ModelGraph:
    ste = STEConfig(t_clip)
    rng = np.random.default_rng(seed)
    if preset == "imagenet":
        input_shape = (3, 224, 224)
    elif preset == "cifar":
        input_shape = (3, 32, 32)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    name = f"densenet{densenet_depth(spec.b)}-k{spec.k}"
    b = _Builder(name, input_shape, spec.num_classes)

    c = 2 * spec.k
    if preset == "imagenet":
        x = _conv(b, 0, 3, c, (7, 7), 2, 3, False, ste, scaling_mode, rng, "conv")
        x = b.add(MaxPool2d(3, 2, name="stempool"), x)
    else:
        x = _conv(b, 0, 3, c, (3, 3), 1, 1, False, ste, scaling_mode, rng, "conv")
    for unit in range(4):
        for _ in range(2 * spec.b):
            x, c = build_densenet_block(
                b, x, c, spec.k, bottleneck, ste, scaling_mode, rng,
                binary=binary,
            )
        if unit < 3:
            out_c = transition_width(spec.k, spec.reduction)
            x = b.add(BatchNorm(c, name=b._fresh("bn")), x)
            x = _conv(b, x, c, out_c, (1, 1), 1, 0, binary, ste, scaling_mode,
                      rng, "qtrans")
            x = b.add(AvgPool2d(2, name=b._fresh("transpool")), x)
            c = out_c
    x = b.add(BatchNorm(c, name=b._fresh("bn")), x)
    x = b.add(GlobalAvgPool(), x)
    head = QDense(c, spec.num_classes, binary=False, bias=True,
                  binarize_input=False, rng=rng, name="head")
    x = b.add(head, x)
    return b.done(x, {
        "model": "densenet", "k": spec.k, "b": spec.b,
        "reduction": spec.reduction, "bottleneck": bottleneck,
        "binary": binary, "num_classes": spec.num_classes, "t_clip": t_clip,
        "scaling_mode": scaling_mode, "seed": seed, "preset": preset,
    })


def count_params(g: ModelGraph) -> int:
    """Learnable parameters: weights, biases, batch-norm gamma/beta."""
    return sum(p.value.size for p in g.params())


def model_size_bytes(g: ModelGraph, binary_storage: bool = True) -> int:
    """Exact on-disk size of the serialized model (matches modelio.save)."""
    from . import modelio

    return modelio.file_size(g, binary_storage=binary_storage)


def summary(g: ModelGraph) -> str:
    """Human-readable layer table."""
    from . import modelio

    lines = [
        f"model: {g.name}  input: {g.input_shape}  classes: {g.num_classes}",
        f"{'name':<16}{'kind':<16}{'params':>12}  storage",
        "-" * 56,
    ]
    for layer in g.layers():
        n = sum(p.value.size for p in layer.params())
        storage = modelio.storage_class(layer)
        lines.append(
            f"{layer.name:<16}{layer.spec()['kind']:<16}{n:>12,}  {storage}"
        )
    lines.append("-" * 56)
    lines.append(
        f"total params: {count_params(g):,}   "
        f"binary file: {model_size_bytes(g, True):,} B   "
        f"fp file: {model_size_bytes(g, False):,} B"
    )
    return "\n".join(lines)


MODEL_SPEC_HELP = (
    "lenet | densenet:k=<int>,b=<int>[,reduction=<float>] | "
    "resnet18 | resnet34[:width=thin|wide] | resnet26 | resnet68"
)


def build_model(spec_str: str, num_classes=None, binary=True, t_clip=0.5,
                scaling_mode="N", seed=0, preset=None) -> ModelGraph:
    """Build a model from a spec string like 'densenet:k=128,b=2'."""
    name, _, rest = spec_str.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad model option {item!r} in {spec_str!r}")
            opts[key.strip()] = val.strip()
    name = name.strip().lower()
    if name == "lenet":
        return build_lenet(
            binary=binary, num_classes=num_classes or 10, t_clip=t_clip,
            scaling_mode=scaling_mode, seed=seed,
        )
    if name == "densenet":
        try:
            spec = DenseNetSpec(
                k=int(opts.pop("k")),
                b=int(opts.pop("b")),
                reduction=float(opts.pop("reduction", 0.5)),
                num_classes=num_classes or 1000,
            )
        except KeyError as exc:
            raise ValueError(
                f"densenet spec needs k and b, e.g. densenet:k=128,b=2 "
                f"(got {spec_str!r})"
            ) from exc
        bottleneck = opts.pop("bottleneck", "false").lower() == "true"
        if opts:
            raise ValueError(f"unknown densenet options {sorted(opts)}")
        return build_densenet(
            spec, bottleneck=bottleneck, binary=binary, t_clip=t_clip,
            scaling_mode=scaling_mode, seed=seed,
            preset=preset or "imagenet",
        )
    if name.startswith("resnet"):
        try:
            depth = int(name[len("resnet"):])
        except ValueError:
            raise ValueError(
                f"unknown model {spec_str!r}; valid: {MODEL_SPEC_HELP}"
            ) from None
        width = opts.pop("width", "thin")
        if opts:
            raise ValueError(f"unknown resnet options {sorted(opts)}")
        return build_resnet(
            depth=depth, width=width, num_classes=num_classes or 1000,
            binary=binary, t_clip=t_clip, scaling_mode=scaling_mode,
            seed=seed, preset=preset or "imagenet",
        )
    raise ValueError(f"unknown model {spec_str!r}; valid: {MODEL_SPEC_HELP}")
