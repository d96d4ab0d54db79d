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

Every builder goes through one _Builder, which holds what the layers of
a graph share (the binary flag, the STEConfig, the scaling mode and the
generator that draws each layer's initial weights, in the order the
layers are made) behind add(op, *srcs) and conv(...); ResNet and
DenseNet share _input_shape, _stem and _classifier.
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
        if transition_width(self.k, self.reduction) < 1:
            raise ValueError(f"k={self.k} and reduction={self.reduction} give transitions "
                             f"int(5.5 * k * reduction) = 0 channels")
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

    def forward(self, x, tape=None, training=False):
        """Run the graph on a batch; returns the logits Slot.  In training
        each node after the input records one node on tape, in order."""
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
        return slots[self.output_id]


def apply_node(node: GraphNode, tape: Tape, inputs: list, training=False) -> Slot:
    """Run one non-input node on its input slots, recording on tape."""
    if node.op == "concat":
        return concat(tape, inputs)
    if node.op == "add":
        return residual_add(tape, *inputs)
    return node.op.forward(tape, inputs[0], training=training)


class _Builder:
    """A graph being built, with what its layers share: whether the inner
    layers are binary, the STE, the scaling mode and the generator that
    draws each layer's initial weights as the layer is made."""

    def __init__(self, name, input_shape, num_classes, binary, t_clip, scaling_mode, seed):
        self.graph = ModelGraph(name, tuple(input_shape), num_classes)
        self.graph.nodes.append(GraphNode(0, "input", []))
        self.binary, self.ste, self.mode = binary, STEConfig(t_clip), scaling_mode
        self.rng = np.random.default_rng(seed)
        self._counts = {}

    def fresh(self, prefix):
        i = self._counts.get(prefix, 0)
        self._counts[prefix] = i + 1
        return f"{prefix}{i}"

    def add(self, op, *srcs):
        """A node applying op (a Layer, "concat" or "add") to the nodes srcs."""
        self.graph.nodes.append(GraphNode(len(self.graph.nodes), op, list(srcs)))
        return len(self.graph.nodes) - 1

    def bn(self, src, c):
        return self.add(BatchNorm(c, name=self.fresh("bn")), src)

    def conv(self, src, in_c, out_c, k, stride=1, padding=0, prefix="qconv", binary=None):
        """A k x k convolution of src, binary (weights and input) as the
        model is unless binary=False (the float stem)."""
        binary = self.binary if binary is None else binary
        cfg = QLayerConfig(in_c, out_c, (k, k), stride, padding, self.mode, binarize_input=binary)
        return self.add(QConv2d(cfg, binary, self.ste, self.rng, self.fresh(prefix)), src)

    def head(self, src, c):
        """The float classifier, the one layer with a bias."""
        return self.add(QDense(c, self.graph.num_classes, binary=False, bias=True,
                               binarize_input=False, rng=self.rng, name="head"), src)

    def done(self, output_id, build_args):
        self.graph.output_id = output_id
        self.graph.build_args = build_args
        return self.graph


def build_lenet(binary=True, num_classes=10, t_clip=0.5, scaling_mode="N",
                seed=0) -> ModelGraph:
    """LeNet-style network for 28x28 single-channel inputs.

    Stem conv and classifier are full precision; with binary=True the
    inner conv and the hidden dense layer are quantized.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    b = _Builder("lenet" if binary else "lenet-fp", (1, 28, 28), num_classes, binary,
                 t_clip, scaling_mode, seed)
    x = b.conv(0, 1, 32, 5, prefix="conv", binary=False)
    x = b.bn(b.add(MaxPool2d(2, name=b.fresh("pool")), x), 32)      # 32x12x12
    x = b.conv(x, 32, 64, 5, prefix="qconv" if binary else "conv")  # 64x8x8
    x = b.bn(b.add(MaxPool2d(2, name=b.fresh("pool")), x), 64)      # 64x4x4
    x = b.add(Flatten(name="flatten"), x)                           # 1024
    hidden = QDense(1024, 1024, binary=binary, binarize_input=binary,
                    scaling_mode=scaling_mode, ste=b.ste, rng=b.rng,
                    name="qdense0" if binary else "dense0")
    x = b.head(b.bn(b.add(hidden, x), 1024), 1024)
    return b.done(x, {
        "model": "lenet", "binary": binary, "num_classes": num_classes,
        "t_clip": t_clip, "scaling_mode": scaling_mode, "seed": seed,
    })


def _input_shape(preset):
    shapes = {"imagenet": (3, 224, 224), "cifar": (3, 32, 32)}
    if preset not in shapes:
        raise ValueError(f"unknown preset {preset!r}")
    return shapes[preset]


def _stem(b, c, preset):
    """The float first convolution to c channels: 7x7 stride 2 and a 3x3
    stride-2 max pool at ImageNet geometry, 3x3 stride 1 at CIFAR's."""
    if preset == "cifar":
        return b.conv(0, 3, c, 3, 1, 1, prefix="conv", binary=False)
    x = b.conv(0, 3, c, 7, 2, 3, prefix="conv", binary=False)
    return b.add(MaxPool2d(3, 2, name="stempool"), x)


def _classifier(b, src, c):
    """BatchNorm, global average pooling and the float head."""
    x = b.add(GlobalAvgPool(), b.bn(src, c))
    return b.head(x, c)


def build_resnet_block(b, src, in_c, out_c, stride, bottleneck):
    """One residual block; returns (output node id, output channels)."""
    if bottleneck:
        mid = max(1, out_c // 4)
        y = b.conv(b.bn(src, in_c), in_c, mid, 1, stride)
        y = b.conv(b.bn(y, mid), mid, mid, 3, 1, 1)
        y = b.conv(b.bn(y, mid), mid, out_c, 1)
    else:
        y = b.conv(b.bn(src, in_c), in_c, out_c, 3, stride, 1)
        y = b.conv(b.bn(y, out_c), out_c, out_c, 3, 1, 1)
    if stride != 1 or in_c != out_c:
        src = b.conv(src, in_c, out_c, 1, stride, prefix="qproj")
    return b.add("add", y, src), out_c


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
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    blocks, bottleneck = _RESNET_PRESETS[depth]
    c, stages = _RESNET_WIDTHS[width]
    b = _Builder(f"resnet{depth}-{width}", _input_shape(preset), num_classes, binary,
                 t_clip, scaling_mode, seed)
    x = _stem(b, c, preset)
    for si, (n_blocks, out_c) in enumerate(zip(blocks, stages)):
        for bi in range(n_blocks):
            stride = 2 if (si > 0 and bi == 0) else 1
            x, c = build_resnet_block(b, x, c, out_c, stride, bottleneck)
    return b.done(_classifier(b, x, c), {
        "model": "resnet", "depth": depth, "width": width, "binary": binary,
        "num_classes": num_classes, "t_clip": t_clip,
        "scaling_mode": scaling_mode, "seed": seed, "preset": preset,
    })


def build_densenet_block(b, src, in_c, k, bottleneck):
    """One dense block: new features concatenated onto the input."""
    y, c = b.bn(src, in_c), in_c
    if bottleneck:
        y, c = b.bn(b.conv(y, in_c, 4 * k, 1), 4 * k), 4 * k
    return b.add("concat", src, b.conv(y, c, k, 3, 1, 1)), in_c + k


def transition_width(k: int, reduction: float) -> int:
    """Channels emitted by a transition layer: floor(5.5 * k * reduction)."""
    return int(5.5 * k * reduction)


def build_densenet(spec: DenseNetSpec, bottleneck=False, binary=True,
                   t_clip=0.5, scaling_mode="N", seed=0,
                   preset="imagenet") -> ModelGraph:
    name = f"densenet{densenet_depth(spec.b)}-k{spec.k}"
    b = _Builder(name, _input_shape(preset), spec.num_classes, binary, t_clip,
                 scaling_mode, seed)
    c = 2 * spec.k
    x = _stem(b, c, preset)
    for unit in range(4):
        for _ in range(2 * spec.b):
            x, c = build_densenet_block(b, x, c, spec.k, bottleneck)
        if unit < 3:
            out_c = transition_width(spec.k, spec.reduction)
            x = b.conv(b.bn(x, c), c, out_c, 1, prefix="qtrans")
            x = b.add(AvgPool2d(2, name=b.fresh("transpool")), x)
            c = out_c
    return b.done(_classifier(b, x, c), {
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
    "lenet | densenet:k=<int>,b=<int>[,reduction=<float>][,bottleneck=true|false] | "
    "resnet18 | resnet34[:width=thin|wide] | resnet26 | resnet68"
)


def _number(opts, key, kind, default=None):
    """opts[key] (or default), popped, as an int or float; a value that does
    not parse raises ValueError naming the option."""
    val = opts.pop(key, default)
    try:
        return kind(val)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"model option {key} must be {what}, got {val!r}") from None


def build(build_args: dict) -> ModelGraph:
    """The graph a ModelGraph.build_args dict describes, as every model file
    stores it: "model" names the builder (a densenet's k, b, reduction and
    num_classes make its DenseNetSpec) and the other keys are its keywords.
    Any other model kind raises ValueError."""
    args = dict(build_args)
    model = args.pop("model")
    if model == "lenet":
        return build_lenet(**args)
    if model == "resnet":
        return build_resnet(**args)
    if model == "densenet":
        spec = DenseNetSpec(*(args.pop(key) for key in ("k", "b", "reduction", "num_classes")))
        return build_densenet(spec, **args)
    raise ValueError(f"unknown model kind {model!r}")


def build_model(spec_str: str, num_classes=None, binary=True, t_clip=0.5,
                scaling_mode="N", seed=0, preset=None) -> ModelGraph:
    """Build a model from a spec string like 'densenet:k=128,b=2'.  An
    option the model does not take, one given twice, a number that does not
    parse or a bottleneck other than true or false raises ValueError naming
    it."""
    name, _, rest = spec_str.partition(":")
    opts = {}
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if not val:
            raise ValueError(f"bad model option {item!r} in {spec_str!r}")
        if key in opts:
            raise ValueError(f"model option {key!r} given twice in {spec_str!r}")
        opts[key] = val
    name = name.strip().lower()
    classes = 1000 if num_classes is None else num_classes
    preset = preset or "imagenet"
    args = dict(binary=binary, t_clip=t_clip, scaling_mode=scaling_mode, seed=seed)
    if name == "lenet":
        args.update(model=name, num_classes=10 if num_classes is None else num_classes)
    elif name == "densenet":
        if "k" not in opts or "b" not in opts:
            raise ValueError(f"densenet spec needs k and b, e.g. densenet:k=128,b=2 "
                             f"(got {spec_str!r})")
        bottleneck = opts.pop("bottleneck", "false").lower()
        if bottleneck not in ("true", "false"):
            raise ValueError(f"densenet option bottleneck must be true or false, "
                             f"got {bottleneck!r}")
        args.update(model=name, k=_number(opts, "k", int), b=_number(opts, "b", int),
                     reduction=_number(opts, "reduction", float, "0.5"),
                     bottleneck=bottleneck == "true", num_classes=classes, preset=preset)
    elif name.startswith("resnet") and name[len("resnet"):].isdigit():
        args.update(model="resnet", depth=int(name[len("resnet"):]),
                    width=opts.pop("width", "thin"), num_classes=classes, preset=preset)
    else:
        raise ValueError(f"unknown model {spec_str!r}; valid: {MODEL_SPEC_HELP}")
    if opts:
        raise ValueError(f"unknown {args['model']} options {sorted(opts)}")
    return build(args)
